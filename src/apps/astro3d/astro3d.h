// Astro3D: the paper's driving application, reproduced as a simplified
// (but real) 3-D finite-difference hydrodynamics kernel.
//
// The original solves compressible hydrodynamics with a higher-order Godunov
// method plus Crank–Nicholson nonlinear thermal diffusion. For the I/O
// architecture only the *data flow* matters: a parallel producer evolving
// six primary fields on a distributed 3-D grid that periodically dumps
//   * 6 analysis datasets  (float):  press temp rho ux uy uz
//   * 7 visualization sets (uchar):  vr_scalar vr_press vr_rho vr_temp
//                                    vr_mach vr_ek vr_logrho
//   * 6 checkpoint sets    (float):  restart_* (over_write mode)
// Our kernel evolves the same six fields with an explicit
// advection-diffusion update (clamped stencil at the domain boundary —
// documented simplification), so the data genuinely changes every timestep
// and the post-processing consumers (MSE, Volren, slicing) operate on real
// fields. Each step copies a field into one ghost-padded buffer whose six
// ghost planes hold either the neighbor rank's halo face or the clamped
// edge plane, then runs a branch-free stencil over contiguous k-rows. The
// float expressions keep one fixed order, so the fields are bit-identical
// run to run and a halo-exchanging parallel run matches the serial one.
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "core/msra.h"
#include "prt/array.h"

namespace msra::apps::astro3d {

/// The six primary fields.
enum class Field { kPress, kTemp, kRho, kUx, kUy, kUz };
inline constexpr int kNumFields = 6;

/// Dataset name groups (exactly the paper's).
const std::vector<std::string>& analysis_names();
const std::vector<std::string>& viz_names();
const std::vector<std::string>& checkpoint_names();

/// Run-time parameter set (Table 2) plus per-dataset location hints.
struct Config {
  std::array<std::uint64_t, 3> dims = {128, 128, 128};
  int iterations = 120;
  int analysis_freq = 6;
  int viz_freq = 6;
  int checkpoint_freq = 6;
  int nprocs = 4;
  runtime::IoMethod method = runtime::IoMethod::kCollective;
  /// Location hint per dataset name; datasets not listed use `default_location`.
  std::map<std::string, core::Location> hints;
  core::Location default_location = core::Location::kAuto;

  /// Restart from the latest checkpoint recorded in the metadata instead of
  /// initializing: the run continues after the checkpointed iteration (the
  /// purpose of the paper's restart_* datasets).
  bool resume = false;

  /// Virtual seconds of computation charged per iteration (0 = I/O only,
  /// the quantity the paper's Fig. 9 reports). Non-zero values let benches
  /// show the I/O fraction of a whole run.
  double compute_seconds_per_iteration = 0.0;

  /// Table 2 derived quantity: total bytes dumped over the run.
  std::uint64_t total_bytes() const;
};

/// Dataset descriptors for a config (19 datasets).
std::vector<core::DatasetDesc> dataset_descs(const Config& config);

/// Result of one simulation run.
struct Result {
  double io_time = 0.0;            ///< virtual seconds spent in I/O
  double total_time = 0.0;         ///< I/O + modeled compute
  std::uint64_t bytes_written = 0; ///< payload bytes shipped to storage
  std::uint64_t dumps = 0;         ///< dataset-timestep dumps performed
  int start_iteration = 0;         ///< 0, or checkpoint + 1 when resumed
  /// Where each dataset ended up (after placement / failover).
  std::map<std::string, core::Location> placements;
};

/// The state of one rank's block of the simulation.
class State {
 public:
  State(const prt::Decomposition& decomp, int rank);

  prt::Array3D<float>& field(Field f) { return fields_[static_cast<int>(f)]; }
  const prt::Array3D<float>& field(Field f) const {
    return fields_[static_cast<int>(f)];
  }
  const prt::LocalBox& box() const { return box_; }

  /// Deterministic initial condition (smooth blobs + stratification).
  void initialize(const std::array<std::uint64_t, 3>& dims);

  /// One explicit advection-diffusion step. Each field is copied into a
  /// ghost-padded (ni+2)(nj+2)(nk+2) buffer. Without a Comm its ghost planes
  /// are the clamped *local* box edge (serial semantics); with a Comm, the
  /// planes facing a neighbor rank hold that rank's exchanged face, so a
  /// parallel run evolves bit-identically to a serial one. The stencil keeps
  /// the float order lap = xm + xp + ym + yp + zm + zp - 6*center, then
  /// center + dt*kappa*lap, then the upwind term: changing it changes the
  /// fields, which the golden-field test pins.
  void step(const std::array<std::uint64_t, 3>& dims, int iteration,
            prt::Comm* comm = nullptr);

  /// Derived visualization field, normalized to uchar.
  std::vector<std::uint8_t> render_field(const std::string& vr_name) const;

 private:
  /// Exchanges the six boundary faces of field `f` with neighbor ranks and
  /// writes each received face into the matching ghost plane of padded_.
  void exchange_halo(prt::Comm& comm, Field f);

  const prt::Decomposition* decomp_;
  int rank_;
  prt::LocalBox box_;
  std::array<prt::Array3D<float>, kNumFields> fields_;
  std::array<prt::Array3D<float>, kNumFields> scratch_;
  /// Ghost-padded copy of the field being stepped, reused across fields.
  std::vector<float> padded_;
};

/// Runs the full simulation through the session API. `session` must have
/// been created with nprocs == config.nprocs.
StatusOr<Result> run(core::Session& session, const Config& config);

}  // namespace msra::apps::astro3d
