// The benchmark's workloads ("scenarios", to keep the name apart from
// core::Workload) and what one repetition of a scenario reports.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/msra.h"
#include "harness.h"
#include "predict/perfdb.h"
#include "predict/predictor.h"

namespace perfbench {

/// The calibrated year-2000 testbed: hermetic in-memory stores (no data
/// root), so no number measures the OS page cache.
struct Bed {
  explicit Bed(const msra::core::HardwareProfile& profile =
                   msra::core::HardwareProfile::paper_2000())
      : system(profile) {}

  msra::core::StorageSystem system;
  msra::predict::PerfDb perfdb{&system.metadb()};
  msra::predict::Predictor predictor{&perfdb};
};

/// One repetition of a scenario: set-up, the timed phase, output checks.
struct RepResult {
  /// Host: process CPU seconds of the testbed, calibration, input seeding.
  double setup_s = 0.0;
  double calibrate_s = 0.0;  ///< host: wall seconds of the PTool part
  double timed_s = 0.0;      ///< host: wall seconds of the timed phase
  double timed_cpu_s = 0.0;  ///< host: process CPU seconds of the timed phase
  std::uint64_t accesses = 0;   ///< staged I/O accesses completed
  std::uint64_t attempted = 0;  ///< accesses attempted
  std::uint64_t failed = 0;     ///< failed or refused accesses
  /// Virtual-time answers of the model. Deterministic for a seed: they
  /// must repeat exactly across repetitions and under tracing.
  Metrics virt;
  /// Failed output checks (empty when every output is correct).
  std::vector<std::string> errors;
};

class Scenario {
 public:
  virtual ~Scenario() = default;

  /// Drops the last repetition's state and builds a fresh testbed:
  /// calibration and input seeding. Sets `rep.setup_s` and
  /// `rep.calibrate_s`; failed steps go to `rep.errors`. run() begins with
  /// it, and the benchmark calls it alone for more set-up samples.
  virtual void set_up(Spans& spans, RepResult& rep) = 0;

  /// Sets up a fresh testbed and runs one repetition. Host-time spans go to
  /// `spans` (a disabled recorder records nothing). The state the timed
  /// phase left behind stays alive until the next call, for probe().
  virtual RepResult run(Spans& spans) = 0;

  /// Per-layer counts and end-state probes of the last run(), written into
  /// `layers` (see layers.h for the fixed metric list). Reads the last
  /// run's spans; the probes add their own. Failed checks go to `errors`.
  virtual void probe(Spans& spans, class Layers& layers,
                     std::vector<std::string>& errors) = 0;
};

/// "fleet_open", "qos_classed", "astro3d_post" or "campaign_tier"; null for
/// an unknown name.
std::unique_ptr<Scenario> make_scenario(const std::string& name,
                                        std::uint64_t seed);

// ---- helpers shared by the scenarios --------------------------------------

/// Runs PTool over every resource (repeats 1), then resets device clocks.
/// Returns the host seconds it took; records the `PTool::measure_all` span.
double calibrate(Bed& bed, Spans& spans, std::vector<std::string>& errors);

/// Writes `timesteps` timesteps of a seeded byte pattern through a session
/// of application `app`; returns the FNV-1a checksum of each timestep.
std::vector<std::uint64_t> seed_dataset(msra::core::StorageSystem& system,
                                        const std::string& app,
                                        const msra::core::DatasetDesc& desc,
                                        int timesteps, std::uint64_t seed,
                                        std::vector<std::string>& errors);

/// Reads every timestep back (on a scratch clock, after the timed phase) and
/// records an error for each checksum that differs from `expected`.
void verify_dataset(msra::core::StorageSystem& system, const std::string& app,
                    const std::string& dataset,
                    const std::vector<std::uint64_t>& expected,
                    std::vector<std::string>& errors);

std::uint64_t fnv1a(const void* data, std::size_t bytes);

msra::core::DatasetDesc float_dataset(std::string name,
                                      std::array<std::uint64_t, 3> dims,
                                      msra::core::Location location);

/// Records "<what>: <status>" when `status` is not ok; returns status.ok().
bool expect_ok(const msra::Status& status, const std::string& what,
               std::vector<std::string>& errors);

}  // namespace perfbench
