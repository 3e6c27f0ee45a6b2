#include "apps/astro3d/astro3d.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "prt/comm.h"

namespace msra::apps::astro3d {

const std::vector<std::string>& analysis_names() {
  static const std::vector<std::string> names = {"press", "temp", "rho",
                                                 "ux",    "uy",   "uz"};
  return names;
}

const std::vector<std::string>& viz_names() {
  static const std::vector<std::string> names = {
      "vr_scalar", "vr_press", "vr_rho", "vr_temp",
      "vr_mach",   "vr_ek",    "vr_logrho"};
  return names;
}

const std::vector<std::string>& checkpoint_names() {
  static const std::vector<std::string> names = {
      "restart_press", "restart_temp", "restart_rho",
      "restart_ux",    "restart_uy",   "restart_uz"};
  return names;
}

std::uint64_t Config::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& desc : dataset_descs(*this)) {
    total += desc.footprint_bytes(iterations);
  }
  return total;
}

std::vector<core::DatasetDesc> dataset_descs(const Config& config) {
  std::vector<core::DatasetDesc> out;
  auto hint_for = [&config](const std::string& name) {
    auto it = config.hints.find(name);
    return it == config.hints.end() ? config.default_location : it->second;
  };
  auto make = [&](const std::string& name, core::ElementType etype,
                  core::AccessMode amode, int freq) {
    core::DatasetDesc desc;
    desc.name = name;
    desc.amode = amode;
    desc.dims = config.dims;
    desc.etype = etype;
    desc.pattern = "BBB";
    desc.frequency = freq;
    desc.location = hint_for(name);
    desc.method = config.method;
    return desc;
  };
  for (const auto& name : analysis_names()) {
    auto desc = make(name, core::ElementType::kFloat32, core::AccessMode::kCreate,
                     config.analysis_freq);
    desc.usage = "analysis";
    out.push_back(std::move(desc));
  }
  for (const auto& name : viz_names()) {
    auto desc = make(name, core::ElementType::kUInt8, core::AccessMode::kCreate,
                     config.viz_freq);
    desc.usage = "visualization";
    out.push_back(std::move(desc));
  }
  for (const auto& name : checkpoint_names()) {
    auto desc = make(name, core::ElementType::kFloat32,
                     core::AccessMode::kOverWrite, config.checkpoint_freq);
    desc.usage = "checkpoint";
    out.push_back(std::move(desc));
  }
  return out;
}

// -------------------------------------------------------------- kernel ----

namespace {

using Extent3 = std::array<std::size_t, 3>;

Extent3 extents_of(const prt::LocalBox& box) {
  return {static_cast<std::size_t>(box.extent[0].size()),
          static_cast<std::size_t>(box.extent[1].size()),
          static_cast<std::size_t>(box.extent[2].size())};
}

/// Row-major strides of a dense block with extents `n`.
Extent3 strides_of(const Extent3& n) { return {n[1] * n[2], n[2], 1}; }

/// Strides of the ghost-padded copy of a block with extents `n`.
Extent3 padded_strides(const Extent3& n) {
  return strides_of({n[0] + 2, n[1] + 2, n[2] + 2});
}

/// Strides of a packed halo face normal to dim d: element (a, b) of the
/// (d+1, d+2 mod 3) plane sits at a * n[d2] + b.
Extent3 face_strides(std::size_t d, const Extent3& n) {
  Extent3 s{};
  s[(d + 1) % 3] = n[(d + 2) % 3];
  s[(d + 2) % 3] = 1;
  return s;
}

/// Copies the n[d1] x n[d2] plane normal to dim d between two strided
/// layouts; `from` and `to` point at the plane's (0, 0) element.
void copy_plane(std::size_t d, const Extent3& n, const float* from,
                const Extent3& from_strides, float* to,
                const Extent3& to_strides) {
  const std::size_t d1 = (d + 1) % 3, d2 = (d + 2) % 3;
  for (std::size_t a = 0; a < n[d1]; ++a) {
    for (std::size_t b = 0; b < n[d2]; ++b) {
      to[a * to_strides[d1] + b * to_strides[d2]] =
          from[a * from_strides[d1] + b * from_strides[d2]];
    }
  }
}

/// Origin of the box's own edge plane (d, s) in a dense block: s = 0 is
/// its lowest index in dim d, s = 1 its highest.
const float* edge_plane(const float* cells, const Extent3& n, std::size_t d,
                        int s) {
  return cells + (s == 0 ? 0 : n[d] - 1) * strides_of(n)[d];
}

/// Origin of ghost plane (d, s) of a padded block: s = 0 below the box in
/// dim d, s = 1 above it; one cell in from the padding in the other dims.
float* ghost_plane(float* padded, const Extent3& n, std::size_t d, int s) {
  const Extent3 ps = padded_strides(n);
  return padded + (s == 0 ? 0 : n[d] + 1) * ps[d] + ps[(d + 1) % 3] +
         ps[(d + 2) % 3];
}

}  // namespace

State::State(const prt::Decomposition& decomp, int rank)
    : decomp_(&decomp), rank_(rank), box_(decomp.local_box(rank)) {
  for (auto& field : fields_) field = prt::Array3D<float>(box_);
  for (auto& field : scratch_) field = prt::Array3D<float>(box_);
}

void State::initialize(const std::array<std::uint64_t, 3>& dims) {
  const double nx = static_cast<double>(dims[0]);
  const double ny = static_cast<double>(dims[1]);
  const double nz = static_cast<double>(dims[2]);
  for (std::uint64_t i = box_.extent[0].lo; i < box_.extent[0].hi; ++i) {
    for (std::uint64_t j = box_.extent[1].lo; j < box_.extent[1].hi; ++j) {
      for (std::uint64_t k = box_.extent[2].lo; k < box_.extent[2].hi; ++k) {
        const double x = (static_cast<double>(i) + 0.5) / nx;
        const double y = (static_cast<double>(j) + 0.5) / ny;
        const double z = (static_cast<double>(k) + 0.5) / nz;
        // A buoyant hot blob in a stratified background (sun-like envelope).
        const double r2 = (x - 0.5) * (x - 0.5) + (y - 0.5) * (y - 0.5) +
                          (z - 0.35) * (z - 0.35);
        const double blob = std::exp(-40.0 * r2);
        const double strat = 1.0 + 0.4 * (1.0 - z);
        field(Field::kRho).at(i, j, k) = static_cast<float>(strat - 0.3 * blob);
        field(Field::kTemp).at(i, j, k) = static_cast<float>(1.0 + 2.0 * blob);
        field(Field::kPress).at(i, j, k) =
            static_cast<float>(strat * (1.0 + 2.0 * blob));
        field(Field::kUx).at(i, j, k) =
            static_cast<float>(0.1 * std::sin(6.28318 * y));
        field(Field::kUy).at(i, j, k) =
            static_cast<float>(0.1 * std::sin(6.28318 * z));
        field(Field::kUz).at(i, j, k) = static_cast<float>(0.25 * blob);
      }
    }
  }
}

void State::exchange_halo(prt::Comm& comm, Field f) {
  const float* cells = fields_[static_cast<int>(f)].flat().data();
  const prt::ProcessGrid& grid = decomp_->grid();
  const auto coords = grid.coords_of(rank_);
  const Extent3 n = extents_of(box_);
  const int base_tag = static_cast<int>(f) * 6;

  auto neighbor_of = [&](std::size_t d, int s) -> int {
    auto nb = coords;
    nb[d] += (s == 0 ? -1 : 1);
    if (nb[d] < 0 || nb[d] >= grid.shape[d]) return -1;
    return grid.rank_of(nb);
  };
  auto face_bytes = [&](std::size_t d) {
    return n[(d + 1) % 3] * n[(d + 2) % 3] * sizeof(float);
  };

  // Post all sends first: our prt send() is buffered and never blocks.
  for (std::size_t d = 0; d < 3; ++d) {
    for (int s = 0; s < 2; ++s) {
      const int neighbor = neighbor_of(d, s);
      if (neighbor < 0) continue;
      std::vector<std::byte> bytes(face_bytes(d));
      copy_plane(d, n, edge_plane(cells, n, d, s), strides_of(n),
                 reinterpret_cast<float*>(bytes.data()), face_strides(d, n));
      comm.send(neighbor, base_tag + static_cast<int>(d) * 2 + s,
                std::move(bytes));
    }
  }
  for (std::size_t d = 0; d < 3; ++d) {
    for (int s = 0; s < 2; ++s) {
      const int neighbor = neighbor_of(d, s);
      if (neighbor < 0) continue;
      // The neighbor in direction s sent its opposite face (1 - s).
      auto bytes =
          comm.recv(neighbor, base_tag + static_cast<int>(d) * 2 + (1 - s));
      if (bytes.size() != face_bytes(d)) continue;  // keep the clamped edge
      copy_plane(d, n, reinterpret_cast<const float*>(bytes.data()),
                 face_strides(d, n), ghost_plane(padded_.data(), n, d, s),
                 padded_strides(n));
    }
  }
}

void State::step(const std::array<std::uint64_t, 3>& dims, int iteration,
                 prt::Comm* comm) {
  (void)dims;
  const float dt = 0.1f;
  const float kappa = 0.15f;  // diffusion
  // Explicit update: diffusion of every field plus velocity-driven upwind
  // advection and a time-varying heat source (a documented simplification
  // of the Godunov + Crank-Nicholson scheme — the I/O layers only need
  // honestly evolving fields). The float expressions below keep their
  // order: the golden-field test pins the fields bit for bit.
  const Extent3 n = extents_of(box_);
  const Extent3 ss = strides_of(n);
  const Extent3 ps = padded_strides(n);
  padded_.resize((n[0] + 2) * ps[0]);
  float* pad = padded_.data();
  const float* uz = field(Field::kUz).flat().data();
  for (int f = 0; f < kNumFields; ++f) {
    const float* cells = fields_[f].flat().data();
    float* dst = scratch_[f].flat().data();
    for (std::size_t i = 0; i < n[0]; ++i) {
      for (std::size_t j = 0; j < n[1]; ++j) {
        std::copy_n(cells + i * ss[0] + j * ss[1], n[2],
                    pad + (i + 1) * ps[0] + (j + 1) * ps[1] + 1);
      }
    }
    // Clamped edge: the global-domain boundary condition, or the serial
    // approximation at internal box edges when there is no Comm.
    for (std::size_t d = 0; d < 3; ++d) {
      for (int s = 0; s < 2; ++s) {
        copy_plane(d, n, edge_plane(cells, n, d, s), ss,
                   ghost_plane(pad, n, d, s), ps);
      }
    }
    if (comm != nullptr && comm->size() > 1) {
      exchange_halo(*comm, static_cast<Field>(f));
    }
    for (std::size_t i = 0; i < n[0]; ++i) {
      for (std::size_t j = 0; j < n[1]; ++j) {
        const float* c = pad + (i + 1) * ps[0] + (j + 1) * ps[1] + 1;
        const float* xm = c - ps[0];
        const float* xp = c + ps[0];
        const float* ym = c - ps[1];
        const float* yp = c + ps[1];
        const float* zm = c - 1;
        const float* zp = c + 1;
        const float* w = uz + i * ss[0] + j * ss[1];
        float* out = dst + i * ss[0] + j * ss[1];
        for (std::size_t k = 0; k < n[2]; ++k) {
          const float center = c[k];
          const float lap = xm[k] + xp[k] + ym[k] + yp[k] + zm[k] + zp[k] -
                            6.0f * center;
          float value = center + dt * kappa * lap;
          // First-order upwind advection along uz (cheap, keeps motion).
          const float upwind = w[k] > 0 ? center - zm[k] : zp[k] - center;
          value -= dt * w[k] * upwind;
          out[k] = value;
        }
      }
    }
  }
  for (int f = 0; f < kNumFields; ++f) std::swap(fields_[f], scratch_[f]);
  // A pulsing heat source keeps temp/press evolving (and MSE non-zero). It
  // depends on the cell only through i + j + k: one sin per diagonal.
  const float source_phase = 0.05f * static_cast<float>(iteration);
  const std::uint64_t diag0 =
      box_.extent[0].lo + box_.extent[1].lo + box_.extent[2].lo;
  std::vector<float> heat(n[0] + n[1] + n[2] - 2);
  for (std::size_t s = 0; s < heat.size(); ++s) {
    heat[s] = 0.02f * std::sin(source_phase +
                               0.1f * static_cast<float>(diag0 + s));
  }
  float* temp = field(Field::kTemp).flat().data();
  float* press = field(Field::kPress).flat().data();
  for (std::size_t i = 0; i < n[0]; ++i) {
    for (std::size_t j = 0; j < n[1]; ++j) {
      const float* h = heat.data() + i + j;
      float* t = temp + i * ss[0] + j * ss[1];
      float* p = press + i * ss[0] + j * ss[1];
      for (std::size_t k = 0; k < n[2]; ++k) {
        t[k] += h[k];
        p[k] += 0.5f * h[k];
      }
    }
  }
}

std::vector<std::uint8_t> State::render_field(const std::string& vr_name) const {
  // Map the derived quantity to floats, then normalize this block to uchar.
  // Cells are visited in storage order, which is (i, j, k) order.
  const float* rho = field(Field::kRho).flat().data();
  const float* temp = field(Field::kTemp).flat().data();
  const float* press = field(Field::kPress).flat().data();
  const float* ux = field(Field::kUx).flat().data();
  const float* uy = field(Field::kUy).flat().data();
  const float* uz = field(Field::kUz).flat().data();
  std::vector<float> values(static_cast<std::size_t>(box_.volume()));
  auto fill = [&](auto&& fn) {
    for (std::size_t n = 0; n < values.size(); ++n) values[n] = fn(n);
  };
  if (vr_name == "vr_scalar" || vr_name == "vr_temp") {
    std::copy_n(temp, values.size(), values.begin());
  } else if (vr_name == "vr_press") {
    std::copy_n(press, values.size(), values.begin());
  } else if (vr_name == "vr_rho") {
    std::copy_n(rho, values.size(), values.begin());
  } else if (vr_name == "vr_mach") {
    fill([&](std::size_t n) {
      const float u2 = ux[n] * ux[n] + uy[n] * uy[n] + uz[n] * uz[n];
      const float c2 =
          std::max(1e-6f, press[n] / std::max(1e-6f, rho[n]));
      return std::sqrt(u2 / c2);
    });
  } else if (vr_name == "vr_ek") {
    fill([&](std::size_t n) {
      const float u2 = ux[n] * ux[n] + uy[n] * uy[n] + uz[n] * uz[n];
      return 0.5f * rho[n] * u2;
    });
  } else {  // vr_logrho
    fill([&](std::size_t n) { return std::log(std::max(1e-6f, rho[n])); });
  }
  float lo = values[0], hi = values[0];
  for (float v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const float scale = hi > lo ? 255.0f / (hi - lo) : 0.0f;
  std::vector<std::uint8_t> out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i] = static_cast<std::uint8_t>((values[i] - lo) * scale);
  }
  return out;
}

// ----------------------------------------------------------------- run ----

StatusOr<Result> run(core::Session& session, const Config& config) {
  const auto descs = dataset_descs(config);
  std::map<std::string, core::DatasetHandle*> handles;
  for (const auto& desc : descs) {
    MSRA_ASSIGN_OR_RETURN(core::DatasetHandle * handle, session.open(desc));
    handles[desc.name] = handle;
  }
  MSRA_ASSIGN_OR_RETURN(
      prt::Decomposition decomp,
      prt::Decomposition::create(config.dims, config.nprocs, "BBB"));

  // Resuming: the latest restart_* dump in the metadata tells us where the
  // interrupted run left off.
  int start_iteration = 0;
  if (config.resume) {
    const auto instances = session.catalog().instances(
        session.options().application, "restart_press");
    if (instances.empty()) {
      return Status::NotFound("resume requested but no checkpoint exists");
    }
    int latest = instances.front().timestep;
    for (const auto& instance : instances) {
      latest = std::max(latest, instance.timestep);
    }
    start_iteration = latest + 1;
  }

  static const std::pair<const char*, Field> kCheckpointFields[] = {
      {"restart_press", Field::kPress}, {"restart_temp", Field::kTemp},
      {"restart_rho", Field::kRho},     {"restart_ux", Field::kUx},
      {"restart_uy", Field::kUy},       {"restart_uz", Field::kUz}};

  Result result;
  result.start_iteration = start_iteration;
  Status run_status = Status::Ok();
  std::mutex result_mutex;

  prt::World world(config.nprocs);
  world.run([&](prt::Comm& comm) {
    State state(decomp, comm.rank());
    Status my_status = Status::Ok();
    if (config.resume) {
      for (const auto& [name, field] : kCheckpointFields) {
        if (!my_status.ok()) break;
        my_status = handles[name]->read_timestep(comm, start_iteration - 1,
                                                 state.field(field).bytes());
      }
    } else {
      state.initialize(config.dims);
    }
    std::uint64_t my_bytes = 0;
    std::uint64_t my_dumps = 0;

    auto dump_float = [&](const std::string& name, Field field, int iteration) {
      if (!my_status.ok()) return;
      auto bytes = state.field(field).bytes();
      my_status = handles[name]->write_timestep(comm, iteration, bytes);
      if (my_status.ok() && handles[name]->enabled()) {
        my_bytes += bytes.size();
        ++my_dumps;
      }
    };
    auto dump_viz = [&](const std::string& name, int iteration) {
      if (!my_status.ok()) return;
      auto pixels = state.render_field(name);
      std::span<const std::byte> bytes(
          reinterpret_cast<const std::byte*>(pixels.data()), pixels.size());
      my_status = handles[name]->write_timestep(comm, iteration, bytes);
      if (my_status.ok() && handles[name]->enabled()) {
        my_bytes += bytes.size();
        ++my_dumps;
      }
    };

    double compute_time = 0.0;
    for (int it = start_iteration; it <= config.iterations && my_status.ok();
         ++it) {
      if (it > 0) {
        state.step(config.dims, it, &comm);
        if (config.compute_seconds_per_iteration > 0.0) {
          comm.timeline().advance(config.compute_seconds_per_iteration);
          compute_time += config.compute_seconds_per_iteration;
        }
      }
      if (it % config.analysis_freq == 0) {
        dump_float("press", Field::kPress, it);
        dump_float("temp", Field::kTemp, it);
        dump_float("rho", Field::kRho, it);
        dump_float("ux", Field::kUx, it);
        dump_float("uy", Field::kUy, it);
        dump_float("uz", Field::kUz, it);
      }
      if (it % config.viz_freq == 0) {
        for (const auto& name : viz_names()) dump_viz(name, it);
      }
      if (it % config.checkpoint_freq == 0) {
        dump_float("restart_press", Field::kPress, it);
        dump_float("restart_temp", Field::kTemp, it);
        dump_float("restart_rho", Field::kRho, it);
        dump_float("restart_ux", Field::kUx, it);
        dump_float("restart_uy", Field::kUy, it);
        dump_float("restart_uz", Field::kUz, it);
      }
    }
    comm.sync_time();
    std::lock_guard<std::mutex> lock(result_mutex);
    if (!my_status.ok() && run_status.ok()) run_status = my_status;
    if (comm.rank() == 0) {
      result.total_time = comm.timeline().now();
      result.io_time = result.total_time - compute_time;
      result.dumps = my_dumps;
    }
    result.bytes_written += my_bytes;
  });
  MSRA_RETURN_IF_ERROR(run_status);
  for (const auto& [name, handle] : handles) {
    result.placements[name] = handle->location();
  }
  return result;
}

}  // namespace msra::apps::astro3d
