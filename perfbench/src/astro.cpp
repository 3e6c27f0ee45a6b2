// astro3d_post: the paper's pipeline on a calibrated testbed. Eq. (2)
// prediction, then Astro3D on 4 ranks writing across all three media, then
// MSE over temp and Volren over vr_temp, twice each, with the metrics
// registry on. Real bytes move (collective I/O, rank exchange, SRB and tape);
// device schedules stay short and there is no Fleet or queue discipline.
#include <chrono>
#include <cmath>

#include "apps/astro3d/astro3d.h"
#include "apps/mse/mse.h"
#include "apps/volren/volren.h"
#include "layers.h"
#include "scenario.h"

namespace perfbench {
namespace {

namespace core = msra::core;
namespace apps = msra::apps;
using core::Location;

constexpr int kPasses = 2;  ///< post-processing passes; results must match

apps::astro3d::Config astro_config() {
  apps::astro3d::Config config;
  config.dims = {64, 64, 64};
  config.iterations = 60;
  config.analysis_freq = 6;
  config.viz_freq = 6;
  config.checkpoint_freq = 6;
  config.nprocs = 4;
  config.default_location = Location::kRemoteTape;
  config.hints["temp"] = Location::kRemoteDisk;
  config.hints["press"] = Location::kRemoteDisk;
  config.hints["vr_temp"] = Location::kLocalDisk;
  return config;
}

class AstroScenario final : public Scenario {
 public:
  void set_up(Spans& spans, RepResult& rep) override;
  RepResult run(Spans& spans) override;
  void probe(Spans& spans, Layers& layers,
             std::vector<std::string>& errors) override;

 private:
  std::unique_ptr<Bed> bed_;
  Layers counters_;
};

void AstroScenario::set_up(Spans& spans, RepResult& rep) {
  bed_.reset();
  const double cpu_start = cpu_seconds();
  {
    Spans::Scope span(spans, "setup");
    bed_ = std::make_unique<Bed>();
    rep.calibrate_s = calibrate(*bed_, spans, rep.errors);
  }
  rep.setup_s = cpu_seconds() - cpu_start;
}

RepResult AstroScenario::run(Spans& spans) {
  RepResult rep;
  set_up(spans, rep);
  if (!rep.errors.empty()) return rep;
  const apps::astro3d::Config config = astro_config();
  const Baseline baseline = take_baseline(*bed_);

  double predicted = 0.0;
  double producer_terms = 0.0;
  apps::astro3d::Result produced;
  std::vector<apps::mse::Result> mse(kPasses);
  std::vector<apps::volren::Result> volren(kPasses);
  const auto start = std::chrono::steady_clock::now();
  const double cpu_start = cpu_seconds();
  {
    Spans::Scope timed(spans, "timed");
    std::vector<std::pair<core::DatasetDesc, Location>> plan;
    for (const core::DatasetDesc& desc : apps::astro3d::dataset_descs(config)) {
      plan.emplace_back(desc, desc.location == Location::kAuto
                                  ? Location::kRemoteTape
                                  : desc.location);
    }
    {
      Spans::Scope span(spans, "Predictor::predict_run");
      auto prediction =
          bed_->predictor.predict_run(plan, config.iterations, config.nprocs);
      if (expect_ok(prediction.status(), "predict_run", rep.errors)) {
        predicted = prediction->total;
      }
    }
    core::Session session(bed_->system,
                          {.application = "astro3d", .user = "xshen",
                           .nprocs = config.nprocs,
                           .iterations = config.iterations});
    {
      Spans::Scope span(spans, "astro3d::run");
      auto result = apps::astro3d::run(session, config);
      if (expect_ok(result.status(), "astro3d run", rep.errors)) {
        produced = *result;
      }
    }
    producer_terms = take_baseline(*bed_).eq1_total();
    for (int pass = 0; pass < kPasses && rep.errors.empty(); ++pass) {
      {
        Spans::Scope span(spans, "mse::run");
        auto result = apps::mse::run(
            session, {.dataset = "temp", .nprocs = config.nprocs});
        if (expect_ok(result.status(), "mse", rep.errors)) mse[pass] = *result;
      }
      {
        Spans::Scope span(spans, "volren::run");
        auto result = apps::volren::run(
            session, {.dataset = "vr_temp", .width = 64, .height = 64,
                      .nprocs = config.nprocs,
                      .image_location = Location::kLocalDisk,
                      .image_base = "volren/pass" + std::to_string(pass)});
        if (expect_ok(result.status(), "volren", rep.errors)) {
          volren[pass] = *result;
        }
      }
    }
    expect_ok(session.finalize(), "finalize", rep.errors);
  }
  rep.timed_s = seconds_since(start);
  rep.timed_cpu_s = cpu_seconds() - cpu_start;
  if (!rep.errors.empty()) return rep;

  // Accesses: producer dumps plus one per dataset-timestep each post-
  // processing pass reads.
  rep.attempted = produced.dumps;
  double post_io = 0.0;
  for (int pass = 0; pass < kPasses; ++pass) {
    rep.attempted += mse[pass].timesteps.size() +
                     static_cast<std::uint64_t>(volren[pass].images);
    post_io += mse[pass].io_time + volren[pass].read_io_time +
               volren[pass].write_io_time;
  }
  rep.accesses = rep.attempted;
  rep.virt.add("virt_makespan_s", produced.io_time + post_io, "s");
  rep.virt.add("virt_producer_io_s", produced.io_time, "s");
  rep.virt.add("virt_eq2_s", predicted, "s");
  rep.virt.add("pred_err_pct",
               100.0 * std::abs(predicted - produced.io_time) / produced.io_time,
               "%");
  rep.virt.add("fail_ratio", 0.0, "1");

  counters_ = Layers();
  read_counters(*bed_, baseline, counters_);
  counters_.set("store.bytes_written",
                static_cast<double>(produced.bytes_written));

  // ---- output checks ---------------------------------------------------------
  // Eq. (1): the per-primitive breakdown of the post-processing phase
  // accounts for all the I/O time MSE and Volren billed. (The producer's
  // breakdown sums the seconds of four concurrently writing ranks, so it
  // has no single clock to be compared with; it is reported as is.)
  const double post_terms = take_baseline(*bed_).eq1_total() - producer_terms;
  rep.virt.add("eq1_producer_s", producer_terms, "s");
  rep.virt.add("eq1_post_s", post_terms, "s");
  rep.virt.add("eq1_post_accounted_pct", 100.0 * post_terms / post_io, "%");
  if (!(std::abs(post_terms - post_io) <= 1e-9 * post_io)) {
    rep.errors.push_back("Eq. 1 breakdown accounts for " +
                         exact(post_terms) + " s of " + exact(post_io) +
                         " s post-processing I/O");
  }
  for (int pass = 1; pass < kPasses; ++pass) {
    if (mse[pass].mse != mse[0].mse || mse[pass].timesteps != mse[0].timesteps) {
      rep.errors.push_back("MSE results differ between passes");
    }
    if (volren[pass].images != volren[0].images) {
      rep.errors.push_back("Volren image counts differ between passes");
    }
  }
  // Volren's images of both passes hold the same pixels.
  std::vector<std::vector<std::uint64_t>> sums(kPasses);
  msra::runtime::StorageEndpoint& images =
      bed_->system.endpoint(Location::kLocalDisk);
  msra::simkit::Timeline timeline;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const std::string& name : volren[pass].image_paths) {
      const std::string path = "volren/pass" + std::to_string(pass) + "/" + name;
      auto size = images.size(timeline, path);
      if (!expect_ok(size.status(), "size of " + path, rep.errors)) break;
      std::vector<std::byte> pixels(*size);
      if (!expect_ok(msra::runtime::PlanExecutor::execute(
                         msra::runtime::PlanBuilder::object_read(path, *size),
                         images, timeline, pixels, {}),
                     "read " + path, rep.errors)) {
        break;
      }
      sums[pass].push_back(fnv1a(pixels.data(), pixels.size()));
    }
  }
  if (sums[0].empty() || sums[1] != sums[0]) {
    rep.errors.push_back("Volren images differ between passes");
  }
  return rep;
}

void AstroScenario::probe(Spans& spans, Layers& layers,
                     std::vector<std::string>& errors) {
  layers = counters_;
  const std::vector<double> predict_us =
      spans.durations_us("Predictor::predict_run");
  layers.set("predict.predict_run_ms", percentile(predict_us, 50.0) / 1e3);

  using msra::runtime::PlanBuilder;
  const apps::astro3d::Config config = astro_config();
  auto layout = [config]() -> msra::StatusOr<msra::runtime::ArrayLayout> {
    MSRA_ASSIGN_OR_RETURN(msra::prt::Decomposition decomp,
                          msra::prt::Decomposition::create(
                              config.dims, config.nprocs, "BBB"));
    return msra::runtime::ArrayLayout{decomp, 4};
  };
  ProbeInputs inputs;
  const std::uint64_t bytes = config.dims[0] * config.dims[1] * config.dims[2] * 4;
  inputs.object_bytes = bytes;
  inputs.shapes.push_back(
      {[layout, config]() -> msra::StatusOr<msra::runtime::IoPlan> {
         MSRA_ASSIGN_OR_RETURN(msra::runtime::ArrayLayout l, layout());
         return PlanBuilder::dataset_dump(l, msra::runtime::IoMethod::kCollective,
                                          config.nprocs,
                                          msra::runtime::PlanDir::kWrite);
       },
       Location::kRemoteDisk});
  inputs.shapes.push_back(
      {[layout, config]() -> msra::StatusOr<msra::runtime::IoPlan> {
         MSRA_ASSIGN_OR_RETURN(msra::runtime::ArrayLayout l, layout());
         return PlanBuilder::dataset_dump(l, msra::runtime::IoMethod::kCollective,
                                          config.nprocs,
                                          msra::runtime::PlanDir::kWrite);
       },
       Location::kRemoteTape});
  inputs.shapes.push_back(
      {[bytes]() -> msra::StatusOr<msra::runtime::IoPlan> {
         return PlanBuilder::object_read("astro3d/vr_temp/t0", bytes / 4);
       },
       Location::kLocalDisk});
  probe_common(*bed_, inputs, spans, layers, errors);
}

}  // namespace

std::unique_ptr<Scenario> make_astro3d_post(std::uint64_t /*seed*/) {
  return std::make_unique<AstroScenario>();
}

}  // namespace perfbench
