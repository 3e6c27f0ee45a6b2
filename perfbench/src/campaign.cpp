// campaign_tier: one declared campaign of sim -> mse -> viz branches over
// tape-resident reference datasets, with the StagingScheduler prestaging
// and collecting replicas and the ReadCache on. The only workload where
// flow planning and pricing, migration, cache admission and hits and tape
// mounts carry the work.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>

#include "cache/cache.h"
#include "flow/pricer.h"
#include "flow/run.h"
#include "layers.h"
#include "scenario.h"

namespace perfbench {
namespace {

namespace core = msra::core;
namespace flow = msra::flow;
using core::Location;

constexpr int kBranches = 600;
constexpr int kRefs = 32;
constexpr int kRefTimesteps = 2;
constexpr std::array<std::uint64_t, 3> kRefDims = {64, 64, 64};
constexpr std::array<std::uint64_t, 3> kFrameDims = {16, 16, 16};
constexpr const char* kApp = "tier";
/// Four refs (eight 1 MiB timesteps) per cartridge, so the 32 refs span eight
/// cartridges and the tape drives swap cartridges during the timed phase.
constexpr std::uint64_t kCartridgeBytes = 8ull << 20;

core::HardwareProfile tiered_profile() {
  core::HardwareProfile profile = core::HardwareProfile::paper_2000();
  profile.tape.cartridge_capacity = kCartridgeBytes;
  return profile;
}

std::string ref_name(int k) { return "ref" + std::to_string(k); }

class CampaignScenario final : public Scenario {
 public:
  explicit CampaignScenario(std::uint64_t seed) {
    // Seeded ref assignment: which reference dataset each branch reads.
    // Every ref gets the same number of readers (give or take one) and the
    // seed shuffles them, so the staged and cached bytes, and with them the
    // peak RSS, do not depend on how a seed happens to favour some refs.
    for (int b = 0; b < kBranches; ++b) refs_.push_back(b % kRefs);
    Rng rng(seed);
    shuffle(refs_, rng);
  }

  void set_up(Spans& spans, RepResult& rep) override;
  RepResult run(Spans& spans) override;
  void probe(Spans& spans, Layers& layers,
             std::vector<std::string>& errors) override;

 private:
  flow::Campaign build() const;

  std::vector<int> refs_;
  std::unique_ptr<Bed> bed_;
  std::vector<std::vector<std::uint64_t>> sums_;  ///< per ref, per timestep
  std::unique_ptr<flow::StagingScheduler> stager_;
  std::unique_ptr<core::Fleet> fleet_;
  flow::CampaignReport report_;
  Layers counters_;
  double quotes_ = 0.0;
};

flow::Campaign CampaignScenario::build() const {
  flow::Campaign campaign("tier", kApp);
  for (int b = 0; b < kBranches; ++b) {
    const std::string id = std::to_string(b);
    const std::string ref = ref_name(refs_[static_cast<std::size_t>(b)]);
    const core::DatasetDesc frame =
        float_dataset("frame" + id, kFrameDims, Location::kRemoteDisk);

    core::Workload sim;
    sim.open(frame).dump(frame.name, 0).finalize();
    campaign.stage("sim" + id, std::move(sim));

    core::Workload mse;
    mse.open_existing(frame.name).open_existing(ref).read_whole(frame.name, 0);
    for (int t = 0; t < kRefTimesteps; ++t) mse.read_whole(ref, t);
    mse.finalize();
    campaign.stage("mse" + id, std::move(mse));

    core::Workload viz;
    viz.open_existing(ref);
    for (int t = 0; t < kRefTimesteps; ++t) viz.read_whole(ref, t);
    viz.finalize();
    campaign.stage("viz" + id, std::move(viz));
    campaign.after("viz" + id, "mse" + id);
  }
  return campaign;
}

void CampaignScenario::set_up(Spans& spans, RepResult& rep) {
  fleet_.reset();
  stager_.reset();
  bed_.reset();
  sums_.clear();
  const double cpu_start = cpu_seconds();
  {
    Spans::Scope span(spans, "setup");
    bed_ = std::make_unique<Bed>(tiered_profile());
    rep.calibrate_s = calibrate(*bed_, spans, rep.errors);
    for (int k = 0; k < kRefs; ++k) {
      sums_.push_back(seed_dataset(
          bed_->system, kApp,
          float_dataset(ref_name(k), kRefDims, Location::kRemoteTape),
          kRefTimesteps, 0xef00 + static_cast<std::uint64_t>(k), rep.errors));
    }
    bed_->system.reset_time();
    bed_->system.enable_cache(msra::cache::CacheConfig{}, &bed_->predictor);
  }
  rep.setup_s = cpu_seconds() - cpu_start;
}

RepResult CampaignScenario::run(Spans& spans) {
  RepResult rep;
  set_up(spans, rep);
  if (!rep.errors.empty()) return rep;
  const Baseline baseline = take_baseline(*bed_);

  const flow::Campaign campaign = build();
  double priced = 0.0;
  quotes_ = 0.0;
  const auto start = std::chrono::steady_clock::now();
  const double cpu_start = cpu_seconds();
  {
    Spans::Scope timed(spans, "timed");
    // Serial mover: concurrent workers would book shared devices in host
    // thread order and make virtual time run-dependent.
    flow::StagingConfig staging;
    staging.workers = 1;
    stager_ = std::make_unique<flow::StagingScheduler>(
        bed_->system, &bed_->predictor, staging);
    {
      Spans::Scope span(spans, "CampaignPricer::price");
      flow::CampaignPricer pricer(bed_->system, bed_->predictor);
      auto price = pricer.price(campaign, stager_.get());
      if (expect_ok(price.status(), "campaign pricing", rep.errors)) {
        priced = price->makespan;
        for (const flow::StagePriceRow& row : price->stages) {
          quotes_ += static_cast<double>(row.intents.size());
        }
      }
    }
    fleet_ = std::make_unique<core::Fleet>(bed_->system);
    flow::CampaignOptions options;
    options.stager = stager_.get();
    options.predictor = &bed_->predictor;
    Spans::Scope span(spans, "Fleet::submit_campaign");
    auto report = fleet_->submit_campaign(campaign, options);
    if (expect_ok(report.status(), "campaign", rep.errors)) {
      report_ = std::move(*report);
    }
  }
  rep.timed_s = seconds_since(start);
  rep.timed_cpu_s = cpu_seconds() - cpu_start;
  if (!rep.errors.empty()) return rep;

  // ---- virtual-time answers ------------------------------------------------
  // A stage is due when its last producer finished.
  std::map<std::string, const flow::StageResult*> by_name;
  for (const flow::StageResult& stage : report_.stages) {
    by_name[stage.stage] = &stage;
  }
  auto producers = campaign.producers();
  if (!expect_ok(producers.status(), "campaign producers", rep.errors)) {
    return rep;
  }
  std::vector<double> latency;
  for (std::size_t i = 0; i < campaign.stages().size(); ++i) {
    const flow::StageDecl& decl = campaign.stages()[i];
    const std::uint64_t accesses = decl.workload.intents().size();
    rep.attempted += accesses;
    const auto found = by_name.find(decl.name);
    if (found == by_name.end() || !found->second->status.ok()) {
      rep.failed += accesses;
      rep.errors.push_back("stage " + decl.name + " did not finish ok");
      continue;
    }
    rep.accesses += accesses;
    double due = 0.0;
    for (std::size_t p : (*producers)[i]) {
      due = std::max(due, by_name[campaign.stages()[p].name]->finished_at);
    }
    latency.push_back(found->second->finished_at - due);
  }
  const Quantiles q = quantiles(latency);
  rep.virt.add("virt_makespan_s", report_.makespan, "s");
  rep.virt.add("virt_p50_s", q.p50, "s");
  rep.virt.add("virt_p99_s", q.p99, "s");
  rep.virt.add("virt_p99_s.pct", q.p99_pct, "%");
  rep.virt.add("virt_latency.n", static_cast<double>(q.count), "count");
  rep.virt.add("virt_priced_makespan_s", priced, "s");
  rep.virt.add("pred_err_pct",
               100.0 * std::abs(priced - report_.makespan) / report_.makespan,
               "%");
  rep.virt.add("fail_ratio",
               static_cast<double>(rep.failed) /
                   static_cast<double>(std::max<std::uint64_t>(rep.attempted, 1)),
               "1");

  counters_ = Layers();
  read_counters(*bed_, baseline, counters_);
  counters_.set("store.bytes_written",
                static_cast<double>(kBranches) * kFrameDims[0] * kFrameDims[1] *
                    kFrameDims[2] * 4);

  // ---- output checks ---------------------------------------------------------
  for (const flow::StageOutcome& outcome : report_.staging) {
    if (!outcome.status.ok()) {
      rep.errors.push_back("staging " + outcome.task.label() + ": " +
                           outcome.status.to_string());
    }
  }
  for (int k = 0; k < kRefs; ++k) {
    verify_dataset(bed_->system, kApp, ref_name(k),
                   sums_[static_cast<std::size_t>(k)], rep.errors);
  }
  return rep;
}

void CampaignScenario::probe(Spans& spans, Layers& layers,
                     std::vector<std::string>& errors) {
  layers = counters_;
  layers.set("predict.quotes", quotes_);
  layers.set("core.workloads", static_cast<double>(fleet_->completed()));
  layers.set("flow.campaign_s",
             percentile(spans.durations_us("Fleet::submit_campaign"), 50.0) /
                 1e6);
  layers.set("flow.plan_us",
             percentile(spans.durations_us("CampaignPricer::price"), 50.0));

  // Prestage moves, and how many of the staged replicas a stage that reads
  // that ref started after the move had landed.
  const flow::Campaign campaign = build();
  std::map<std::string, double> started;
  for (const flow::StageResult& stage : report_.stages) {
    started[stage.stage] = stage.started_at;
  }
  double moves = 0.0, failed = 0.0, used = 0.0;
  for (const flow::StageOutcome& outcome : report_.staging) {
    if (outcome.task.kind != flow::StageTaskKind::kPrestage) continue;
    if (!outcome.status.ok()) {
      ++failed;
      continue;
    }
    ++moves;
    for (std::size_t i = 0; i < campaign.stages().size(); ++i) {
      bool reads = false;
      for (const flow::DatasetRef& ref : campaign.reads_of(i)) {
        reads |= ref.dataset == outcome.task.name &&
                 ref.timestep == outcome.task.timestep;
      }
      const auto stage = started.find(campaign.stages()[i].name);
      if (reads && stage != started.end() &&
          stage->second >= outcome.finished_at) {
        ++used;
        break;
      }
    }
  }
  layers.set("flow.moves", moves);
  layers.set("flow.moves_failed", failed);
  layers.set("flow.prestage_used_ratio", moves > 0 ? used / moves : 0.0);

  using msra::runtime::PlanBuilder;
  const std::uint64_t ref_bytes = kRefDims[0] * kRefDims[1] * kRefDims[2] * 4;
  const std::uint64_t frame_bytes =
      kFrameDims[0] * kFrameDims[1] * kFrameDims[2] * 4;
  ProbeInputs inputs;
  inputs.object_bytes = ref_bytes;
  inputs.shapes.push_back(
      {[ref_bytes]() -> msra::StatusOr<msra::runtime::IoPlan> {
         return PlanBuilder::object_read("tier/ref0/t0", ref_bytes);
       },
       Location::kRemoteTape});
  inputs.shapes.push_back(
      {[ref_bytes]() -> msra::StatusOr<msra::runtime::IoPlan> {
         return PlanBuilder::object_read("tier/ref0/t0", ref_bytes);
       },
       Location::kLocalDisk});
  inputs.shapes.push_back(
      {[frame_bytes]() -> msra::StatusOr<msra::runtime::IoPlan> {
         return PlanBuilder::object_write("tier/frame0/t0", frame_bytes,
                                          msra::srb::OpenMode::kOverwrite);
       },
       Location::kRemoteDisk});
  probe_common(*bed_, inputs, spans, layers, errors);
}

}  // namespace

std::unique_ptr<Scenario> make_campaign_tier(std::uint64_t seed) {
  return std::make_unique<CampaignScenario>(seed);
}

}  // namespace perfbench
