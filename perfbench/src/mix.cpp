// fleet_open and qos_classed: the dump / mse / volren tenant mix arriving
// open-loop in virtual time.
//
// fleet_open stresses the FIFO interval schedule, the growing catalog (one
// dataset per dumper) and the Fleet heap, with metrics and the system
// tracer off and nothing priced. qos_classed runs the same mix with every
// device on WFQ and a predictor-quoted admission gate in front of submit,
// so the same simkit::Resource layer runs through the discipline's replay
// and every interactive submit is priced.
#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/catalog.h"
#include "layers.h"
#include "obs/report.h"
#include "qos/admission.h"
#include "scenario.h"

namespace perfbench {
namespace {

namespace core = msra::core;
namespace qos = msra::qos;
using msra::Status;

constexpr std::array<std::uint64_t, 3> kFrameDims = {16, 16, 16};
constexpr std::array<std::uint64_t, 3> kCkptDims = {8, 8, 8};
constexpr int kFrameTimesteps = 2;
constexpr const char* kApp = "app";  ///< SessionOptions' default application
constexpr double kRate = 1.2;        ///< tenant arrivals per virtual second

constexpr int kFleetTenants = 8000;
constexpr int kQosTenants = 1500;
/// qos_classed submits the arrivals of each window, then drains the fleet,
/// so admission quotes see the backlog earlier arrivals booked.
constexpr double kQosWindow = 4.0;
constexpr double kInteractiveSlo = 120.0;
constexpr double kInteractiveDeadline = 2.0;

enum Role { kDump = 0, kMse = 1, kVolren = 2 };
const char* role_name(int role) {
  return role == kDump ? "dump" : role == kMse ? "mse" : "volren";
}

struct Tenant {
  double due = 0.0;    ///< virtual arrival time
  int role = kDump;
  std::uint64_t plane = 0;  ///< volren: which z-plane it slices
};

/// Seeded inputs: Poisson arrivals, a shuffled role order (a third of each
/// role) and the z-plane each Volren reader slices.
std::vector<Tenant> make_tenants(std::uint64_t seed, int count) {
  const std::vector<double> due = poisson_arrivals(seed, count, kRate);
  std::vector<int> roles(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) roles[static_cast<std::size_t>(i)] = i % 3;
  Rng rng(seed ^ 0x5eedf00dull);
  shuffle(roles, rng);
  std::vector<Tenant> tenants;
  for (int i = 0; i < count; ++i) {
    const std::size_t k = static_cast<std::size_t>(i);
    tenants.push_back({due[k], roles[k], rng.below(kFrameDims[2])});
  }
  return tenants;
}

core::Workload mix_workload(int index, const Tenant& tenant,
                            bool arrival_step) {
  core::Workload workload;
  workload.tagged(role_name(tenant.role));
  if (arrival_step) {
    const double due = tenant.due;
    workload.then("arrive", [due](core::TenantContext& ctx) {
      ctx.timeline().advance_to(due);
      return Status::Ok();
    });
  }
  switch (tenant.role) {
    case kDump: {
      const core::DatasetDesc desc =
          float_dataset("ckpt" + std::to_string(index), kCkptDims,
                        core::Location::kLocalDisk);
      return workload.open(desc).dump(desc.name, 0).finalize();
    }
    case kMse:
      return workload.open_existing("frame").read_whole("frame", 0).finalize();
    default: {
      const msra::prt::LocalBox plane = {{{{0, kFrameDims[0]},
                                           {0, kFrameDims[1]},
                                           {tenant.plane, tenant.plane + 1}}}};
      return workload.open_existing("frame")
          .read_box("frame", 1, plane)
          .finalize();
    }
  }
}

class MixScenario final : public Scenario {
 public:
  MixScenario(std::uint64_t seed, bool qos)
      : qos_(qos), tenants_(make_tenants(seed, qos ? kQosTenants
                                                   : kFleetTenants)) {}

  void set_up(Spans& spans, RepResult& rep) override;
  RepResult run(Spans& spans) override;
  void probe(Spans& spans, Layers& layers,
             std::vector<std::string>& errors) override;

 private:
  qos::QosConfig qos_config() const {
    qos::QosConfig config;
    config.discipline = msra::simkit::DisciplineKind::kWfq;
    config.admission = true;
    config.policy(qos::TenantClass::kInteractive).slo = kInteractiveSlo;
    config.policy(qos::TenantClass::kInteractive).deadline =
        kInteractiveDeadline;
    return config;
  }
  qos::TenantClass class_of(const Tenant& tenant) const {
    return tenant.role == kVolren ? qos::TenantClass::kInteractive
                                  : qos::TenantClass::kBatch;
  }

  const bool qos_;
  const std::vector<Tenant> tenants_;
  // State the last run left behind, for probe().
  std::unique_ptr<Bed> bed_;
  std::vector<std::uint64_t> frame_sums_;
  std::unique_ptr<qos::AdmissionController> controller_;
  std::unique_ptr<core::Fleet> fleet_;
  Layers counters_;
  std::uint64_t quotes_ = 0;
};

void MixScenario::set_up(Spans& spans, RepResult& rep) {
  fleet_.reset();
  controller_.reset();
  bed_.reset();
  const double cpu_start = cpu_seconds();
  {
    Spans::Scope span(spans, "setup");
    bed_ = std::make_unique<Bed>();
    rep.calibrate_s = calibrate(*bed_, spans, rep.errors);
    frame_sums_ = seed_dataset(
        bed_->system, kApp,
        float_dataset("frame", kFrameDims, core::Location::kRemoteDisk),
        kFrameTimesteps, 0xf4a3e, rep.errors);
    bed_->system.reset_time();
    if (qos_) {
      expect_ok(bed_->system.enable_qos(qos_config()), "enable qos",
                rep.errors);
    } else {
      // As in bench_fleet: results come from Completion records and
      // simkit accounting; per-op instruments would only burn host time.
      bed_->system.metrics().set_enabled(false);
      bed_->system.tracer().set_enabled(false);
    }
  }
  rep.setup_s = cpu_seconds() - cpu_start;
}

RepResult MixScenario::run(Spans& spans) {
  RepResult rep;
  set_up(spans, rep);
  if (!rep.errors.empty()) return rep;
  const Baseline baseline = take_baseline(*bed_);

  // ---- timed phase ---------------------------------------------------------
  std::vector<core::Completion*> done(tenants_.size(), nullptr);
  std::vector<double> quotes;  // accepted interactive admission quotes
  const auto start = std::chrono::steady_clock::now();
  const double cpu_start = cpu_seconds();
  {
    Spans::Scope timed(spans, "timed");
    fleet_ = std::make_unique<core::Fleet>(bed_->system);
    double last_quote = 0.0;
    if (qos_) {
      controller_ = std::make_unique<qos::AdmissionController>(
          bed_->system, &bed_->predictor, qos_config());
      // The hook does what AdmissionController::attach installs, inside a
      // span; the quote is read back from the histogram admit() feeds.
      msra::obs::Histogram* quote_hist =
          bed_->system.metrics().histogram("qos.admission.quote");
      fleet_->set_admission([this, &spans, &last_quote, quote_hist](
                                core::Client& client,
                                const core::Workload& workload) {
        Spans::Scope span(spans, "AdmissionController::admit");
        const double before = quote_hist->sum();
        Status status = controller_->admit(client, workload);
        last_quote = quote_hist->sum() - before;
        return status;
      });
    }
    double window_end = kQosWindow;
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      const Tenant& tenant = tenants_[i];
      if (qos_ && tenant.due >= window_end) {
        Spans::Scope span(spans, "Fleet::run_until_idle");
        fleet_->run_until_idle();
        while (tenant.due >= window_end) window_end += kQosWindow;
      }
      core::SessionOptions options;
      options.tenant_class = class_of(tenant);
      core::Client& client =
          fleet_->add_client("tenant" + std::to_string(i), options);
      if (qos_) client.timeline().advance_to(tenant.due);
      {
        Spans::Scope span(spans, "Fleet::submit");
        done[i] = client.submit(
            mix_workload(static_cast<int>(i), tenant, /*arrival_step=*/!qos_));
      }
      if (qos_ && tenant.role == kVolren && done[i]->status().ok()) {
        quotes.push_back(last_quote);
      }
    }
    Spans::Scope span(spans, "Fleet::run_until_idle");
    fleet_->run_until_idle();
  }
  rep.timed_s = seconds_since(start);
  rep.timed_cpu_s = cpu_seconds() - cpu_start;
  // The hook refers to this frame's locals; the fleet outlives them.
  fleet_->set_admission(nullptr);

  // ---- virtual-time answers --------------------------------------------------
  std::vector<double> latency, interactive;
  double makespan = 0.0;
  std::uint64_t interactive_units = 0, slo_misses = 0;
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const Tenant& tenant = tenants_[i];
    const bool is_interactive = qos_ && tenant.role == kVolren;
    ++rep.attempted;
    if (is_interactive) ++interactive_units;
    if (!done[i]->done() || !done[i]->status().ok()) {
      ++rep.failed;
      if (is_interactive) ++slo_misses;
      continue;
    }
    ++rep.accesses;
    const double late = done[i]->finished_at() - tenant.due;
    latency.push_back(late);
    makespan = std::max(makespan, done[i]->finished_at());
    if (is_interactive) {
      interactive.push_back(late);
      if (late > kInteractiveSlo) ++slo_misses;
    }
  }
  quotes_ = qos_ ? interactive_units : 0;
  const Quantiles q = quantiles(latency);
  rep.virt.add("virt_makespan_s", makespan, "s");
  rep.virt.add("virt_p50_s", q.p50, "s");
  rep.virt.add("virt_p99_s", q.p99, "s");
  rep.virt.add("virt_p99_s.pct", q.p99_pct, "%");
  rep.virt.add("virt_latency.n", static_cast<double>(q.count), "count");
  rep.virt.add("fail_ratio",
               static_cast<double>(rep.failed) / static_cast<double>(rep.attempted),
               "1");
  if (qos_) {
    const double billed = percentile(interactive, 50.0);
    const double quoted = percentile(quotes, 50.0);
    rep.virt.add("pred_err_pct",
                 billed > 0 ? 100.0 * std::abs(quoted - billed) / billed : 0.0,
                 "%");
    rep.virt.add("pred_err.quotes", static_cast<double>(quotes.size()),
                 "count");
    rep.virt.add("slo_miss_ratio",
                 interactive_units > 0
                     ? static_cast<double>(slo_misses) /
                           static_cast<double>(interactive_units)
                     : 0.0,
                 "1");
    rep.virt.add("slo_miss_ratio.n", static_cast<double>(interactive_units),
                 "count");
  }

  // ---- output checks ---------------------------------------------------------
  counters_ = Layers();
  read_counters(*bed_, baseline, counters_);
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    if (!done[i]->status().ok()) {
      rep.errors.push_back("tenant" + std::to_string(i) + " (" +
                           role_name(tenants_[i].role) +
                           "): " + done[i]->status().to_string());
      break;
    }
  }
  if (rep.failed != 0) {
    rep.errors.push_back(std::to_string(rep.failed) + " of " +
                         std::to_string(rep.attempted) + " accesses failed");
  }
  verify_dataset(bed_->system, kApp, "frame", frame_sums_, rep.errors);
  // Every dumper's checkpoint is catalogued with its full size.
  std::size_t dumps = 0, dumpers = 0;
  const std::uint64_t ckpt_bytes = kCkptDims[0] * kCkptDims[1] * kCkptDims[2] * 4;
  for (const Tenant& tenant : tenants_) dumpers += tenant.role == kDump;
  core::MetaCatalog catalog(&bed_->system.metadb());
  for (const core::InstanceRecord& record : catalog.all_instances()) {
    if (record.dataset_key.rfind(std::string(kApp) + "/ckpt", 0) == 0 &&
        record.bytes == ckpt_bytes) {
      ++dumps;
    }
  }
  if (dumps != dumpers) {
    rep.errors.push_back("catalog holds " + std::to_string(dumps) +
                         " checkpoints for " + std::to_string(dumpers) +
                         " dumpers");
  }
  counters_.set("store.bytes_written",
                static_cast<double>(dumpers * ckpt_bytes));
  return rep;
}

void MixScenario::probe(Spans& spans, Layers& layers,
                     std::vector<std::string>& errors) {
  layers = counters_;
  layers.set_quantiles("core.submit_us", spans.durations_us("Fleet::submit"));
  const double drain_us = spans.self_time_us("Fleet::run_until_idle");
  layers.set("core.drain_s", drain_us / 1e6);
  const double completed = static_cast<double>(fleet_->completed());
  layers.set("core.workloads", completed);
  layers.set("core.us_per_workload", completed > 0 ? drain_us / completed : 0);
  if (qos_) {
    layers.set_quantiles("qos.admit_us",
                         spans.durations_us("AdmissionController::admit"));
    layers.set("predict.quotes", static_cast<double>(quotes_));
    for (const msra::obs::QosClassRow& row : bed_->system.qos_breakdown()) {
      if (row.tenant != "interactive") continue;
      layers.set("qos.accepted", static_cast<double>(row.accepted));
      layers.set("qos.rejected", static_cast<double>(row.rejected));
      layers.set("qos.interactive_wait_p99_s", row.wait_p99);
      layers.set("qos.deadline_misses", static_cast<double>(row.deadline_misses));
    }
  }

  using msra::runtime::PlanBuilder;
  ProbeInputs inputs;
  const std::uint64_t frame_bytes = kFrameDims[0] * kFrameDims[1] * kFrameDims[2] * 4;
  inputs.object_bytes = frame_bytes;
  inputs.shapes.push_back(
      {[] {
         return msra::StatusOr<msra::runtime::IoPlan>(PlanBuilder::object_write(
             "app/ckpt/t0", kCkptDims[0] * kCkptDims[1] * kCkptDims[2] * 4,
             msra::srb::OpenMode::kOverwrite));
       },
       core::Location::kLocalDisk});
  inputs.shapes.push_back(
      {[frame_bytes] {
         return msra::StatusOr<msra::runtime::IoPlan>(
             PlanBuilder::object_read("app/frame/t0", frame_bytes));
       },
       core::Location::kRemoteDisk});
  inputs.shapes.push_back(
      {[] {
         msra::runtime::GlobalArraySpec spec;
         spec.dims = kFrameDims;
         spec.elem_size = 4;
         const msra::prt::LocalBox plane = {
             {{{0, kFrameDims[0]}, {0, kFrameDims[1]}, {7, 8}}}};
         return PlanBuilder::subarray_read(
             spec, plane, "app/frame/t1", msra::runtime::AccessStrategy::kSieving,
             false, kFrameDims[0] * kFrameDims[1] * 4);
       },
       core::Location::kRemoteDisk});
  probe_common(*bed_, inputs, spans, layers, errors);
}

}  // namespace

std::unique_ptr<Scenario> make_fleet_open(std::uint64_t seed) {
  return std::make_unique<MixScenario>(seed, /*qos=*/false);
}

std::unique_ptr<Scenario> make_qos_classed(std::uint64_t seed) {
  return std::make_unique<MixScenario>(seed, /*qos=*/true);
}

}  // namespace perfbench
