#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "apps/astro3d/astro3d.h"
#include "cache/cache.h"
#include "core/catalog.h"
#include "layers.h"
#include "obs/report.h"
#include "prt/comm.h"
#include "store/mem_store.h"
#include "tape/tape_library.h"

namespace perfbench {

namespace core = msra::core;
namespace runtime = msra::runtime;

namespace {

constexpr int kProbeSamples = 1000;  ///< enough for a p99 with 10 beyond

using Clock = std::chrono::steady_clock;

double micros_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

}  // namespace

// ---- the sheet ------------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& Layers::schema() {
  static const std::vector<std::pair<std::string, std::string>> kSchema = [] {
    std::vector<std::pair<std::string, std::string>> s;
    auto q = [&s](const std::string& name, const std::string& unit) {
      s.emplace_back(name + ".p50", unit);
      s.emplace_back(name + ".p99", unit);
      s.emplace_back(name + ".n", "count");
    };
    q("core.submit_us", "us");
    s.emplace_back("core.drain_s", "s");
    s.emplace_back("core.workloads", "count");
    s.emplace_back("core.us_per_workload", "us");
    s.emplace_back("core.catalog_instances", "count");
    q("core.catalog_lookup_us", "us");
    s.emplace_back("simkit.reservations", "count");
    q("simkit.reserve_us", "us");
    s.emplace_back("simkit.queue_wait_s", "s");
    s.emplace_back("simkit.util_max", "1");
    q("runtime.lower_us", "us");
    s.emplace_back("runtime.plan_ops", "count");
    q("runtime.exec_us", "us");
    s.emplace_back("predict.calibrate_s", "s");
    q("predict.price_us", "us");
    s.emplace_back("predict.quotes", "count");
    s.emplace_back("predict.predict_run_ms", "ms");
    q("qos.admit_us", "us");
    s.emplace_back("qos.accepted", "count");
    s.emplace_back("qos.rejected", "count");
    s.emplace_back("qos.interactive_wait_p99_s", "s");
    s.emplace_back("qos.deadline_misses", "count");
    s.emplace_back("flow.campaign_s", "s");
    s.emplace_back("flow.plan_us", "us");
    s.emplace_back("flow.moves", "count");
    s.emplace_back("flow.moves_failed", "count");
    s.emplace_back("flow.prestage_used_ratio", "1");
    s.emplace_back("cache.hits", "count");
    s.emplace_back("cache.misses", "count");
    s.emplace_back("cache.hit_ratio", "1");
    s.emplace_back("cache.admitted", "count");
    s.emplace_back("cache.rejected", "count");
    s.emplace_back("cache.evictions", "count");
    q("cache.lookup_us", "us");
    s.emplace_back("store.write_MBps", "MB/s");
    s.emplace_back("store.read_MBps", "MB/s");
    s.emplace_back("store.bytes_written", "bytes");
    s.emplace_back("prt.exchange_MBps", "MB/s");
    s.emplace_back("apps.step_ms", "ms");
    s.emplace_back("tape.mounts", "count");
    s.emplace_back("eq1.conn_s", "s");
    s.emplace_back("eq1.open_s", "s");
    s.emplace_back("eq1.seek_s", "s");
    s.emplace_back("eq1.rw_s", "s");
    s.emplace_back("eq1.close_s", "s");
    s.emplace_back("obs.trace_overhead_pct", "%");
    return s;
  }();
  return kSchema;
}

Layers::Layers() {
  for (const auto& [name, unit] : schema()) metrics_.add(name, 0.0, unit);
}

void Layers::set(const std::string& name, double value) {
  Metric* metric = metrics_.find(name);
  if (metric == nullptr) {
    std::fprintf(stderr, "perfbench: unlisted per-layer metric %s\n",
                 name.c_str());
    std::abort();
  }
  metric->value = value;
}

void Layers::set_quantiles(const std::string& name,
                           const std::vector<double>& samples) {
  const Quantiles q = quantiles(samples);
  set(name + ".p50", q.p50);
  set(name + ".p99", q.p99);
  set(name + ".n", static_cast<double>(q.count));
}

// ---- probes ---------------------------------------------------------------

Baseline take_baseline(Bed& bed) {
  core::StorageSystem& system = bed.system;
  Baseline b;
  for (int s = 0; s < system.cluster_size(); ++s) {
    b.mounts += static_cast<double>(
        system.site(s).tape_library().stats().mounts);
  }
  for (const auto& row : msra::obs::io_breakdown(system.metrics())) {
    b.conn += row.conn;
    b.open += row.open;
    b.seek += row.seek;
    b.rw += row.read + row.write;
    b.close += row.close;
  }
  return b;
}

void read_counters(Bed& bed, const Baseline& since, Layers& layers) {
  core::StorageSystem& system = bed.system;
  double reservations = 0.0, wait = 0.0, util = 0.0;
  for (const msra::obs::ResourceLoadRow& row : system.resource_loads()) {
    reservations += static_cast<double>(row.reservations);
    wait += row.total_wait;
    util = std::max(util, row.utilization);
  }
  layers.set("simkit.reservations", reservations);
  layers.set("simkit.queue_wait_s", wait);
  layers.set("simkit.util_max", util);

  if (const msra::cache::ReadCache* cache = system.cache()) {
    const msra::cache::CacheStats stats = cache->stats();
    layers.set("cache.hits", static_cast<double>(stats.hits));
    layers.set("cache.misses", static_cast<double>(stats.misses));
    const double lookups = static_cast<double>(stats.hits + stats.misses);
    layers.set("cache.hit_ratio",
               lookups > 0 ? static_cast<double>(stats.hits) / lookups : 0.0);
    layers.set("cache.admitted", static_cast<double>(stats.admitted));
    layers.set("cache.rejected", static_cast<double>(stats.rejected));
    layers.set("cache.evictions", static_cast<double>(stats.evictions));
  }

  const Baseline now = take_baseline(bed);
  layers.set("tape.mounts", now.mounts - since.mounts);
  layers.set("eq1.conn_s", now.conn - since.conn);
  layers.set("eq1.open_s", now.open - since.open);
  layers.set("eq1.seek_s", now.seek - since.seek);
  layers.set("eq1.rw_s", now.rw - since.rw);
  layers.set("eq1.close_s", now.close - since.close);
}

namespace {

/// kProbeSamples bookings on the busiest shared device, each ready at the
/// device's booked horizon: the booking cost at the schedule the workload
/// left behind.
void probe_reserve(Bed& bed, Layers& layers) {
  msra::simkit::Resource* busiest = nullptr;
  std::uint64_t most = 0;
  for (const auto& [name, device] : bed.system.shared_devices()) {
    if (busiest == nullptr || device->operations() > most) {
      busiest = device;
      most = device->operations();
    }
  }
  if (busiest == nullptr) return;
  double horizon = 0.0;
  for (const auto& server : busiest->server_stats()) {
    horizon = std::max(horizon, server.horizon);
  }
  std::vector<double> samples;
  samples.reserve(kProbeSamples);
  for (int i = 0; i < kProbeSamples; ++i) {
    const auto start = Clock::now();
    busiest->reserve(horizon, 1e-3);
    samples.push_back(micros_since(start));
  }
  layers.set_quantiles("simkit.reserve_us", samples);
}

void probe_catalog(Bed& bed, Layers& layers,
                   std::vector<std::string>& errors) {
  core::MetaCatalog catalog(&bed.system.metadb());
  const std::vector<core::InstanceRecord> all = catalog.all_instances();
  layers.set("core.catalog_instances", static_cast<double>(all.size()));
  if (all.empty()) return;
  std::vector<double> samples;
  samples.reserve(kProbeSamples);
  for (int i = 0; i < kProbeSamples; ++i) {
    const core::InstanceRecord& want =
        all[(static_cast<std::size_t>(i) * 7919u) % all.size()];
    const auto [app, name] = core::MetaCatalog::split_key(want.dataset_key);
    const auto start = Clock::now();
    const auto found = catalog.instance(app, name, want.timestep);
    samples.push_back(micros_since(start));
    if (!found.ok() || found->path != want.path) {
      errors.push_back("catalog lookup of " + want.dataset_key +
                       " disagrees with all_instances()");
      return;
    }
  }
  layers.set_quantiles("core.catalog_lookup_us", samples);
}

void probe_plans(Bed& bed, const ProbeInputs& inputs, Layers& layers,
                 std::vector<std::string>& errors) {
  if (inputs.shapes.empty()) return;
  std::vector<double> lower, price;
  lower.reserve(kProbeSamples);
  price.reserve(kProbeSamples);
  double plan_ops = 0.0;
  for (int i = 0; i < kProbeSamples; ++i) {
    const ProbeInputs::Shape& shape =
        inputs.shapes[static_cast<std::size_t>(i) % inputs.shapes.size()];
    auto start = Clock::now();
    auto plan = shape.lower();
    lower.push_back(micros_since(start));
    if (!expect_ok(plan.status(), "probe lowering", errors)) return;
    if (static_cast<std::size_t>(i) < inputs.shapes.size()) {
      for (const runtime::PlanStage& stage : plan->stages) {
        plan_ops += static_cast<double>(stage.ops.size());
      }
    }
    start = Clock::now();
    auto seconds = bed.predictor.price(*plan, shape.location);
    price.push_back(micros_since(start));
    if (!expect_ok(seconds.status(), "probe pricing", errors)) return;
  }
  layers.set_quantiles("runtime.lower_us", lower);
  layers.set("runtime.plan_ops", plan_ops);
  layers.set_quantiles("predict.price_us", price);

  // Execution: whole-object reads of the first catalogued instance, on its
  // primary replica, on one scratch clock.
  core::MetaCatalog catalog(&bed.system.metadb());
  const std::vector<core::InstanceRecord> all = catalog.all_instances();
  if (all.empty()) return;
  const core::InstanceRecord& target = all.front();
  runtime::StorageEndpoint& endpoint = bed.system.endpoint(target.primary());
  const runtime::IoPlan plan =
      runtime::PlanBuilder::object_read(target.path, target.bytes);
  std::vector<std::byte> out(target.bytes);
  msra::simkit::Timeline timeline;
  std::vector<double> exec;
  exec.reserve(kProbeSamples);
  for (int i = 0; i < kProbeSamples; ++i) {
    const auto start = Clock::now();
    const msra::Status status =
        runtime::PlanExecutor::execute(plan, endpoint, timeline, out, {});
    exec.push_back(micros_since(start));
    if (!expect_ok(status, "probe execution of " + target.path, errors)) {
      return;
    }
  }
  layers.set_quantiles("runtime.exec_us", exec);
}

void probe_cache(Bed& bed, Layers& layers) {
  msra::cache::ReadCache* cache = bed.system.cache();
  if (cache == nullptr) return;
  core::MetaCatalog catalog(&bed.system.metadb());
  const std::vector<core::InstanceRecord> all = catalog.all_instances();
  if (all.empty()) return;
  std::vector<double> samples;
  samples.reserve(kProbeSamples);
  for (int i = 0; i < kProbeSamples; ++i) {
    const std::string& path = all[static_cast<std::size_t>(i) % all.size()].path;
    const auto start = Clock::now();
    const auto pin = cache->lookup(path, /*credit_saved=*/false);
    samples.push_back(micros_since(start));
  }
  layers.set_quantiles("cache.lookup_us", samples);
}

void probe_store(std::uint64_t bytes, Layers& layers,
                 std::vector<std::string>& errors) {
  if (bytes == 0) return;
  const int count = static_cast<int>(
      std::clamp<std::uint64_t>((64ull << 20) / bytes, 16, kProbeSamples));
  msra::store::MemObjectStore store;
  std::vector<std::byte> payload(bytes, std::byte{0x5a});
  std::vector<std::byte> back(bytes);
  auto start = Clock::now();
  for (int i = 0; i < count; ++i) {
    const std::string name = "probe/" + std::to_string(i);
    if (!expect_ok(store.create(name, true), "store create", errors) ||
        !expect_ok(store.write(name, 0, payload), "store write", errors)) {
      return;
    }
  }
  const double write_s = micros_since(start) / 1e6;
  start = Clock::now();
  for (int i = 0; i < count; ++i) {
    if (!expect_ok(store.read("probe/" + std::to_string(i), 0, back),
                   "store read", errors)) {
      return;
    }
  }
  const double read_s = micros_since(start) / 1e6;
  const double mb = static_cast<double>(bytes) * count / 1e6;
  layers.set("store.write_MBps", write_s > 0 ? mb / write_s : 0.0);
  layers.set("store.read_MBps", read_s > 0 ? mb / read_s : 0.0);
  if (back != payload) errors.push_back("store probe read back other bytes");
}

/// One two-rank World shipping a dump's bytes rank 0 -> rank 1, 16 times.
void probe_prt(std::uint64_t bytes, Layers& layers,
               std::vector<std::string>& errors) {
  if (bytes == 0) return;
  constexpr int kMessages = 16;
  std::uint64_t received = 0;
  const auto start = Clock::now();
  msra::prt::World world(2);
  world.run([&](msra::prt::Comm& comm) {
    for (int m = 0; m < kMessages; ++m) {
      if (comm.rank() == 0) {
        comm.send(1, 0, std::vector<std::byte>(bytes, std::byte{1}));
      } else {
        received += comm.recv(0, 0).size();
      }
    }
  });
  const double seconds = micros_since(start) / 1e6;
  if (received != bytes * kMessages) {
    errors.push_back("prt exchange lost bytes");
    return;
  }
  layers.set("prt.exchange_MBps",
             static_cast<double>(received) / 1e6 / seconds);
}

/// Astro3D's per-iteration kernel on one rank's block of the 64^3, 4-rank
/// decomposition (no halo exchange).
void probe_step(Layers& layers, std::vector<std::string>& errors) {
  const std::array<std::uint64_t, 3> dims = {64, 64, 64};
  auto decomp = msra::prt::Decomposition::create(dims, 4, "BBB");
  if (!expect_ok(decomp.status(), "decomposition", errors)) return;
  msra::apps::astro3d::State state(*decomp, 0);
  state.initialize(dims);
  std::vector<double> ms;
  for (int it = 1; it <= 10; ++it) {
    const auto start = Clock::now();
    state.step(dims, it);
    ms.push_back(micros_since(start) / 1e3);
  }
  layers.set("apps.step_ms", percentile(ms, 50.0));
}

}  // namespace

void probe_common(Bed& bed, const ProbeInputs& inputs, Spans& spans,
                  Layers& layers, std::vector<std::string>& errors) {
  Spans::Scope all(spans, "probes");
  {
    Spans::Scope span(spans, "probe reserve");
    probe_reserve(bed, layers);
  }
  {
    Spans::Scope span(spans, "probe catalog");
    probe_catalog(bed, layers, errors);
  }
  {
    Spans::Scope span(spans, "probe plans");
    probe_plans(bed, inputs, layers, errors);
  }
  {
    Spans::Scope span(spans, "probe cache");
    probe_cache(bed, layers);
  }
  {
    Spans::Scope span(spans, "probe store");
    probe_store(inputs.object_bytes, layers, errors);
  }
  {
    Spans::Scope span(spans, "probe prt");
    probe_prt(inputs.object_bytes, layers, errors);
  }
  {
    Spans::Scope span(spans, "probe astro3d step");
    probe_step(layers, errors);
  }
}

}  // namespace perfbench
