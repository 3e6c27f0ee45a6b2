// msra_perfbench: runs one benchmark workload against the in-memory testbed
// and prints its metrics.
//
//   msra_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 repeats the workload (fresh testbed each time) until S host
// seconds are used, at least four times, then sets up alone ten more times,
// and reports the end-to-end metrics: the median access throughput over the
// repetitions after the first (a warm-up), the median of the set-up-alone
// times, and the process's peak RSS. Both times are the process's CPU
// seconds (all threads), which leave out the time it waits for a CPU on a
// shared host. The virtual-time answers must be identical in every
// repetition.
//
// --trace 1 runs the workload twice untraced (a warm-up, then the reference)
// and once with host-time spans around the benchmark's calls into the
// system, checks that all three give the same virtual-time answers, runs the
// end-state probes and reports the per-layer metrics. The spans are written to
// .bench_out/trace-NAME-N.json, under the working directory, as Chrome
// trace-event JSON (open it in Perfetto).
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. Any failed output check makes correct
// false and the exit code 1.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "layers.h"
#include "scenario.h"

namespace perfbench {
namespace {

/// The first repetition warms caches and the allocator: it is checked but
/// left out of the medians, which need at least kMinReps more.
constexpr std::size_t kWarmup = 1;
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMaxReps = 200;
/// A repetition sets up once, right after tearing down the last one's
/// timed-phase state, which makes its set-up time vary. setup_s is instead
/// the median of this many calls of set_up() alone after the repetitions.
constexpr std::size_t kSetupSamples = 10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

/// Records an error for every virtual-time answer of `b` that is not
/// byte-equal to `a`'s, and for every answer of either that is not finite.
void compare_virt(const Metrics& a, const Metrics& b, const std::string& what,
                  std::vector<std::string>& errors) {
  if (a.items().size() != b.items().size()) {
    errors.push_back(what + ": virtual-time answers have different shapes");
    return;
  }
  for (std::size_t i = 0; i < a.items().size(); ++i) {
    const Metric& x = a.items()[i];
    const Metric& y = b.items()[i];
    if (!std::isfinite(x.value) || !std::isfinite(y.value)) {
      errors.push_back(what + ": " + x.name + " is not finite");
    } else if (x.name != y.name || exact(x.value) != exact(y.value)) {
      errors.push_back(what + ": " + x.name + " " + exact(x.value) + " vs " +
                       exact(y.value));
    }
  }
}

void print_metrics(const char* title, const Metrics& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics.items()) {
    std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int finish(const Metrics& metrics, std::uint64_t attempted,
           std::uint64_t failed, const std::vector<std::string>& errors) {
  for (const std::string& error : errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }
  for (const Metric& m : metrics.items()) {
    if (!valid_metric_name(m.name)) {
      std::fprintf(stderr, "bad metric name %s\n", m.name.c_str());
      return 2;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.json().c_str());
  std::fflush(stdout);
  return errors.empty() ? 0 : 1;
}

int run_untraced(Scenario& scenario, const Args& args) {
  Spans off(false);
  std::vector<RepResult> reps;
  std::vector<std::string> errors;
  const auto start = std::chrono::steady_clock::now();
  while (reps.size() < kMaxReps) {
    reps.push_back(scenario.run(off));
    const RepResult& rep = reps.back();
    for (const std::string& e : rep.errors) {
      errors.push_back("rep " + std::to_string(reps.size()) + ": " + e);
    }
    if (reps.size() > 1) {
      compare_virt(reps.front().virt, rep.virt,
                   "rep " + std::to_string(reps.size()) + " vs rep 1", errors);
    }
    if (!errors.empty()) break;
    const double used = seconds_since(start);
    const double per_rep = used / static_cast<double>(reps.size());
    const double set_ups = static_cast<double>(kSetupSamples) * rep.setup_s;
    if (reps.size() >= kWarmup + kMinReps &&
        used + per_rep + set_ups > args.seconds) {
      break;
    }
  }

  std::vector<double> setup, ops;
  while (errors.empty() && setup.size() < kSetupSamples) {
    RepResult alone;
    scenario.set_up(off, alone);
    for (const std::string& e : alone.errors) errors.push_back("set-up: " + e);
    setup.push_back(alone.setup_s);
  }
  std::uint64_t attempted = 0, failed = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const RepResult& rep = reps[i];
    const double rate = static_cast<double>(rep.accesses) / rep.timed_cpu_s;
    std::printf("rep %zu%s: setup %.4f cpu-s  timed %.4f s wall, %.4f cpu-s"
                "  %.1f op/cpu-s\n",
                i + 1, i < kWarmup ? " (warm-up)" : "", rep.setup_s,
                rep.timed_s, rep.timed_cpu_s, rate);
    attempted += rep.attempted;
    failed += rep.failed;
    if (i < kWarmup && reps.size() > kWarmup) continue;
    ops.push_back(rate);
  }
  Metrics metrics;
  metrics.add("setup_s", percentile(setup, 50.0), "s");
  metrics.add("ops_per_s", percentile(ops, 50.0), "op/s");
  metrics.add("peak_rss_mb", peak_rss_mib(), "MiB");

  std::printf("workload %s  seed %llu  repetitions %zu  host seconds %.2f\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), reps.size(),
              seconds_since(start));
  std::printf("set-up alone: %zu samples, %.4f .. %.4f s\n", setup.size(),
              percentile(setup, 0.0), percentile(setup, 100.0));
  print_metrics("end-to-end (host clock, medians):", metrics);
  print_metrics("end-to-end (virtual clock, identical in every repetition):",
                reps.front().virt);
  return finish(metrics, attempted, failed, errors);
}

int run_traced(Scenario& scenario, const Args& args) {
  Spans off(false);
  const RepResult warmup = scenario.run(off);
  const RepResult plain = scenario.run(off);
  Spans on(true);
  const RepResult traced = scenario.run(on);
  std::vector<std::string> errors = warmup.errors;
  errors.insert(errors.end(), plain.errors.begin(), plain.errors.end());
  errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
  compare_virt(warmup.virt, plain.virt, "repeated run", errors);
  compare_virt(plain.virt, traced.virt, "traced vs untraced", errors);

  Layers layers;
  scenario.probe(on, layers, errors);
  layers.set("predict.calibrate_s", traced.calibrate_s);
  layers.set("obs.trace_overhead_pct",
             100.0 * (traced.timed_s - plain.timed_s) / plain.timed_s);

  const std::string span_file = ".bench_out/trace-" + args.workload + "-" +
                                std::to_string(args.seed) + ".json";
  std::error_code made;
  std::filesystem::create_directories(".bench_out", made);
  std::ofstream out(span_file);
  out << on.chrome_trace_json() << '\n';
  out.close();
  if (made || !out) errors.push_back("cannot write span file " + span_file);
  std::printf("workload %s  seed %llu  traced run\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed));
  print_metrics("per-layer:", layers.metrics());
  print_metrics("virtual clock (traced run, equal to the untraced run):",
                traced.virt);
  std::printf("span file: %s (%zu spans)\n", span_file.c_str(),
              on.spans().size());
  return finish(layers.metrics(),
                warmup.attempted + plain.attempted + traced.attempted,
                warmup.failed + plain.failed + traced.failed, errors);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // One malloc arena: otherwise peak RSS depends on which arena each prt
  // rank or stager thread happens to pick up, and varies run to run.
  mallopt(M_ARENA_MAX, 1);
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: msra_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  auto scenario = perfbench::make_scenario(args.workload, args.seed);
  if (scenario == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  return args.trace ? perfbench::run_traced(*scenario, args)
                    : perfbench::run_untraced(*scenario, args);
}
