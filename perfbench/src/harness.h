// Harness logic that is independent of the MSRA system: the percentile
// rule, seeded inputs, host-time spans and the metric record the benchmark
// prints. Everything here is unit-tested in tests/harness_test.cpp.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// ---- percentiles ----------------------------------------------------------

/// Nearest-rank percentile (`pct` in [0, 100]) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double pct);

/// The `.p50`/`.p99` pair every timing is reported as. The tail follows the
/// rule "the highest percentile with at least ten samples beyond it": it is
/// the highest rung of (99, 95, 90, 75, 50) that leaves ten samples beyond
/// it, and `p99_pct` names that rung. With fewer than 20 samples no rung
/// qualifies: `p99_pct` is 0 and `p99` repeats the median.
struct Quantiles {
  double p50 = 0.0;
  double p99 = 0.0;
  double p99_pct = 0.0;
  std::size_t count = 0;
};
Quantiles quantiles(const std::vector<double>& samples);

// ---- seeded inputs --------------------------------------------------------

/// Deterministic 64-bit generator (SplitMix64): the same seed gives the same
/// stream on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// `n` arrival times of a Poisson process with `rate` arrivals per (virtual)
/// second, starting after one exponential gap from 0.
std::vector<double> poisson_arrivals(std::uint64_t seed, std::size_t n,
                                     double rate);

/// Fisher-Yates shuffle driven by `rng`.
template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.below(i));
    std::swap(items[i - 1], items[j]);
  }
}

// ---- host-time spans ------------------------------------------------------

/// In-memory span recorder for the traced run. Spans nest on one host
/// thread: a span's parent is the innermost span open when it began. When
/// disabled, opening a span reads no clock and records nothing.
class Spans {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;  ///< host microseconds since the recorder began
    double end_us = 0.0;
    int parent = -1;  ///< index into spans(), -1 for a root span
    double duration_us() const { return end_us - start_us; }
  };

  /// RAII span: ends when destroyed.
  class Scope {
   public:
    Scope(Spans& spans, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int index_;
  };

  explicit Spans(bool enabled = false);

  const std::vector<Span>& spans() const { return spans_; }

  /// Adds a finished span (tests build trees with this).
  int add(std::string name, double start_us, double end_us, int parent);

  /// Each span's duration minus the part of it its children cover.
  std::vector<double> self_times_us() const;

  /// Durations (us) of every span called `name`.
  std::vector<double> durations_us(const std::string& name) const;
  /// Summed self time (us) of every span called `name`.
  double self_time_us(const std::string& name) const;

  /// Chrome trace-event JSON ("X" complete events), loadable in Perfetto.
  std::string chrome_trace_json() const;

 private:
  double now_us() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;  ///< innermost open span
};

// ---- metrics --------------------------------------------------------------

/// Metric names match [A-Za-z0-9_.-]+ and start with a letter or digit.
bool valid_metric_name(const std::string& name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// An ordered set of named metrics with units.
class Metrics {
 public:
  void add(std::string name, double value, std::string unit);
  const std::vector<Metric>& items() const { return items_; }
  /// The metric called `name`, or null.
  Metric* find(const std::string& name);
  /// {"name": {"value": v, "unit": "u"}, ...} with every digit kept.
  std::string json() const;

 private:
  std::vector<Metric> items_;
};

/// A double printed with every digit needed to read it back exactly; JSON
/// `null` for NaN and infinities, so a reader expecting a number rejects it.
std::string exact(double value);

/// JSON string literal (quotes and backslashes escaped).
std::string quoted(const std::string& text);

/// Peak resident set (VmHWM) of this process in MiB; 0 if unreadable.
double peak_rss_mib();

/// Host seconds since `start`.
double seconds_since(std::chrono::steady_clock::time_point start);

/// CPU seconds this process has used so far, summed over all its threads.
/// Time spent waiting for a CPU (run queue, hypervisor steal) is not in it,
/// so it measures the program rather than its neighbours on a shared host.
double cpu_seconds();

}  // namespace perfbench
