#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>
#include <utility>

namespace perfbench {

// ---- percentiles ----------------------------------------------------------

namespace {
/// 1-based nearest rank: the smallest rank with at least pct% of `n`
/// samples at or below it. The epsilon keeps 99% of 1000 at rank 990
/// despite 0.99 * 1000 rounding up in binary.
std::size_t nearest_rank(std::size_t n, double pct) {
  return static_cast<std::size_t>(
      std::ceil(pct * static_cast<double>(n) / 100.0 - 1e-9));
}
}  // namespace

double percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  std::size_t rank = nearest_rank(samples.size(), pct);
  if (rank < 1) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

namespace {
constexpr double kLadder[] = {99.0, 95.0, 90.0, 75.0, 50.0};

/// Samples strictly beyond the nearest-rank `pct` percentile of `n`.
std::size_t beyond(std::size_t n, double pct) {
  return n - std::min(n, nearest_rank(n, pct));
}
}  // namespace

Quantiles quantiles(const std::vector<double>& samples) {
  Quantiles q;
  q.count = samples.size();
  q.p50 = percentile(samples, 50.0);
  for (double pct : kLadder) {
    if (beyond(samples.size(), pct) >= 10) {
      q.p99_pct = pct;
      q.p99 = percentile(samples, pct);
      return q;
    }
  }
  q.p99 = q.p50;
  return q;
}

// ---- seeded inputs --------------------------------------------------------

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::below(std::uint64_t n) {
  return n == 0 ? 0 : next() % n;
}

std::vector<double> poisson_arrivals(std::uint64_t seed, std::size_t n,
                                     double rate) {
  Rng rng(seed);
  std::vector<double> out;
  out.reserve(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log1p(-rng.uniform()) / rate;
    out.push_back(t);
  }
  return out;
}

// ---- host-time spans ------------------------------------------------------

Spans::Spans(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Spans::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Spans::Scope::Scope(Spans& spans, const char* name) : spans_(spans), index_(-1) {
  if (!spans_.enabled_) return;
  index_ = static_cast<int>(spans_.spans_.size());
  spans_.spans_.push_back(Span{name, spans_.now_us(), 0.0, spans_.open_});
  spans_.open_ = index_;
}

Spans::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = spans_.spans_[static_cast<std::size_t>(index_)];
  span.end_us = spans_.now_us();
  spans_.open_ = span.parent;
}

int Spans::add(std::string name, double start_us, double end_us, int parent) {
  spans_.push_back(Span{std::move(name), start_us, end_us, parent});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> Spans::self_times_us() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_us, span.end_us);
    }
  }
  std::vector<double> out(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    double covered = 0.0;
    double reach = span.start_us;
    for (const auto& [start, end] : kids) {
      const double lo = std::max(start, reach);
      const double hi = std::min(end, span.end_us);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(end, span.end_us));
    }
    out[i] = span.duration_us() - covered;
  }
  return out;
}

std::vector<double> Spans::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.duration_us());
  }
  return out;
}

double Spans::self_time_us(const std::string& name) const {
  const std::vector<double> self = self_times_us();
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += self[i];
  }
  return total;
}

std::string Spans::chrome_trace_json() const {
  std::string json = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i != 0) json += ',';
    json += "{\"name\":" + quoted(span.name) +
            ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" + exact(span.start_us) +
            ",\"dur\":" + exact(span.duration_us()) +
            ",\"args\":{\"id\":" + std::to_string(i) +
            ",\"parent\":" + std::to_string(span.parent) + "}}";
  }
  json += "]}";
  return json;
}

// ---- metrics --------------------------------------------------------------

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void Metrics::add(std::string name, double value, std::string unit) {
  items_.push_back(Metric{std::move(name), value, std::move(unit)});
}

Metric* Metrics::find(const std::string& name) {
  for (Metric& metric : items_) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

std::string Metrics::json() const {
  std::string json = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i != 0) json += ", ";
    json += quoted(items_[i].name) + ": {\"value\": " + exact(items_[i].value) +
            ", \"unit\": " + quoted(items_[i].unit) + "}";
  }
  json += "}";
  return json;
}

std::string exact(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace perfbench
