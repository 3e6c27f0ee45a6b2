// Tests of the benchmark harness's own logic.
#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileTest, NearestRank) {
  const std::vector<double> v = one_to(100);
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 99.0), 99.0);
  EXPECT_EQ(percentile(v, 100.0), 100.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
}

TEST(PercentileTest, TailNeedsTenSamplesBeyond) {
  // 1000 samples: p99 leaves exactly 10 beyond.
  Quantiles q = quantiles(one_to(1000));
  EXPECT_EQ(q.p99_pct, 99.0);
  EXPECT_EQ(q.p99, 990.0);
  EXPECT_EQ(q.p50, 500.0);
  EXPECT_EQ(q.count, 1000u);
  // 999 samples: p99 leaves 9 beyond, so the rule steps down to p95.
  q = quantiles(one_to(999));
  EXPECT_EQ(q.p99_pct, 95.0);
  EXPECT_EQ(q.p99, 950.0);
  // 200 samples: p95 leaves exactly 10 beyond.
  EXPECT_EQ(quantiles(one_to(200)).p99_pct, 95.0);
  // 40 samples: p75 leaves 10 beyond.
  EXPECT_EQ(quantiles(one_to(40)).p99_pct, 75.0);
  // Fewer than 20 samples: no rung qualifies; the median stands in.
  q = quantiles(one_to(19));
  EXPECT_EQ(q.p99_pct, 0.0);
  EXPECT_EQ(q.p99, 10.0);
  EXPECT_EQ(q.count, 19u);
  // The tail is capped at p99 however many samples there are.
  q = quantiles(one_to(10000));
  EXPECT_EQ(q.p99_pct, 99.0);
  EXPECT_EQ(q.p99, 9900.0);
  EXPECT_EQ(quantiles({}).count, 0u);
}

TEST(ArrivalsTest, SeededPoissonRepeatsExactly) {
  const std::vector<double> a = poisson_arrivals(42, 5000, 1.2);
  const std::vector<double> b = poisson_arrivals(42, 5000, 1.2);
  ASSERT_EQ(a.size(), 5000u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, poisson_arrivals(43, 5000, 1.2));
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  // Mean gap within 5% of 1 / rate.
  EXPECT_NEAR(a.back() / 5000.0, 1.0 / 1.2, 0.05 / 1.2);
}

TEST(ArrivalsTest, ShuffleIsSeeded) {
  std::vector<int> a(100), b(100);
  std::iota(a.begin(), a.end(), 0);
  std::iota(b.begin(), b.end(), 0);
  Rng ra(7), rb(7);
  shuffle(a, ra);
  shuffle(b, rb);
  EXPECT_EQ(a, b);
  std::vector<int> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted[0], 0);
  EXPECT_EQ(sorted[99], 99);
}

TEST(MetricNameTest, Charset) {
  EXPECT_TRUE(valid_metric_name("setup_s"));
  EXPECT_TRUE(valid_metric_name("core.submit_us.p99"));
  EXPECT_TRUE(valid_metric_name("store.write_MBps"));
  EXPECT_TRUE(valid_metric_name("9lives-x"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("a b"));
  EXPECT_FALSE(valid_metric_name("ops/s"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(MetricsTest, JsonKeepsEveryDigit) {
  Metrics m;
  m.add("x", 0.1 + 0.2, "s");
  EXPECT_EQ(m.json(),
            "{\"x\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}}");
}

TEST(MetricsTest, NonFiniteIsNullNotZero) {
  EXPECT_EQ(exact(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(exact(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(exact(0.0), "0");
}

TEST(SpansTest, SelfTimeSubtractsChildren) {
  Spans spans;
  const int root = spans.add("root", 0.0, 100.0, -1);
  spans.add("a", 10.0, 30.0, root);
  const int b = spans.add("b", 40.0, 70.0, root);
  spans.add("c", 50.0, 60.0, b);
  const std::vector<double> self = spans.self_times_us();
  EXPECT_DOUBLE_EQ(self[0], 50.0);  // 100 - 20 - 30
  EXPECT_DOUBLE_EQ(self[1], 20.0);
  EXPECT_DOUBLE_EQ(self[2], 20.0);  // 30 - 10
  EXPECT_DOUBLE_EQ(self[3], 10.0);
  EXPECT_DOUBLE_EQ(spans.self_time_us("b"), 20.0);
}

TEST(SpansTest, OverlappingChildrenCountOnce) {
  Spans spans;
  const int root = spans.add("root", 0.0, 100.0, -1);
  spans.add("a", 10.0, 50.0, root);
  spans.add("b", 40.0, 60.0, root);
  spans.add("c", 90.0, 120.0, root);  // clipped to the parent's end
  EXPECT_DOUBLE_EQ(spans.self_times_us()[0], 40.0);  // 100 - 50 - 10
}

TEST(SpansTest, ScopesNestAndDisabledRecordsNothing) {
  Spans on(true);
  {
    Spans::Scope outer(on, "outer");
    Spans::Scope inner(on, "inner");
  }
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_EQ(on.spans()[0].parent, -1);
  EXPECT_EQ(on.spans()[1].parent, 0);
  EXPECT_GE(on.spans()[0].duration_us(), on.spans()[1].duration_us());
  EXPECT_NE(on.chrome_trace_json().find("\"ph\":\"X\""), std::string::npos);

  Spans off(false);
  { Spans::Scope scope(off, "x"); }
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace perfbench
