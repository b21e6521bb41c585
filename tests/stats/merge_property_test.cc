// Property tests for the mergeable accumulators: Merge(A, B) must equal a
// single pass over the concatenated streams, for arbitrary split points.
// This is the correctness foundation of the sharded fleet engine.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "sim/rng.h"
#include "stats/histogram.h"
#include "stats/running_stats.h"
#include "stats/time_series.h"

#include "core/check.h"

namespace gametrace::stats {
namespace {

std::vector<double> RandomStream(std::uint64_t seed, std::size_t n, double scale) {
  sim::Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) x = scale * rng.NextDouble();
  return xs;
}

TEST(MergeProperty, RunningStatsEqualsSinglePass) {
  sim::Rng split_rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto xs = RandomStream(100 + static_cast<std::uint64_t>(trial), 400, 250.0);
    const std::size_t cut = split_rng.NextBelow(xs.size() + 1);

    RunningStats whole;
    for (double x : xs) whole.Add(x);
    RunningStats left;
    RunningStats right;
    for (std::size_t i = 0; i < xs.size(); ++i) (i < cut ? left : right).Add(xs[i]);
    left.Merge(right);

    EXPECT_EQ(left.count(), whole.count());
    EXPECT_DOUBLE_EQ(left.min(), whole.min());
    EXPECT_DOUBLE_EQ(left.max(), whole.max());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-9 * (1.0 + std::abs(whole.mean())));
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-7 * (1.0 + whole.variance()));
  }
}

TEST(MergeProperty, RunningStatsPairwiseTreeReduction) {
  // Merge must also compose: reducing 8 shards pairwise equals one pass.
  const auto xs = RandomStream(42, 800, 100.0);
  RunningStats whole;
  for (double x : xs) whole.Add(x);

  std::vector<RunningStats> shards(8);
  for (std::size_t i = 0; i < xs.size(); ++i) shards[i % 8].Add(xs[i]);
  while (shards.size() > 1) {
    std::vector<RunningStats> next;
    for (std::size_t i = 0; i + 1 < shards.size(); i += 2) {
      shards[i].Merge(shards[i + 1]);
      next.push_back(shards[i]);
    }
    if (shards.size() % 2 == 1) next.push_back(shards.back());
    shards = std::move(next);
  }
  EXPECT_EQ(shards[0].count(), whole.count());
  EXPECT_NEAR(shards[0].mean(), whole.mean(), 1e-9 * (1.0 + std::abs(whole.mean())));
  EXPECT_NEAR(shards[0].variance(), whole.variance(), 1e-7 * (1.0 + whole.variance()));
}

TEST(MergeProperty, HistogramEqualsSinglePassExactly) {
  for (int trial = 0; trial < 10; ++trial) {
    const auto xs = RandomStream(900 + static_cast<std::uint64_t>(trial), 500, 600.0);
    const std::size_t cut = 37 * static_cast<std::size_t>(trial) % (xs.size() + 1);

    Histogram whole(0.0, 500.0, 50);
    Histogram left(0.0, 500.0, 50);
    Histogram right(0.0, 500.0, 50);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      whole.Add(xs[i]);
      (i < cut ? left : right).Add(xs[i]);
    }
    left.Merge(right);

    EXPECT_EQ(left.total(), whole.total());
    EXPECT_EQ(left.underflow(), whole.underflow());
    EXPECT_EQ(left.overflow(), whole.overflow());
    for (std::size_t b = 0; b < whole.bin_count(); ++b) {
      EXPECT_EQ(left.count(b), whole.count(b)) << "bin " << b;
    }
  }
}

TEST(MergeProperty, TimeSeriesEqualsSinglePass) {
  sim::Rng rng(5);
  TimeSeries whole(0.0, 0.5);
  TimeSeries a(0.0, 0.5);
  TimeSeries b(0.0, 0.5);
  for (int i = 0; i < 2000; ++i) {
    const double t = 120.0 * rng.NextDouble() - 1.0;  // some land before start
    // Integer weights keep per-bin sums exact under any addition order.
    const double v = static_cast<double>(1 + rng.NextBelow(9));
    whole.Add(t, v);
    ((i % 3 == 0) ? a : b).Add(t, v);
  }
  a.Merge(b);
  ASSERT_EQ(a.size(), whole.size());
  for (std::size_t i = 0; i < whole.size(); ++i) EXPECT_DOUBLE_EQ(a[i], whole[i]);
  EXPECT_EQ(a.dropped_before_start(), whole.dropped_before_start());
}

TEST(MergeProperty, TimeSeriesMergeRejectsGeometryMismatch) {
  TimeSeries a(0.0, 1.0);
  TimeSeries interval(0.0, 2.0);
  TimeSeries start(1.0, 1.0);
  EXPECT_THROW(a.Merge(interval), gametrace::ContractViolation);
  EXPECT_THROW(a.Merge(start), gametrace::ContractViolation);
}

TEST(MergeProperty, TimeSeriesMergeExtendsToLongerSeries) {
  TimeSeries a(0.0, 1.0);
  TimeSeries b(0.0, 1.0);
  a.Add(0.5, 1.0);
  b.Add(9.5, 2.0);
  a.Merge(b);
  ASSERT_EQ(a.size(), 10u);
  EXPECT_DOUBLE_EQ(a[0], 1.0);
  EXPECT_DOUBLE_EQ(a[9], 2.0);
}

}  // namespace
}  // namespace gametrace::stats
