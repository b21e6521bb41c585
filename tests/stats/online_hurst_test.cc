// OnlineHurst: the streaming variance-time estimator must agree with the
// batch estimator on identical input (the doubling block sizes, same
// alignment), and its pooled merge must match single-pass statistics over
// the same block-mean population.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/rng.h"
#include "stats/online_hurst.h"
#include "stats/running_stats.h"
#include "stats/time_series.h"
#include "stats/variance_time.h"

#include "core/check.h"

namespace gametrace::stats {
namespace {

// A bursty, positively-correlated load series (AR(1)-style), integer-valued
// so block sums are exact in double arithmetic.
std::vector<double> BurstyCounts(std::uint64_t seed, std::size_t n) {
  sim::Rng rng(seed);
  std::vector<double> xs(n);
  double level = 20.0;
  for (auto& x : xs) {
    level = 0.9 * level + 2.0 * rng.NextDouble();
    x = std::floor(level + 10.0 * rng.NextDouble());
  }
  return xs;
}

TEST(OnlineHurst, MatchesTheBatchEstimatorOnIdenticalInput) {
  const std::size_t n = 4096;
  const auto xs = BurstyCounts(31, n);

  TimeSeries series(0.0, 0.050);
  for (std::size_t i = 0; i < n; ++i) {
    series.Add(0.050 * static_cast<double>(i) + 0.001, xs[i]);
  }
  // ratio 2 sweeps m = 1, 2, 4, ... - the online estimator's scales.
  const VarianceTimePlot batch = ComputeVarianceTime(series, {.ratio = 2.0});

  OnlineHurst online({.base_interval = 0.050});
  for (double x : xs) online.Push(x);
  const VarianceTimePlot streamed = online.EstimatePlot();

  ASSERT_EQ(streamed.points.size(), batch.points.size());
  for (std::size_t i = 0; i < batch.points.size(); ++i) {
    EXPECT_EQ(streamed.points[i].m, batch.points[i].m);
    EXPECT_NEAR(streamed.points[i].normalized_variance, batch.points[i].normalized_variance,
                1e-9 * (1.0 + batch.points[i].normalized_variance))
        << "scale m = " << batch.points[i].m;
  }

  const double lo = 0.050;
  const double hi = 0.050 * static_cast<double>(batch.points.back().m);
  ASSERT_TRUE(online.CanEstimate(lo, hi));
  EXPECT_NEAR(online.HurstEstimate(lo, hi), batch.HurstEstimate(lo, hi), 1e-6);
}

TEST(OnlineHurst, WhiteNoiseReadsAsShortRangeDependence) {
  sim::Rng rng(41);
  OnlineHurst online({.base_interval = 0.050, .num_scales = 10});
  for (int i = 0; i < 1 << 15; ++i) online.Push(std::floor(100.0 * rng.NextDouble()));
  const double h = online.HurstEstimate(0.050, 0.050 * 512.0);
  EXPECT_NEAR(h, 0.5, 0.1);  // i.i.d. load has H = 1/2
}

TEST(OnlineHurst, MergePoolsBlockMeansAcrossLockstepShards) {
  // Two shards advancing the same grid: the merged per-scale statistics
  // must equal single-pass statistics over the concatenated block-mean
  // population (Chan's combination is exact for count/mean and stable for
  // variance).
  const std::size_t n = 1024;
  const auto a = BurstyCounts(43, n);
  const auto b = BurstyCounts(47, n);

  OnlineHurst ha({.base_interval = 0.050, .num_scales = 6});
  OnlineHurst hb({.base_interval = 0.050, .num_scales = 6});
  for (double x : a) ha.Push(x);
  for (double x : b) hb.Push(x);
  ha.Merge(hb);
  EXPECT_EQ(ha.samples(), 2 * n);

  // Reference: pool the block means of scale m = 32 by hand.
  RunningStats pooled;
  const std::size_t m = 32;
  for (const auto* xs : {&a, &b}) {
    for (std::size_t start = 0; start + m <= xs->size(); start += m) {
      double sum = 0.0;
      for (std::size_t i = 0; i < m; ++i) sum += (*xs)[i + start];
      pooled.Add(sum / static_cast<double>(m));
    }
  }

  const VarianceTimePlot plot = ha.EstimatePlot();
  const auto point = std::find_if(plot.points.begin(), plot.points.end(),
                                  [](const VariancePoint& p) { return p.m == 32; });
  ASSERT_NE(point, plot.points.end());
  const double base_variance = plot.base_variance;
  ASSERT_GT(base_variance, 0.0);
  EXPECT_NEAR(point->normalized_variance, pooled.population_variance() / base_variance,
              1e-9 * (1.0 + point->normalized_variance));
}

TEST(OnlineHurst, MergeRejectsMismatchedSchedules) {
  OnlineHurst a({.base_interval = 0.050, .num_scales = 6});
  OnlineHurst b({.base_interval = 0.050, .num_scales = 8});
  EXPECT_FALSE(a.SameShape(b));
  EXPECT_THROW(a.Merge(b), gametrace::ContractViolation);
}

TEST(OnlineHurst, InsufficientDataFallsBackToHalf) {
  OnlineHurst online({.base_interval = 0.050, .num_scales = 16});
  for (int i = 0; i < 4; ++i) online.Push(1.0);
  EXPECT_FALSE(online.CanEstimate(0.050, 1800.0));
  EXPECT_EQ(online.HurstEstimate(0.050, 1800.0), 0.5);
}

TEST(OnlineHurst, MemoryIsIndependentOfStreamLength) {
  OnlineHurst online({.base_interval = 0.050, .num_scales = 16});
  for (int i = 0; i < 100; ++i) online.Push(static_cast<double>(i % 7));
  const std::size_t early = online.MemoryBytes();
  for (int i = 0; i < 1 << 18; ++i) online.Push(static_cast<double>(i % 11));
  EXPECT_EQ(online.MemoryBytes(), early);
}

}  // namespace
}  // namespace gametrace::stats
