#include "stats/variance_time.h"

#include <cmath>

#include <gtest/gtest.h>

#include "sim/random.h"
#include "sim/rng.h"

#include "core/check.h"

namespace gametrace::stats {
namespace {

// IID noise is the canonical short-range-dependent process: the
// variance-time slope must be -1, i.e. H = 1/2.
TEST(VarianceTime, IidNoiseHasHurstHalf) {
  sim::Rng rng(1);
  TimeSeries s(0.0, 0.01);
  for (int i = 0; i < 100000; ++i) s.Add(i * 0.01, sim::Normal(rng, 10.0, 2.0));
  const VarianceTimePlot plot = ComputeVarianceTime(s);
  const double h = plot.HurstEstimate(0.0, 1e9);
  EXPECT_NEAR(h, 0.5, 0.06);
}

// A strongly periodic series is anti-persistent at scales below its period:
// averaging across one full period kills nearly all variance, so the slope
// is steeper than -1 and H < 1/2. This is the paper's small-m regime.
TEST(VarianceTime, PeriodicSeriesIsAntiPersistentAtSmallScales) {
  TimeSeries s(0.0, 0.01);
  for (int i = 0; i < 50000; ++i) {
    // Burst every 5th bin - a 50 ms broadcast over 10 ms bins.
    s.Add(i * 0.01, (i % 5 == 0) ? 20.0 : 0.0);
  }
  const VarianceTimePlot plot = ComputeVarianceTime(s);
  const double h_small = plot.HurstEstimate(0.0, 0.05);
  EXPECT_LT(h_small, 0.35);
}

// A series with slow level shifts (map changes) keeps variance at mid
// scales: H over that band is high.
TEST(VarianceTime, LevelShiftsKeepMidScaleVariance) {
  sim::Rng rng(2);
  TimeSeries s(0.0, 0.01);
  for (int i = 0; i < 200000; ++i) {
    const double level = ((i / 30000) % 2 == 0) ? 10.0 : 2.0;  // 300 s regime shifts
    s.Add(i * 0.01, level + sim::Normal(rng, 0.0, 1.0));
  }
  const VarianceTimePlot plot = ComputeVarianceTime(s);
  const double h_mid = plot.HurstEstimate(0.05, 300.0);
  EXPECT_GT(h_mid, 0.75);
}

TEST(VarianceTime, NormalizedVarianceStartsAtOne) {
  sim::Rng rng(3);
  TimeSeries s(0.0, 1.0);
  for (int i = 0; i < 1000; ++i) s.Add(static_cast<double>(i), rng.NextDouble());
  const VarianceTimePlot plot = ComputeVarianceTime(s);
  ASSERT_FALSE(plot.points.empty());
  EXPECT_EQ(plot.points.front().m, 1u);
  EXPECT_DOUBLE_EQ(plot.points.front().normalized_variance, 1.0);
  EXPECT_DOUBLE_EQ(plot.points.front().log10_normalized_variance, 0.0);
}

TEST(VarianceTime, BlockSizesAreGeometric) {
  sim::Rng rng(4);
  TimeSeries s(0.0, 1.0);
  for (int i = 0; i < 10000; ++i) s.Add(static_cast<double>(i), rng.NextDouble());
  const VarianceTimePlot plot = ComputeVarianceTime(s, {.ratio = 2.0, .min_blocks = 8});
  for (std::size_t i = 1; i < plot.points.size(); ++i) {
    EXPECT_EQ(plot.points[i].m, plot.points[i - 1].m * 2);
  }
  // Largest block still leaves >= 8 whole blocks.
  EXPECT_GE(10000u / plot.points.back().m, 8u);
}

TEST(VarianceTime, Validation) {
  TimeSeries tiny(0.0, 1.0);
  tiny.Add(0.0, 1.0);
  EXPECT_THROW((void)ComputeVarianceTime(tiny), gametrace::ContractViolation);

  TimeSeries constant(0.0, 1.0);
  for (int i = 0; i < 100; ++i) constant.Add(static_cast<double>(i), 5.0);
  EXPECT_THROW((void)ComputeVarianceTime(constant), gametrace::ContractViolation);

  TimeSeries ok(0.0, 1.0);
  for (int i = 0; i < 100; ++i) ok.Add(static_cast<double>(i), static_cast<double>(i % 3));
  EXPECT_THROW((void)ComputeVarianceTime(ok, {.ratio = 1.0}), gametrace::ContractViolation);
}

TEST(VarianceTime, FitRegionFiltersByInterval) {
  sim::Rng rng(5);
  TimeSeries s(0.0, 0.01);
  for (int i = 0; i < 100000; ++i) s.Add(i * 0.01, sim::Normal(rng, 5.0, 1.0));
  const VarianceTimePlot plot = ComputeVarianceTime(s);
  // A region with no points throws via FitLine.
  EXPECT_THROW((void)plot.FitRegion(1e6, 1e9), gametrace::ContractViolation);
  const LineFit fit = plot.FitRegion(0.0, 1e9);
  EXPECT_EQ(fit.n, plot.points.size());
}

TEST(VarianceTime, EstimateHurstRegionsHandlesShortTraces) {
  sim::Rng rng(6);
  TimeSeries s(0.0, 0.01);
  for (int i = 0; i < 5000; ++i) s.Add(i * 0.01, sim::Normal(rng, 5.0, 1.0));  // 50 s only
  const VarianceTimePlot plot = ComputeVarianceTime(s);
  const HurstRegions regions = EstimateHurstRegions(plot);
  // No points above 30 min: falls back to the asymptotic 1/2.
  EXPECT_DOUBLE_EQ(regions.large_scale, 0.5);
  EXPECT_GT(regions.small_scale, 0.0);
}

TEST(VarianceTime, EstimateHurstRegionsHandlesSubSecondTraces) {
  // 20 bins of 10 ms: two plot points, both below the 50 ms boundary, so
  // the mid and large regions cannot be fitted.
  sim::Rng rng(7);
  TimeSeries s(0.0, 0.01);
  for (int i = 0; i < 20; ++i) s.Add(i * 0.01, sim::Normal(rng, 5.0, 1.0));
  const VarianceTimePlot plot = ComputeVarianceTime(s);
  ASSERT_EQ(plot.PointsInRegion(0.05, 1800.0), 0u);
  const HurstRegions regions = EstimateHurstRegions(plot);
  EXPECT_DOUBLE_EQ(regions.mid_scale, 0.5);
  EXPECT_DOUBLE_EQ(regions.large_scale, 0.5);
}

}  // namespace
}  // namespace gametrace::stats
