// The stats batch entry points that remain must be bit-identical to the
// scalar Add loop they stand for: TimeSeries::AddAtBin run sums (how
// trace::LoadAggregator bins a same-bin run) and the weighted
// Histogram::Add (how core::Characterizer folds exact size counts into its
// histograms). Comparisons are exact (EXPECT_EQ on doubles).
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.h"
#include "stats/histogram.h"
#include "stats/time_series.h"

namespace gametrace::stats {
namespace {

// Non-decreasing times with long same-bin runs (the tick-burst pattern run
// aggregation exploits).
std::vector<double> RunHeavyTimes(std::uint64_t seed, std::size_t n) {
  sim::Rng rng(seed);
  std::vector<double> out;
  out.reserve(n);
  double t = 0.0;
  while (out.size() < n) {
    const std::uint64_t run = 1 + rng.NextBelow(40);
    for (std::uint64_t i = 0; i < run && out.size() < n; ++i) out.push_back(t);
    t += 90.0 * rng.NextDouble();
  }
  return out;
}

TEST(AddBatch, TimeSeriesIdenticalToScalar) {
  const auto times = RunHeavyTimes(11, 50000);
  TimeSeries scalar(0.0, 60.0), batched(0.0, 60.0);
  for (const double t : times) scalar.Add(t, 2.0);
  // One AddAtBin per same-bin run, runs cut short at random as a batch
  // boundary would.
  sim::Rng rng(111);
  std::size_t i = 0;
  while (i < times.size()) {
    const std::size_t bin = batched.BinIndex(times[i]);
    const std::size_t limit = i + 1 + rng.NextBelow(64);
    double sum = 0.0;
    while (i < times.size() && i < limit && batched.BinIndex(times[i]) == bin) {
      sum += 2.0;
      ++i;
    }
    batched.AddAtBin(bin, sum);
  }
  ASSERT_EQ(scalar.size(), batched.size());
  EXPECT_EQ(scalar.values(), batched.values());
}

TEST(AddBatch, HistogramTopEdgeLandsInLastBin) {
  // A weighted Add at hi - 1 lands in the last bin and one at x == hi
  // overflows, exactly as the same number of unit Adds.
  Histogram scalar(0.0, 10.0, 10), weighted(0.0, 10.0, 10);
  const std::vector<std::uint16_t> xs{10, 10, 9, 0};
  for (const std::uint16_t x : xs) scalar.Add(x);
  weighted.Add(10.0, 2);
  weighted.Add(9.0, 1);
  weighted.Add(0.0, 1);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(scalar.count(i), weighted.count(i));
  EXPECT_EQ(scalar.count(9), 1u);
  EXPECT_EQ(scalar.overflow(), weighted.overflow());
  EXPECT_EQ(weighted.overflow(), 2u);
  EXPECT_EQ(scalar.total(), weighted.total());
}

}  // namespace
}  // namespace gametrace::stats
