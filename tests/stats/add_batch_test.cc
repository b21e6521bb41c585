// Run-aggregating column kernels must be bit-identical to the scalar Add
// loop for any input split at any boundaries - the batch-split contract the
// sinks rely on (trace/capture.h). Comparisons are exact (EXPECT_EQ on
// doubles). Masked and u16 kernels are covered in add_column_test.cc.
#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.h"
#include "stats/histogram.h"
#include "stats/running_stats.h"
#include "stats/time_series.h"

namespace gametrace::stats {
namespace {

// Values with long same-bin runs (the tick-burst pattern AddColumn
// optimises), plus out-of-range stragglers.
std::vector<double> RunHeavyValues(std::uint64_t seed, std::size_t n, double lo, double hi) {
  sim::Rng rng(seed);
  std::vector<double> out;
  out.reserve(n);
  double current = lo + (hi - lo) * rng.NextDouble();
  while (out.size() < n) {
    const std::uint64_t run = 1 + rng.NextBelow(40);
    for (std::uint64_t i = 0; i < run && out.size() < n; ++i) out.push_back(current);
    const std::uint64_t move = rng.NextBelow(10);
    if (move < 7) {
      current = lo + (hi - lo) * rng.NextDouble();  // jump within range
    } else if (move == 7) {
      current = lo - 1.0 - 10.0 * rng.NextDouble();  // underflow / before start
    } else {
      current = hi + 1.0 + 10.0 * rng.NextDouble();  // overflow / past end
    }
  }
  return out;
}

// Feeds `xs` to `fn` in random contiguous chunks (including empty ones).
template <typename Fn>
void SplitRandomly(const std::vector<double>& xs, std::uint64_t seed, Fn fn) {
  sim::Rng rng(seed);
  const std::span<const double> all(xs);
  std::size_t i = 0;
  while (i < xs.size()) {
    if (rng.NextBelow(16) == 0) fn(all.subspan(i, 0));
    const std::size_t len = std::min<std::size_t>(1 + rng.NextBelow(64), xs.size() - i);
    fn(all.subspan(i, len));
    i += len;
  }
}

TEST(AddBatch, TimeSeriesIdenticalToScalar) {
  const auto times = RunHeavyValues(11, 50000, 0.0, 600.0);
  TimeSeries scalar(0.0, 60.0), batched(0.0, 60.0);
  for (const double t : times) scalar.Add(t, 2.0);
  SplitRandomly(times, 111, [&](std::span<const double> chunk) {
    batched.AddColumn(chunk, 2.0);
  });
  EXPECT_EQ(scalar.dropped_before_start(), batched.dropped_before_start());
  ASSERT_EQ(scalar.size(), batched.size());
  EXPECT_EQ(scalar.values(), batched.values());
}

TEST(AddBatch, TimeSeriesCountsDropsBeforeStart) {
  TimeSeries ts(100.0, 10.0);
  const std::vector<double> times{50.0, 99.9, 100.0, 105.0, 250.0};
  ts.AddColumn(times);
  EXPECT_EQ(ts.dropped_before_start(), 2u);
  EXPECT_EQ(ts.Sum(), 3.0);
}

TEST(AddBatch, HistogramTopEdgeLandsInLastBin) {
  // hi - 1 lands in the last bin and x == hi overflows, in the column kernel
  // exactly as in scalar Add.
  Histogram scalar(0.0, 10.0, 10), columnar(0.0, 10.0, 10);
  const std::vector<std::uint16_t> xs{10, 10, 9, 0};
  for (const std::uint16_t x : xs) scalar.Add(x);
  columnar.AddColumn(xs);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(scalar.count(i), columnar.count(i));
  EXPECT_EQ(scalar.count(9), 1u);
  EXPECT_EQ(scalar.overflow(), columnar.overflow());
  EXPECT_EQ(columnar.overflow(), 2u);
}

TEST(AddBatch, EmptyBatchIsNoOp) {
  TimeSeries ts(0.0, 1.0);
  Histogram h(0.0, 1.0, 4);
  RunningStats rs;
  ts.AddColumn(std::span<const double>{});
  h.AddColumn(std::span<const std::uint16_t>{});
  rs.AddColumnU16(std::span<const std::uint16_t>{});
  EXPECT_TRUE(ts.empty());
  EXPECT_EQ(h.total(), 0u);
  EXPECT_TRUE(rs.empty());
}

}  // namespace
}  // namespace gametrace::stats
