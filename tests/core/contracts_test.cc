// Contract-violation coverage for the invariants introduced with the
// GT_CHECK migration: each test drives a subsystem into a state its
// contract forbids and expects the ThrowingContractHandler to surface it.
//
// Environmental errors (corrupt pcap/trace files) are NOT contracts and are
// covered by the PcapError/TraceError tests in tests/net and tests/trace.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/check.h"
#include "router/fifo_queue.h"
#include "sim/event_queue.h"
#include "stats/histogram.h"
#include "stats/linear_regression.h"
#include "stats/time_series.h"
#include "game/client.h"
#include "game/config.h"

namespace gametrace {
namespace {

TEST(Contracts, TimeSeriesBinIndexOutOfRange) {
  stats::TimeSeries s(0.0, 1.0);
  s.Add(0.5);
  EXPECT_NO_THROW((void)s[0]);
  EXPECT_THROW((void)s[1], ContractViolation);
  EXPECT_THROW((void)s[100], ContractViolation);
}

TEST(Contracts, HistogramCountOutOfRange) {
  stats::Histogram h(0.0, 10.0, 5);
  EXPECT_NO_THROW((void)h.count(4));
  EXPECT_THROW((void)h.count(5), ContractViolation);
}

TEST(Contracts, HistogramBinGeometryOutOfRange) {
  stats::Histogram h(0.0, 10.0, 5);
  EXPECT_THROW((void)h.bin_center(5), ContractViolation);
  EXPECT_THROW((void)h.bin_left(5), ContractViolation);
}

TEST(Contracts, HistogramRejectsNonFiniteBounds) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(stats::Histogram(0.0, inf, 4), ContractViolation);
  EXPECT_THROW(stats::Histogram(-inf, 0.0, 4), ContractViolation);
  EXPECT_THROW(stats::Histogram(nan, 1.0, 4), ContractViolation);
}

TEST(Contracts, HistogramMergeRequiresIdenticalGeometry) {
  stats::Histogram a(0.0, 10.0, 5);
  stats::Histogram b(0.0, 10.0, 6);
  EXPECT_THROW(a.Merge(b), ContractViolation);
}

TEST(Contracts, ShardIpShiftRejectsIdBeyondNamespace) {
  const std::size_t population = game::SessionConfig{}.population;
  const auto last = static_cast<std::uint32_t>(game::MaxDisjointServers(population) - 1);
  EXPECT_NO_THROW((void)game::ShardIpShift(last, population));
  EXPECT_THROW((void)game::ShardIpShift(last + 1, population), ContractViolation);
}

TEST(Contracts, EventQueueEmptyAccess) {
  sim::EventQueue q;
  EXPECT_THROW((void)q.NextTime(), ContractViolation);
  EXPECT_THROW((void)q.RunNext(), ContractViolation);
  EXPECT_THROW((void)q.Pop(), ContractViolation);
}

TEST(Contracts, EventQueuePopRefusesPeriodicEvents) {
  sim::EventQueue q;
  q.SchedulePeriodic(1.0, 2.0, [](sim::SimTime) {});
  EXPECT_THROW((void)q.Pop(), ContractViolation);
}

TEST(Contracts, EventQueueRejectsEmptyHandler) {
  sim::EventQueue q;
  EXPECT_THROW(q.Schedule(1.0, sim::EventQueue::Handler{}), ContractViolation);
  EXPECT_THROW(q.SchedulePeriodic(1.0, 1.0, sim::EventQueue::Handler{}), ContractViolation);
}

TEST(Contracts, FifoQueueRejectsZeroCapacity) {
  EXPECT_THROW(router::FifoQueue(0), ContractViolation);
}

TEST(Contracts, FitLineNeedsTwoPoints) {
  const double one[] = {1.0};
  EXPECT_THROW((void)stats::FitLine({one, 1}, {one, 1}), ContractViolation);
  EXPECT_THROW((void)stats::FitLine({}, {}), ContractViolation);
}

TEST(Contracts, FitLineNeedsMatchingSpans) {
  const double xs[] = {1.0, 2.0, 3.0};
  const double ys[] = {1.0, 2.0};
  EXPECT_THROW((void)stats::FitLine(xs, ys), ContractViolation);
}

}  // namespace
}  // namespace gametrace
