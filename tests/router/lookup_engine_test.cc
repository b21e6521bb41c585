#include "router/lookup_engine.h"

#include <gtest/gtest.h>

#include "stats/running_stats.h"

#include "core/check.h"

namespace gametrace::router {
namespace {

TEST(LookupEngine, Validation) {
  EXPECT_THROW(LookupEngine(0.0, 0.1, sim::Rng(1)), gametrace::ContractViolation);
  EXPECT_THROW(LookupEngine(1000.0, -0.1, sim::Rng(1)), gametrace::ContractViolation);
  EXPECT_THROW(LookupEngine(1000.0, 1.0, sim::Rng(1)), gametrace::ContractViolation);
}

TEST(LookupEngine, MeanServiceTimeMatchesCapacity) {
  LookupEngine engine(1250.0, 0.25, sim::Rng(2));
  stats::RunningStats s;
  for (int i = 0; i < 100000; ++i) s.Add(engine.DrawServiceTime());
  EXPECT_NEAR(s.mean(), 1.0 / 1250.0, 2e-6);
  EXPECT_DOUBLE_EQ(engine.mean_service_time(), 1.0 / 1250.0);
  EXPECT_DOUBLE_EQ(engine.mean_capacity_pps(), 1250.0);
}

TEST(LookupEngine, JitterBounds) {
  LookupEngine engine(1000.0, 0.25, sim::Rng(3));
  for (int i = 0; i < 10000; ++i) {
    const double t = engine.DrawServiceTime();
    EXPECT_GE(t, 0.75e-3 - 1e-12);
    EXPECT_LE(t, 1.25e-3 + 1e-12);
  }
}

TEST(LookupEngine, ZeroJitterIsDeterministic) {
  LookupEngine engine(2000.0, 0.0, sim::Rng(4));
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(engine.DrawServiceTime(), 5e-4);
}

TEST(LookupEngine, SmcBarricadeRange) {
  // The paper's device: 1000-1500 pps. At 1250 pps a ~19-packet broadcast
  // burst takes ~15 ms to drain - nearly a third of the 50 ms tick.
  LookupEngine engine(1250.0, 0.0, sim::Rng(5));
  double drain = 0.0;
  for (int i = 0; i < 19; ++i) drain += engine.DrawServiceTime();
  EXPECT_NEAR(drain, 0.0152, 0.001);
  EXPECT_GT(drain, 0.25 * 0.050);
}

TEST(LookupEngine, PreDrawnTimesFollowTheGeneratorInOrder) {
  // Times drawn ahead in batches are the per-draw expression's, in order.
  LookupEngine engine(1250.0, 0.25, sim::Rng(6));
  sim::Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double expected = (1.0 + 0.25 * (2.0 * rng.NextDouble() - 1.0)) / 1250.0;
    ASSERT_EQ(engine.DrawServiceTime(), expected) << "draw " << i;
  }
}

}  // namespace
}  // namespace gametrace::router
