// Property sweeps across device capacity: loss must fall monotonically (to
// tolerance) as lookup capacity rises, and vanish once bursts fit - the
// provisioning knob the whole paper is about.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "router/device_stats.h"

namespace gametrace {
namespace {

core::NatExperimentResult RunAtCapacity(double capacity_pps, std::size_t buffers) {
  auto cfg = core::NatExperimentConfig::Defaults();
  cfg.game.trace_duration = 180.0;
  cfg.game.maps.map_duration = 240.0;
  cfg.device.mean_capacity_pps = capacity_pps;
  cfg.device.lan_buffer = buffers;
  cfg.device.wan_buffer = buffers;
  cfg.device.episode_mean_interval = 0.0;  // isolate pure queueing loss
  return core::RunNatExperiment(cfg);
}

TEST(CapacitySweep, LossFallsMonotonicallyWithCapacity) {
  double previous = 1.0;
  for (const double capacity : {600.0, 900.0, 1400.0, 4000.0}) {
    const auto result = RunAtCapacity(capacity, 24);
    const double loss = result.device.loss_rate_incoming();
    EXPECT_LE(loss, previous + 0.01) << "capacity " << capacity;
    previous = loss;
  }
}

TEST(CapacitySweep, UndersizedDeviceLosesHeavily) {
  const auto result = RunAtCapacity(500.0, 24);
  // Offered ~850 pps against 500 pps of lookup: heavy sustained loss.
  EXPECT_GT(result.device.loss_rate_incoming(), 0.2);
}

TEST(CapacitySweep, AmpleDeviceIsClean) {
  const auto result = RunAtCapacity(20000.0, 64);
  EXPECT_LT(result.device.loss_rate_incoming(), 1e-4);
  EXPECT_LT(result.device.loss_rate_outgoing(), 1e-4);
  // And fast: bursts drain in well under a tick.
  EXPECT_LT(result.device.delay_p99(), 0.005);
}

TEST(CapacitySweep, DelayFallsWithCapacity) {
  const auto slow = RunAtCapacity(1400.0, 64);
  const auto fast = RunAtCapacity(8000.0, 64);
  EXPECT_GT(slow.device.delay().mean(), 3.0 * fast.device.delay().mean());
}

class BufferSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BufferSweep, DeeperBuffersTradeLossForDelay) {
  const std::size_t buffers = GetParam();
  const auto result = RunAtCapacity(1100.0, buffers);
  const auto deep = RunAtCapacity(1100.0, buffers * 8);
  // Deeper buffers: strictly less loss, more (or equal) queueing delay.
  EXPECT_LE(deep.device.loss_rate_outgoing(), result.device.loss_rate_outgoing() + 1e-6);
  EXPECT_GE(deep.device.delay_p99() + 1e-4, result.device.delay_p99());
}

INSTANTIATE_TEST_SUITE_P(Buffers, BufferSweep, ::testing::Values(4, 8, 16));

}  // namespace
}  // namespace gametrace
