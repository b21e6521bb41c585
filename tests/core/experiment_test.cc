#include "core/experiment.h"

#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "router/topology.h"
#include "sim/simulator.h"

namespace gametrace::core {
namespace {

class ScaleEnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("GAMETRACE_FULL");
    ::unsetenv("GAMETRACE_DURATION");
  }
};

TEST_F(ScaleEnvTest, DefaultWhenUnset) {
  const auto scale = ExperimentScale::FromEnv(3600.0);
  EXPECT_DOUBLE_EQ(scale.duration, 3600.0);
  EXPECT_FALSE(scale.full);
}

TEST_F(ScaleEnvTest, FullFlag) {
  ::setenv("GAMETRACE_FULL", "1", 1);
  const auto scale = ExperimentScale::FromEnv(3600.0);
  EXPECT_TRUE(scale.full);
  EXPECT_DOUBLE_EQ(scale.duration, 626477.0);
}

TEST_F(ScaleEnvTest, FullFlagZeroMeansOff) {
  ::setenv("GAMETRACE_FULL", "0", 1);
  const auto scale = ExperimentScale::FromEnv(3600.0);
  EXPECT_FALSE(scale.full);
  EXPECT_DOUBLE_EQ(scale.duration, 3600.0);
}

TEST_F(ScaleEnvTest, ExplicitDurationWins) {
  ::setenv("GAMETRACE_FULL", "1", 1);
  ::setenv("GAMETRACE_DURATION", "120.5", 1);
  const auto scale = ExperimentScale::FromEnv(3600.0);
  EXPECT_DOUBLE_EQ(scale.duration, 120.5);
  EXPECT_FALSE(scale.full);
}

TEST_F(ScaleEnvTest, GarbageDurationIgnored) {
  ::setenv("GAMETRACE_DURATION", "notanumber", 1);
  const auto scale = ExperimentScale::FromEnv(3600.0);
  EXPECT_DOUBLE_EQ(scale.duration, 3600.0);
}

TEST(RunServerTrace, MultiSinkFanout) {
  auto cfg = game::GameConfig::ScaledDefaults(120.0);
  trace::CountingSink a;
  trace::CountingSink b;
  trace::CaptureSink* sinks[] = {&a, &b};
  const auto result = RunServerTrace(cfg, sinks);
  EXPECT_EQ(a.packets(), b.packets());
  EXPECT_GT(a.packets(), 10000u);
  EXPECT_EQ(a.packets(), result.stats.packets_emitted);
  EXPECT_GE(result.players.size(), 2u);
}

TEST(NatExperiment, DefaultsAreThirtyMinuteSingleMap) {
  const auto cfg = NatExperimentConfig::Defaults();
  EXPECT_DOUBLE_EQ(cfg.game.trace_duration, 1800.0);
  EXPECT_GT(cfg.game.maps.map_duration, cfg.game.trace_duration);  // no change mid-run
  EXPECT_TRUE(cfg.game.outages.times.empty());
}

TEST(NatExperiment, ShortRunReproducesLossAsymmetry) {
  // A 5-minute slice is enough for the qualitative Table IV result.
  NatExperimentConfig cfg = NatExperimentConfig::Defaults();
  cfg.game.trace_duration = 300.0;
  cfg.game.maps.map_duration = 400.0;
  cfg.device.seed = 11;
  // Densify livelock episodes so a short run sees several.
  cfg.device.episode_mean_interval = 30.0;
  const auto result = RunNatExperiment(cfg);
  EXPECT_GT(result.device.packets(router::Segment::kClientsToNat), 50000u);
  EXPECT_GT(result.device.packets(router::Segment::kServerToNat), 50000u);
  EXPECT_GT(result.livelock_episodes, 2);
  // The paper's asymmetry: incoming loss well above outgoing loss.
  EXPECT_GT(result.device.loss_rate_incoming(), 0.003);
  EXPECT_GT(result.device.loss_rate_incoming(), 1.5 * result.device.loss_rate_outgoing());
  EXPECT_LT(result.device.loss_rate_outgoing(), 0.02);
  // Feedback fired: lost inbound bursts froze the server.
  EXPECT_GT(result.server_freezes, 0);
  // NAT state: one entry per distinct client endpoint seen.
  EXPECT_GT(result.nat_table_size, 10u);
}

TEST(NatExperiment, GenerousDeviceCausesNoLoss) {
  NatExperimentConfig cfg = NatExperimentConfig::Defaults();
  cfg.game.trace_duration = 120.0;
  cfg.game.maps.map_duration = 200.0;
  cfg.device.mean_capacity_pps = 100000.0;  // a real router, not a Barricade
  cfg.device.lan_buffer = 4096;
  cfg.device.wan_buffer = 4096;
  cfg.device.episode_mean_interval = 0.0;  // no livelock
  const auto result = RunNatExperiment(cfg);
  EXPECT_DOUBLE_EQ(result.device.loss_rate_incoming(), 0.0);
  EXPECT_LT(result.device.loss_rate_outgoing(), 1e-4);  // boundary in-flight only
  EXPECT_EQ(result.server_freezes, 0);
  EXPECT_LT(result.device.delay().mean(), 1e-3);
}

// A 2-hop chain through the one run harness: both hops' counts reach the
// registry summed, the run samples on the flight grid, and neither the
// sampling nor the end-of-run catch-up moves the chain's own results (its
// hops forward through deliver callbacks) from those of an unbound run.
TEST(RunHarnessed, PublishesEveryHopOfAChainWithoutChangingIt) {
  struct ChainRun {
    router::DeviceChain::EndToEnd end_to_end;
    std::uint64_t hop_arrivals = 0;
  };
  const auto run_chain = [](const obs::ObsContext& context) {
    const obs::ScopedObsBinding bind(context);
    sim::Simulator simulator;
    router::DeviceChain::Config cfg;
    for (std::uint64_t i = 0; i < 2; ++i) {
      router::NatDevice::Config hop;
      hop.mean_capacity_pps = 2000.0;
      hop.lan_buffer = 16;
      hop.wan_buffer = 16;
      hop.episode_mean_interval = 0.0;
      hop.seed = 100 + i;
      cfg.hops.push_back(hop);
    }
    router::DeviceChain chain(simulator, cfg);
    game::CsServer server(simulator, game::GameConfig::ScaledDefaults(120.0), chain.injector());
    chain.Start();
    const std::vector<router::NatDevice*> devices{&chain.hop(0), &chain.hop(1)};
    RunHarnessed(simulator, server, devices, "chain");
    ChainRun out{.end_to_end = chain.end_to_end()};
    for (router::NatDevice* hop : devices) {
      out.hop_arrivals += hop->stats().packets(router::Segment::kServerToNat) +
                          hop->stats().packets(router::Segment::kClientsToNat);
    }
    return out;
  };

  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder(obs::FlightRecorder::Options{.sample_period_seconds = 60.0});
  const ChainRun bound =
      run_chain({.metrics = &metrics, .recorder = &recorder, .heartbeat = false});
  const ChainRun unbound = run_chain({.heartbeat = false});

  EXPECT_GT(bound.hop_arrivals, 0u);
  EXPECT_EQ(metrics.counter_value("nat.device.packets"), bound.hop_arrivals);
  EXPECT_GT(metrics.counter_value("sim.events_executed"), 0u);
  ASSERT_EQ(recorder.size(), 2u);
  EXPECT_DOUBLE_EQ(recorder.at(0).t_seconds, 60.0);
  EXPECT_DOUBLE_EQ(recorder.at(1).t_seconds, 120.0);

  const auto& a = bound.end_to_end;
  const auto& b = unbound.end_to_end;
  EXPECT_GT(a.delivered_out, 0u);
  EXPECT_EQ(a.sent_out, b.sent_out);
  EXPECT_EQ(a.sent_in, b.sent_in);
  EXPECT_EQ(a.delivered_out, b.delivered_out);
  EXPECT_EQ(a.delivered_in, b.delivered_in);
  EXPECT_EQ(a.delay_out.count(), b.delay_out.count());
  EXPECT_EQ(a.delay_out.mean(), b.delay_out.mean());
  EXPECT_EQ(a.delay_out.max(), b.delay_out.max());
  EXPECT_EQ(a.delay_in.count(), b.delay_in.count());
  EXPECT_EQ(a.delay_in.mean(), b.delay_in.mean());
  EXPECT_EQ(a.delay_in.max(), b.delay_in.max());
}

}  // namespace
}  // namespace gametrace::core
