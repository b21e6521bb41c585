#include "game/config.h"

#include <functional>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "core/check.h"
#include "core/experiment.h"
#include "core/fleet.h"
#include "game/cs_server.h"
#include "sim/simulator.h"
#include "trace/capture.h"

namespace gametrace::game {
namespace {

// Runs Validate on a default config after `mutate`, expecting a rejection
// whose message names `field`.
void ExpectRejected(const std::function<void(GameConfig&)>& mutate, const std::string& field) {
  GameConfig config = GameConfig::ScaledDefaults(600.0);
  mutate(config);
  try {
    config.Validate();
    ADD_FAILURE() << "Validate accepted a config with a bad " << field;
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

TEST(GameConfigValidate, DefaultsPass) {
  EXPECT_NO_THROW(GameConfig{}.Validate());
  EXPECT_NO_THROW(GameConfig::PaperDefaults().Validate());
  EXPECT_NO_THROW(GameConfig::ScaledDefaults(60.0).Validate());
  EXPECT_NO_THROW(core::NatExperimentConfig::Defaults().game.Validate());
}

TEST(GameConfigValidate, NegativeRate) {
  ExpectRejected([](GameConfig& c) { c.sessions.fresh_attempt_rate = -0.1; },
                 "sessions.fresh_attempt_rate");
  ExpectRejected([](GameConfig& c) { c.downloads.rate_limit_bps = -1.0; },
                 "downloads.rate_limit_bps");
}

TEST(GameConfigValidate, ZeroTickInterval) {
  ExpectRejected([](GameConfig& c) { c.tick_interval = 0.0; }, "tick_interval");
}

TEST(GameConfigValidate, SizeBoundsOutOfOrder) {
  ExpectRejected(
      [](GameConfig& c) {
        c.sizes.inbound_min = 100;
        c.sizes.inbound_max = 50;
      },
      "sizes.inbound_min");
  ExpectRejected([](GameConfig& c) { c.sizes.outbound_min = 500; }, "sizes.outbound_min");
  ExpectRejected([](GameConfig& c) { c.sizes.chat_max = 10; }, "sizes.chat_max");
}

TEST(GameConfigValidate, NaNStddev) {
  ExpectRejected(
      [](GameConfig& c) { c.sizes.outbound_stddev = std::numeric_limits<double>::quiet_NaN(); },
      "sizes.outbound_stddev");
}

TEST(GameConfigValidate, ProbabilitiesAndOutageTimes) {
  ExpectRejected([](GameConfig& c) { c.sizes.chat_probability = 1.5; }, "sizes.chat_probability");
  ExpectRejected(
      [](GameConfig& c) {
        c.clients.broadband_fraction = 0.6;
        c.clients.l337_fraction = 0.6;
      },
      "clients.broadband_fraction + clients.l337_fraction");
  ExpectRejected([](GameConfig& c) { c.outages.times = {10.0, -1.0}; }, "outages.times[1]");
}

TEST(GameConfigValidate, EveryEntryPointRejects) {
  GameConfig bad = GameConfig::ScaledDefaults(60.0);
  bad.tick_interval = -0.05;
  sim::Simulator simulator;
  trace::CountingSink sink;
  EXPECT_THROW(CsServer(simulator, bad, sink), ContractViolation);

  core::FleetConfig fleet;
  fleet.shards = 1;
  fleet.threads = 1;
  fleet.server = bad;
  EXPECT_THROW((void)core::RunFleet(fleet), ContractViolation);

  core::NatExperimentConfig nat = core::NatExperimentConfig::Defaults();
  nat.game.tick_interval = -0.05;
  EXPECT_THROW((void)core::RunNatExperiment(nat), ContractViolation);
}

}  // namespace
}  // namespace gametrace::game
