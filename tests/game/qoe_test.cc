#include "game/qoe.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"

#include "core/check.h"

namespace gametrace::game {
namespace {

net::PacketRecord MakeRecord(std::uint32_t ip, std::uint16_t port) {
  net::PacketRecord r;
  r.client_ip = net::Ipv4Address(ip);
  r.client_port = port;
  return r;
}

QoeMonitor::Config FastConfig() {
  QoeMonitor::Config cfg;
  cfg.check_interval = 1.0;
  cfg.tolerance_min = 0.02;
  cfg.tolerance_max = 0.02;  // deterministic tolerance
  cfg.quit_probability = 1.0;
  cfg.min_events = 10;
  return cfg;
}

TEST(QoeMonitor, Validation) {
  sim::Simulator s;
  EXPECT_THROW(QoeMonitor(s, FastConfig(), sim::Rng(1), nullptr), gametrace::ContractViolation);
  auto bad = FastConfig();
  bad.check_interval = 0.0;
  EXPECT_THROW(QoeMonitor(s, bad, sim::Rng(1), [](net::Ipv4Address, std::uint16_t) {}),
               gametrace::ContractViolation);
  auto inverted = FastConfig();
  inverted.tolerance_min = 0.5;
  inverted.tolerance_max = 0.1;
  EXPECT_THROW(QoeMonitor(s, inverted, sim::Rng(1), [](net::Ipv4Address, std::uint16_t) {}),
               gametrace::ContractViolation);
}

TEST(QoeMonitor, TolerablePlayerStays) {
  sim::Simulator s;
  int quits = 0;
  QoeMonitor qoe(s, FastConfig(), sim::Rng(2),
                 [&](net::Ipv4Address, std::uint16_t) { ++quits; });
  qoe.Start();
  // 1% loss: below the 2% tolerance.
  const auto r = MakeRecord(0x0A000001, 27005);
  for (int i = 0; i < 990; ++i) qoe.OnDelivered(r);
  for (int i = 0; i < 10; ++i) qoe.OnLost(r);
  s.RunUntil(5.0);
  EXPECT_EQ(quits, 0);
}

TEST(QoeMonitor, IntolerableLossTriggersQuit) {
  sim::Simulator s;
  std::vector<std::uint16_t> quit_ports;
  QoeMonitor qoe(s, FastConfig(), sim::Rng(3),
                 [&](net::Ipv4Address, std::uint16_t port) { quit_ports.push_back(port); });
  qoe.Start();
  const auto r = MakeRecord(0x0A000001, 27005);
  for (int i = 0; i < 900; ++i) qoe.OnDelivered(r);
  for (int i = 0; i < 100; ++i) qoe.OnLost(r);  // 10% loss
  s.RunUntil(1.5);
  ASSERT_EQ(quit_ports.size(), 1u);
  EXPECT_EQ(quit_ports[0], 27005);
  EXPECT_EQ(qoe.quits_triggered(), 1u);
}

TEST(QoeMonitor, FewEventsNoJudgement) {
  sim::Simulator s;
  int quits = 0;
  QoeMonitor qoe(s, FastConfig(), sim::Rng(4),
                 [&](net::Ipv4Address, std::uint16_t) { ++quits; });
  qoe.Start();
  const auto r = MakeRecord(0x0A000001, 27005);
  for (int i = 0; i < 5; ++i) qoe.OnLost(r);  // 100% loss but only 5 events
  s.RunUntil(2.0);
  EXPECT_EQ(quits, 0);
}

TEST(QoeMonitor, WindowResetsEachCheck) {
  sim::Simulator s;
  int quits = 0;
  QoeMonitor qoe(s, FastConfig(), sim::Rng(5),
                 [&](net::Ipv4Address, std::uint16_t) { ++quits; });
  qoe.Start();
  const auto r = MakeRecord(0x0A000001, 27005);
  // Heavy loss in the first second...
  for (int i = 0; i < 50; ++i) qoe.OnLost(r);
  for (int i = 0; i < 50; ++i) qoe.OnDelivered(r);
  EXPECT_GT(qoe.WindowLossRate(r.client_ip, r.client_port), 0.4);
  s.RunUntil(1.1);  // the check quits the player and resets windows
  EXPECT_EQ(quits, 1);
  // A fresh (re-joined) endpoint with clean traffic is judged on the new
  // window only.
  for (int i = 0; i < 200; ++i) qoe.OnDelivered(r);
  s.RunUntil(2.5);
  EXPECT_EQ(quits, 1);
}

TEST(QoeMonitor, PerEndpointIsolation) {
  sim::Simulator s;
  std::set<std::uint16_t> quit_ports;
  QoeMonitor qoe(s, FastConfig(), sim::Rng(6),
                 [&](net::Ipv4Address, std::uint16_t port) { quit_ports.insert(port); });
  qoe.Start();
  const auto lossy = MakeRecord(0x0A000001, 1000);
  const auto clean = MakeRecord(0x0A000001, 2000);
  for (int i = 0; i < 100; ++i) {
    qoe.OnLost(lossy);
    qoe.OnDelivered(lossy);
    qoe.OnDelivered(clean);
  }
  s.RunUntil(1.5);
  EXPECT_TRUE(quit_ports.contains(1000));
  EXPECT_FALSE(quit_ports.contains(2000));
}

// The paper's end-to-end claim: behind an overloaded device, QoE quitting
// sheds load until loss sits near the tolerable 1-2%.
TEST(QoeMonitor, SelfTuningShedsLoadBehindOverloadedDevice) {
  auto cfg = core::NatExperimentConfig::Defaults();
  cfg.game.trace_duration = 600.0;
  cfg.game.maps.map_duration = 700.0;
  // A purely capacity-limited device (no livelock): offered ~850 pps
  // against 800 pps of lookup - sustained, load-dependent loss.
  cfg.device.mean_capacity_pps = 800.0;
  cfg.device.episode_mean_interval = 0.0;

  cfg.enable_qoe = false;
  const auto without = core::RunNatExperiment(cfg);
  cfg.enable_qoe = true;
  const auto with = core::RunNatExperiment(cfg);

  // Without QoE the device stays saturated; with QoE players bail until
  // the load fits, so fewer packets are lost and fewer players remain.
  EXPECT_GT(with.qoe_quits, 5u);
  EXPECT_LT(with.players.values().back(), without.players.values().back());
  EXPECT_LT(with.device.loss_rate_incoming(), without.device.loss_rate_incoming());
}

}  // namespace
}  // namespace gametrace::game
