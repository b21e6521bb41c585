#include "trace/loss_estimator.h"

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "router/nat_device.h"

namespace gametrace::trace {
namespace {

net::PacketRecord MakeRecord(std::uint32_t seq, net::Direction dir,
                             std::uint32_t ip = 0x0A000001, std::uint16_t port = 27005) {
  net::PacketRecord r;
  r.seq = seq;
  r.direction = dir;
  r.client_ip = net::Ipv4Address(ip);
  r.client_port = port;
  return r;
}

TEST(SeqGapLossEstimator, CompleteFlowHasNoLoss) {
  SeqGapLossEstimator est;
  for (std::uint32_t s = 1; s <= 100; ++s) {
    est.OnPacket(MakeRecord(s, net::Direction::kClientToServer));
  }
  const auto in = est.Estimate(net::Direction::kClientToServer);
  EXPECT_EQ(in.received, 100u);
  EXPECT_EQ(in.expected, 100u);
  EXPECT_EQ(in.lost(), 0u);
  EXPECT_DOUBLE_EQ(in.loss_rate(), 0.0);
  EXPECT_EQ(in.flows, 1u);
}

TEST(SeqGapLossEstimator, GapsCounted) {
  SeqGapLossEstimator est;
  for (std::uint32_t s = 1; s <= 100; ++s) {
    if (s % 10 == 0) continue;  // drop every 10th
    est.OnPacket(MakeRecord(s, net::Direction::kClientToServer));
  }
  const auto in = est.Estimate(net::Direction::kClientToServer);
  EXPECT_EQ(in.received, 90u);
  EXPECT_EQ(in.expected, 99u);  // 1..99 observed range (100 was dropped)
  EXPECT_EQ(in.lost(), 9u);
}

TEST(SeqGapLossEstimator, ReorderingIsNotLoss) {
  SeqGapLossEstimator est;
  for (std::uint32_t s : {3u, 1u, 2u, 5u, 4u}) {
    est.OnPacket(MakeRecord(s, net::Direction::kServerToClient));
  }
  const auto out = est.Estimate(net::Direction::kServerToClient);
  EXPECT_EQ(out.lost(), 0u);
}

TEST(SeqGapLossEstimator, DirectionsAndFlowsSeparated) {
  SeqGapLossEstimator est;
  est.OnPacket(MakeRecord(1, net::Direction::kClientToServer, 0x0A000001, 1000));
  est.OnPacket(MakeRecord(5, net::Direction::kClientToServer, 0x0A000001, 1000));
  est.OnPacket(MakeRecord(1, net::Direction::kServerToClient, 0x0A000001, 1000));
  est.OnPacket(MakeRecord(1, net::Direction::kClientToServer, 0x0A000002, 1000));
  const auto in = est.Estimate(net::Direction::kClientToServer);
  EXPECT_EQ(in.flows, 2u);
  EXPECT_EQ(in.expected, 6u);  // 5 for the gappy flow + 1
  EXPECT_EQ(in.received, 3u);
  const auto out = est.Estimate(net::Direction::kServerToClient);
  EXPECT_EQ(out.flows, 1u);
  EXPECT_EQ(out.lost(), 0u);
}

TEST(SeqGapLossEstimator, UnsequencedIgnored) {
  SeqGapLossEstimator est;
  est.OnPacket(MakeRecord(0, net::Direction::kClientToServer));  // handshake
  est.OnPacket(MakeRecord(1, net::Direction::kClientToServer));
  EXPECT_EQ(est.unsequenced_packets(), 1u);
  EXPECT_EQ(est.Estimate(net::Direction::kClientToServer).received, 1u);
}

// The headline capability: estimate the NAT device's loss from the
// *delivered* packet stream alone and match the device's own counters.
TEST(SeqGapLossEstimator, MatchesNatDeviceGroundTruth) {
  auto cfg = core::NatExperimentConfig::Defaults();
  cfg.game.trace_duration = 300.0;
  cfg.game.maps.map_duration = 400.0;

  sim::Simulator simulator;
  router::NatDevice nat(simulator, cfg.device);
  game::CsServer server(simulator, cfg.game, nat.injector());
  SeqGapLossEstimator est;
  nat.SetDeliverCallback([&](const net::PacketRecord& record, router::Segment) {
    est.OnPacket(record);
  });
  nat.Start();
  server.Start();
  simulator.RunUntil(cfg.game.trace_duration);

  const double truth_in = nat.stats().loss_rate_incoming();
  const double est_in = est.Estimate(net::Direction::kClientToServer).loss_rate();
  // Sequence gaps see exactly the dropped sequenced packets; the device
  // counters also include connectionless traffic, so allow a small slack.
  EXPECT_NEAR(est_in, truth_in, 0.004);
  EXPECT_GT(est_in, 0.001);  // there *was* loss to estimate

  const double truth_out = nat.stats().loss_rate_outgoing();
  const double est_out = est.Estimate(net::Direction::kServerToClient).loss_rate();
  EXPECT_NEAR(est_out, truth_out, 0.004);
}

}  // namespace
}  // namespace gametrace::trace
