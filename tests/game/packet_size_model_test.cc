#include "game/packet_size_model.h"

#include <gtest/gtest.h>

#include "stats/running_stats.h"

#include "core/check.h"

namespace gametrace::game {
namespace {

constexpr int kDraws = 100000;

TEST(PacketSizeModel, InboundMatchesPaperMean) {
  PacketSizeModel model{SizeConfig{}};
  sim::Rng rng(1);
  stats::RunningStats s;
  for (int i = 0; i < kDraws; ++i) s.Add(model.InboundUpdate(rng));
  // Paper Table III: 39.72 B mean inbound.
  EXPECT_NEAR(s.mean(), 40.0, 0.5);
  EXPECT_NEAR(s.stddev(), 4.5, 0.3);
}

TEST(PacketSizeModel, InboundRespectsBounds) {
  PacketSizeModel model{SizeConfig{}};
  sim::Rng rng(2);
  for (int i = 0; i < kDraws; ++i) {
    const auto b = model.InboundUpdate(rng);
    EXPECT_GE(b, 20);
    EXPECT_LE(b, 80);
  }
}

TEST(PacketSizeModel, InboundAlmostAllUnderSixty) {
  // "almost all of the incoming packets are smaller than 60 bytes".
  PacketSizeModel model{SizeConfig{}};
  sim::Rng rng(3);
  int over = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (model.InboundUpdate(rng) >= 60) ++over;
  }
  EXPECT_LT(static_cast<double>(over) / kDraws, 0.001);
}

TEST(PacketSizeModel, OutboundGrowsWithPlayers) {
  PacketSizeModel model{SizeConfig{}};
  sim::Rng rng(4);
  stats::RunningStats few;
  stats::RunningStats many;
  for (int i = 0; i < kDraws; ++i) few.Add(model.OutboundUpdate(rng, 5));
  for (int i = 0; i < kDraws; ++i) many.Add(model.OutboundUpdate(rng, 22));
  EXPECT_GT(many.mean(), few.mean() + 50.0);
}

TEST(PacketSizeModel, OutboundAtCalibratedPlayerCount) {
  // At the trace's ~18-player average the outbound mean must be near the
  // paper's 129.51 B.
  PacketSizeModel model{SizeConfig{}};
  sim::Rng rng(5);
  stats::RunningStats s;
  for (int i = 0; i < kDraws; ++i) s.Add(model.OutboundUpdate(rng, 18));
  EXPECT_NEAR(s.mean(), 125.3, 2.0);  // base 20 + 5.85 * 18
  EXPECT_GT(s.stddev(), 20.0);        // the wide Figure 12(b) spread
}

TEST(PacketSizeModel, OutboundRespectsBounds) {
  PacketSizeModel model{SizeConfig{}};
  sim::Rng rng(6);
  for (int players : {0, 1, 22}) {
    for (int i = 0; i < 10000; ++i) {
      const auto b = model.OutboundUpdate(rng, players);
      EXPECT_GE(b, 16);
      EXPECT_LE(b, 480);
    }
  }
}

TEST(PacketSizeModel, ChatIsBiggerOnAverage) {
  PacketSizeModel model{SizeConfig{}};
  sim::Rng rng(7);
  stats::RunningStats chat;
  for (int i = 0; i < kDraws; ++i) chat.Add(model.ChatPayload(rng));
  EXPECT_NEAR(chat.mean(), 140.0, 3.0);
}

TEST(PacketSizeModel, ChatSubstitutionRate) {
  PacketSizeModel model{SizeConfig{}};
  sim::Rng rng(8);
  int subs = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (model.DrawChatSubstitution(rng)) ++subs;
  }
  EXPECT_NEAR(static_cast<double>(subs) / kDraws, 0.002, 0.001);
}

TEST(PacketSizeModel, HandshakeSizesNearConfig) {
  PacketSizeModel model{SizeConfig{}};
  sim::Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NEAR(model.HandshakeSize(net::PacketKind::kConnectRequest, rng), 44, 4);
    EXPECT_NEAR(model.HandshakeSize(net::PacketKind::kConnectAccept, rng), 96, 4);
    EXPECT_NEAR(model.HandshakeSize(net::PacketKind::kConnectReject, rng), 32, 4);
    EXPECT_NEAR(model.HandshakeSize(net::PacketKind::kDisconnect, rng), 24, 4);
  }
}

TEST(PacketSizeModel, HandshakeRejectsDataKinds) {
  PacketSizeModel model{SizeConfig{}};
  sim::Rng rng(10);
  EXPECT_THROW((void)model.HandshakeSize(net::PacketKind::kGameUpdate, rng),
               gametrace::ContractViolation);
  EXPECT_THROW((void)model.HandshakeSize(net::PacketKind::kDownload, rng),
               gametrace::ContractViolation);
}

// The in/out asymmetry that drives the paper's Table II/III observation:
// outbound mean is more than 3x the inbound mean at realistic player counts.
class SizeAsymmetrySweep : public ::testing::TestWithParam<int> {};

TEST_P(SizeAsymmetrySweep, OutboundTriplesInbound) {
  const int players = GetParam();
  PacketSizeModel model{SizeConfig{}};
  sim::Rng rng(11);
  stats::RunningStats in;
  stats::RunningStats out;
  for (int i = 0; i < 20000; ++i) {
    in.Add(model.InboundUpdate(rng));
    out.Add(model.OutboundUpdate(rng, players));
  }
  EXPECT_GT(out.mean(), 2.5 * in.mean());
}

INSTANTIATE_TEST_SUITE_P(PlayerCounts, SizeAsymmetrySweep, ::testing::Values(14, 18, 22));

}  // namespace
}  // namespace gametrace::game
