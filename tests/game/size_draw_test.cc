// Exactness of the packet-size draw: sim::SampleClampedNormal must return
// the libm reference's integer, ClampRound(mean + stddev * BoxMuller(u1, u2),
// lo, hi), for every size class the server uses and at the edges of the
// uniforms' domain, and must fall back to the reference at rounding ties
// and for non-finite or huge parameters.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "game/config.h"
#include "game/packet_size_model.h"
#include "sim/random.h"
#include "sim/rng.h"

namespace gametrace::game {
namespace {

using sim::ClampedNormal;

// Every class the tick loop draws from under the default configuration:
// inbound, chat, and outbound at each player count 0..max_players.
std::vector<ClampedNormal> DefaultClasses() {
  const GameConfig config;
  const PacketSizeModel model(config.sizes);
  std::vector<ClampedNormal> classes = {model.InboundClass(), model.ChatClass()};
  for (int players = 0; players <= config.max_players; ++players) {
    classes.push_back(model.OutboundClass(players));
  }
  return classes;
}

// 10^7 uniform pairs shared by every default class (25 classes, 2.5e8
// sizes). The libm variate is computed once per pair; each class's
// reference is then exactly ClampedNormalReference's last step. The pairs
// come from four independent substreams, checked on up to four threads.
TEST(SizeDraw, ByteEqualToLibmReferenceForEveryDefaultClass) {
  constexpr int kStreams = 4;
  constexpr int kPairsPerStream = 2'500'000;
  const std::vector<ClampedNormal> classes = DefaultClasses();
  struct Tally {
    std::uint64_t mismatches = 0;
    std::uint64_t fallbacks = 0;
    double max_z_error = 0.0;
  };
  std::vector<Tally> tallies(kStreams);
  const auto check_stream = [&](int stream) {
    sim::Rng rng = sim::Rng::ForSubstream(20021101, static_cast<std::uint64_t>(stream));
    Tally tally;  // local: no false sharing between threads
    for (int i = 0; i < kPairsPerStream; ++i) {
      const double u1 = 1.0 - rng.NextDouble();
      const double u2 = rng.NextDouble();
      const double z_ref = sim::BoxMuller(u1, u2);
      const double z_poly = sim::PolyBoxMuller(u1, u2);
      tally.max_z_error = std::max(tally.max_z_error, std::fabs(z_poly - z_ref));
      for (const ClampedNormal& p : classes) {
        std::uint16_t fast = 0;
        if (!sim::ClampedNormalFast(z_poly, p, fast)) {
          ++tally.fallbacks;
          continue;  // the reference itself
        }
        tally.mismatches += fast != sim::ClampRound(p.mean + p.stddev * z_ref, p.lo, p.hi) ? 1 : 0;
      }
    }
    tallies[static_cast<std::size_t>(stream)] = tally;
  };
  const int threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, static_cast<unsigned>(kStreams)));
  std::vector<std::thread> workers;
  for (int w = 1; w < threads; ++w) {
    workers.emplace_back([&, w] {
      for (int stream = w; stream < kStreams; stream += threads) check_stream(stream);
    });
  }
  for (int stream = 0; stream < kStreams; stream += threads) check_stream(stream);
  for (std::thread& worker : workers) worker.join();

  Tally total;
  for (const Tally& t : tallies) {
    total.mismatches += t.mismatches;
    total.fallbacks += t.fallbacks;
    total.max_z_error = std::max(total.max_z_error, t.max_z_error);
  }
  EXPECT_EQ(total.mismatches, 0u);
  EXPECT_LE(total.max_z_error, sim::kPolyBoxMullerError);
  const double evaluations =
      double{kStreams} * double{kPairsPerStream} * static_cast<double>(classes.size());
  EXPECT_LT(static_cast<double>(total.fallbacks) / evaluations, 1e-4);
}

TEST(SizeDraw, SampleMatchesReferenceThroughTheModel) {
  // The entry points the tick loop calls, drawing their own uniforms.
  const PacketSizeModel model{SizeConfig{}};
  sim::Rng fast_rng(7);
  sim::Rng ref_rng(7);
  for (int i = 0; i < 300'000; ++i) {
    const int players = i % 23;
    ClampedNormal p;
    std::uint16_t got = 0;
    switch (i % 3) {
      case 0:
        p = model.InboundClass();
        got = model.InboundUpdate(fast_rng);
        break;
      case 1:
        p = model.ChatClass();
        got = model.ChatPayload(fast_rng);
        break;
      default:
        p = model.OutboundClass(players);
        got = model.OutboundUpdate(fast_rng, players);
        break;
    }
    const double u1 = 1.0 - ref_rng.NextDouble();
    const double u2 = ref_rng.NextDouble();
    ASSERT_EQ(got, sim::ClampedNormalReference(u1, u2, p)) << "draw " << i;
  }
}

TEST(SizeDraw, FallbackRateBelowOneInTenThousand) {
  const PacketSizeModel model{SizeConfig{}};
  const ClampedNormal classes[3] = {model.InboundClass(), model.ChatClass(),
                                    model.OutboundClass(18)};
  sim::Rng rng(3);
  int fallbacks = 0;
  constexpr int kDraws = 1'000'000;
  for (int i = 0; i < kDraws; ++i) {
    const double u1 = 1.0 - rng.NextDouble();
    const double u2 = rng.NextDouble();
    std::uint16_t out = 0;
    fallbacks += sim::ClampedNormalFast(sim::PolyBoxMuller(u1, u2), classes[i % 3], out) ? 0 : 1;
  }
  EXPECT_LT(static_cast<double>(fallbacks) / kDraws, 1e-4);
}

TEST(SizeDraw, RoundingTiesTakeTheFallback) {
  // u2 = 1/4: cos(2 pi u2) is 0 up to libm rounding, so y sits on the
  // half-integer mean; only the reference may decide which way it rounds.
  for (const double u1 : {1.0, 0.5, 0x1p-53, 0.123456789}) {
    for (const double k : {16.0, 39.0, 40.0, 129.0, 300.0}) {
      for (const double stddev : {0.0, 4.5, 28.0, 60.0}) {
        const ClampedNormal p{k + 0.5, stddev, 0, 480};
        const double z_poly = sim::PolyBoxMuller(u1, 0.25);
        std::uint16_t out = 0;
        EXPECT_FALSE(sim::ClampedNormalFast(z_poly, p, out))
            << "mean " << p.mean << " stddev " << stddev << " u1 " << u1;
        EXPECT_EQ(sim::SampleClampedNormal(u1, 0.25, p), sim::ClampedNormalReference(u1, 0.25, p));
      }
    }
  }
}

TEST(SizeDraw, DomainEdges) {
  const std::vector<ClampedNormal> classes = DefaultClasses();
  const double u1s[] = {1.0, 1.0 - 0x1p-53, 0.7071067811865476, 0.7071067811865475, 0.5,
                        0x1p-26, 0x1p-52, 0x1p-53};
  const double u2s[] = {0.0, 0.125, 0.25, 0.5, 0.75, 1.0 - 0x1p-53};
  for (const double u1 : u1s) {
    for (const double u2 : u2s) {
      EXPECT_LE(std::fabs(sim::PolyBoxMuller(u1, u2) - sim::BoxMuller(u1, u2)),
                sim::kPolyBoxMullerError)
          << "u1 " << u1 << " u2 " << u2;
      for (const ClampedNormal& p : classes) {
        EXPECT_EQ(sim::SampleClampedNormal(u1, u2, p), sim::ClampedNormalReference(u1, u2, p))
            << "u1 " << u1 << " u2 " << u2 << " mean " << p.mean;
      }
    }
  }
  // u1 = 2^-53 is the largest variate the generator can produce.
  EXPECT_NEAR(sim::PolyBoxMuller(0x1p-53, 0.0), 8.5717, 1e-4);
  // Outside the domain the polynomial is NaN, so the guard refuses it.
  EXPECT_TRUE(std::isnan(sim::PolyBoxMuller(0.0, 0.5)));
  EXPECT_TRUE(std::isnan(sim::PolyBoxMuller(1.5, 0.5)));
  EXPECT_TRUE(std::isnan(sim::PolyBoxMuller(0.5, 1.0)));
  EXPECT_TRUE(std::isnan(sim::PolyBoxMuller(0.5, -0x1p-53)));
}

TEST(SizeDraw, NonFiniteAndHugeParametersTakeTheFallback) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double z_poly = sim::PolyBoxMuller(0.3, 0.1);
  std::uint16_t out = 0;
  for (const double bad : {kNaN, kInf, -kInf, 1e300, -1e300}) {
    const ClampedNormal bad_mean{bad, 4.5, 20, 80};
    const ClampedNormal bad_stddev{40.0, bad, 20, 80};
    EXPECT_FALSE(sim::ClampedNormalFast(z_poly, bad_mean, out)) << bad;
    EXPECT_FALSE(sim::ClampedNormalFast(z_poly, bad_stddev, out)) << bad;
    if (std::isnan(bad)) continue;  // the reference's own cast of a NaN is undefined
    EXPECT_EQ(sim::SampleClampedNormal(0.3, 0.1, bad_mean),
              sim::ClampedNormalReference(0.3, 0.1, bad_mean));
    EXPECT_EQ(sim::SampleClampedNormal(0.3, 0.1, bad_stddev),
              sim::ClampedNormalReference(0.3, 0.1, bad_stddev));
  }
  // Inverted bounds are no fast-path case either.
  EXPECT_FALSE(sim::ClampedNormalFast(z_poly, ClampedNormal{40.0, 4.5, 80, 20}, out));
  EXPECT_EQ(sim::SampleClampedNormal(0.3, 0.1, ClampedNormal{40.0, 4.5, 80, 20}),
            sim::ClampedNormalReference(0.3, 0.1, ClampedNormal{40.0, 4.5, 80, 20}));
}

}  // namespace
}  // namespace gametrace::game
