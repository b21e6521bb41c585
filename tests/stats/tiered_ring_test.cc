// TieredRing: RRD-style fold-on-eviction correctness, lifetime aggregates,
// bounded memory, the bulk-add equivalence the server's per-tick wiring
// relies on, and the lockstep merge contract that makes fleet output
// bit-identical at any worker count.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "stats/tiered_ring.h"

#include "core/check.h"

namespace gametrace::stats {
namespace {

// A tiny schedule the tests can reason about exactly: 1 s base bins (4
// held), folding 4:1 into 4 s bins (4 held), folding 4:1 into 16 s bins.
TieredRing::Options TinySchedule(bool track_hurst = false) {
  TieredRing::Options options;
  options.tiers = {{.interval = 1.0, .capacity = 4},
                   {.interval = 4.0, .capacity = 4},
                   {.interval = 16.0, .capacity = 2}};
  options.track_hurst = track_hurst;
  options.hurst_scales = 4;
  return options;
}

// Every held bin value of every tier plus eviction aggregates, as a
// comparable fingerprint.
std::string Fingerprint(const TieredRing& ring) {
  std::string out;
  for (std::size_t k = 0; k < ring.tier_count(); ++k) {
    out += "tier" + std::to_string(k) + ":" + std::to_string(ring.tier_first(k)) + "+" +
           std::to_string(ring.tier_held(k)) + "|";
    for (std::int64_t i = ring.tier_first(k);
         i < ring.tier_first(k) + static_cast<std::int64_t>(ring.tier_held(k)); ++i) {
      out += std::to_string(ring.TierValue(k, i)) + ",";
    }
    const TieredRing::TierStats stats = ring.Stats(k);
    out += "|" + std::to_string(stats.bins) + "/" + std::to_string(stats.mean) + "/" +
           std::to_string(stats.peak) + ";";
  }
  return out;
}

TEST(TieredRing, EvictedBaseBinsFoldIntoCoarseTiersExactly) {
  TieredRing ring(TinySchedule());
  // One unit sample per second for 24 s: base bins all 1, every 4 s bin 4,
  // every 16 s bin 16.
  for (int s = 0; s < 24; ++s) ring.Add(static_cast<double>(s) + 0.5);

  EXPECT_EQ(ring.tier_held(0), 4u);
  EXPECT_EQ(ring.tier_first(0), 20);
  for (std::int64_t i = 20; i < 24; ++i) EXPECT_EQ(ring.TierValue(0, i), 1.0);

  // Base evicted 20 bins -> coarse bins 0..4 exist; bin 4 still filling.
  EXPECT_EQ(ring.tier_first(1) + static_cast<std::int64_t>(ring.tier_held(1)), 5);
  for (std::int64_t i = ring.tier_first(1); i < 4; ++i) {
    EXPECT_EQ(ring.TierValue(1, i), 4.0) << "4 s bin " << i;
  }

  const TieredRing::TierStats base = ring.Stats(0);
  EXPECT_EQ(base.bins, 24u);
  EXPECT_DOUBLE_EQ(base.mean, 1.0);
  EXPECT_DOUBLE_EQ(base.peak, 1.0);
}

TEST(TieredRing, LifetimeAggregatesSurviveEviction) {
  TieredRing ring(TinySchedule());
  // A burst of 9 in bin 2, then enough quiet bins to evict it everywhere.
  ring.Add(2.5, 9.0);
  for (int s = 3; s < 40; ++s) ring.Add(static_cast<double>(s) + 0.5);
  const TieredRing::TierStats base = ring.Stats(0);
  EXPECT_DOUBLE_EQ(base.peak, 9.0);  // the burst outlives its bin
  EXPECT_GT(base.bins, 30u);
}

TEST(TieredRing, BulkAddMatchesUnitAddsUnderSumReduction) {
  // The server folds each tick's packet count in as one Add(t, n); bins
  // are sums, so every exposed value (tier values, stats, Hurst feed) must match
  // n unit adds at the same timestamp.
  TieredRing bulk(TinySchedule(/*track_hurst=*/true));
  TieredRing units(TinySchedule(/*track_hurst=*/true));
  sim::Rng rng(17);
  for (int s = 0; s < 64; ++s) {
    const auto n = 1 + static_cast<int>(rng.NextBelow(7));
    const double t = static_cast<double>(s) + 0.25;
    bulk.Add(t, static_cast<double>(n));
    for (int i = 0; i < n; ++i) units.Add(t);
  }
  EXPECT_EQ(Fingerprint(bulk), Fingerprint(units));
  ASSERT_NE(bulk.hurst(), nullptr);
  EXPECT_EQ(bulk.hurst()->samples(), units.hurst()->samples());
}

TEST(TieredRing, LateSamplesAreCountedNotCrashed) {
  TieredRing ring(TinySchedule());
  for (int s = 0; s < 10; ++s) ring.Add(static_cast<double>(s) + 0.5);
  EXPECT_EQ(ring.dropped_late(), 0u);
  ring.Add(1.5);  // bin 1 was evicted long ago
  EXPECT_EQ(ring.dropped_late(), 1u);
  // The window did not move backwards.
  EXPECT_EQ(ring.tier_first(0), 6);
}

TEST(TieredRing, AdvanceToClosesEmptyBinsAndKeepsAddConsistent) {
  TieredRing ring(TinySchedule());
  ring.Add(0.5);
  ring.AdvanceTo(10.0);  // closes bins 1..9 as zeros
  EXPECT_EQ(ring.tier_first(0) + static_cast<std::int64_t>(ring.tier_held(0)), 11);
  ring.Add(10.5);  // lands in the advanced-to bin, not a stale cached one
  EXPECT_EQ(ring.TierValue(0, 10), 1.0);
  ring.Add(0.6);  // before the window: late
  EXPECT_EQ(ring.dropped_late(), 1u);
}

TEST(TieredRing, MergedShardsEqualTheSummedStreamBitForBit) {
  // Shard the same grid across 8 rings (each sees its own traffic), then
  // reduce in shard order, reversed, and pairwise (1/2/8-worker shapes).
  // Sum folding is exact, so every reduction must equal the ring of the
  // summed stream bit for bit.
  sim::Rng rng(29);
  std::vector<std::vector<double>> load(8, std::vector<double>(48));
  for (auto& shard : load) {
    for (auto& v : shard) v = static_cast<double>(rng.NextBelow(50));
  }

  const auto run_shard = [&](std::size_t k) {
    TieredRing ring(TinySchedule(/*track_hurst=*/true));
    for (std::size_t s = 0; s < load[k].size(); ++s) {
      ring.Add(static_cast<double>(s) + 0.5, load[k][s]);
    }
    ring.AdvanceTo(48.0);  // common end-of-run grid alignment
    return ring;
  };

  TieredRing whole(TinySchedule(/*track_hurst=*/true));
  for (std::size_t s = 0; s < 48; ++s) {
    double total = 0.0;
    for (const auto& shard : load) total += shard[s];
    whole.Add(static_cast<double>(s) + 0.5, total);
  }
  whole.AdvanceTo(48.0);

  // Held windows are exact: the merged ring's bins equal the
  // summed stream's bins bit for bit. (Eviction PEAKS deliberately differ:
  // a merge keeps the worst single-shard burst, not the aggregate peak -
  // so they are compared across reduction shapes, not against `whole`.)
  const auto held_values = [](const TieredRing& ring) {
    std::string out;
    for (std::size_t k = 0; k < ring.tier_count(); ++k) {
      out += std::to_string(ring.tier_first(k)) + "+" + std::to_string(ring.tier_held(k)) + "|";
      for (std::int64_t i = ring.tier_first(k);
           i < ring.tier_first(k) + static_cast<std::int64_t>(ring.tier_held(k)); ++i) {
        out += std::to_string(ring.TierValue(k, i)) + ",";
      }
    }
    return out;
  };

  TieredRing forward = run_shard(0);
  for (std::size_t k = 1; k < 8; ++k) forward.Merge(run_shard(k));
  EXPECT_EQ(held_values(forward), held_values(whole));

  TieredRing backward = run_shard(7);
  for (std::size_t k = 7; k-- > 0;) backward.Merge(run_shard(k));

  std::vector<TieredRing> tree;
  for (std::size_t k = 0; k < 8; ++k) tree.push_back(run_shard(k));
  while (tree.size() > 1) {
    std::vector<TieredRing> next;
    for (std::size_t i = 0; i + 1 < tree.size(); i += 2) {
      tree[i].Merge(tree[i + 1]);
      next.push_back(tree[i]);
    }
    tree = std::move(next);
  }

  // Worker-count invariance: every reduction shape lands on identical
  // full state (integer-valued loads keep the sums exact).
  EXPECT_EQ(Fingerprint(forward), Fingerprint(backward));
  EXPECT_EQ(Fingerprint(forward), Fingerprint(tree.front()));

  // The pooled Hurst sees the same number of base bins either way.
  ASSERT_NE(forward.hurst(), nullptr);
  EXPECT_EQ(forward.hurst()->samples(), whole.hurst()->samples() * 8);
}

TEST(TieredRing, MergeRejectsShapeAndLockstepViolations) {
  TieredRing a(TinySchedule());
  TieredRing::Options wider = TinySchedule();
  wider.tiers[1].capacity = 8;  // same intervals, different capacity
  TieredRing b(wider);
  EXPECT_FALSE(a.SameShape(b));
  EXPECT_THROW(a.Merge(b), gametrace::ContractViolation);

  TieredRing c(TinySchedule());
  TieredRing d(TinySchedule());
  c.Add(0.5);
  d.Add(9.5);  // different advancement: lockstep precondition broken
  EXPECT_TRUE(c.SameShape(d));
  EXPECT_THROW(c.Merge(d), gametrace::ContractViolation);
}

TEST(TieredRing, MemoryStaysFlatAsTheStreamGrows) {
  TieredRing ring(TieredRing::Options::PaperSchedule(0.05));
  double t = 0.0;
  for (int i = 0; i < 2000; ++i) ring.Add(t += 0.05, 13.0);
  const std::size_t early = ring.MemoryBytes();
  for (int i = 0; i < 200000; ++i) ring.Add(t += 0.05, 13.0);
  EXPECT_EQ(ring.MemoryBytes(), early);
}

TEST(TieredRing, PaperScheduleSpansAWeekOfHours) {
  const auto options = TieredRing::Options::PaperSchedule(0.050);
  TieredRing ring(options);
  ASSERT_EQ(ring.tier_count(), 4u);
  EXPECT_DOUBLE_EQ(ring.tier_interval(0), 0.050);
  EXPECT_DOUBLE_EQ(ring.tier_interval(1), 1.0);
  EXPECT_DOUBLE_EQ(ring.tier_interval(2), 60.0);
  EXPECT_DOUBLE_EQ(ring.tier_interval(3), 3600.0);
  EXPECT_EQ(ring.tier_capacity(3), 168u);  // one week of hourly bins
}

TEST(TieredRing, HurstFeedConsumesEvictedBaseBins) {
  TieredRing ring(TinySchedule(/*track_hurst=*/true));
  for (int s = 0; s < 30; ++s) ring.Add(static_cast<double>(s) + 0.5, 2.0);
  ASSERT_NE(ring.hurst(), nullptr);
  EXPECT_EQ(ring.hurst()->samples(), ring.tier_evicted(0));
  EXPECT_GT(ring.hurst()->samples(), 0u);
}

}  // namespace
}  // namespace gametrace::stats
