// Fleet engine tests: the ISSUE invariant is that the merged report is a
// pure function of (config, base_seed) - bit-identical for any worker
// thread count - and that the merge reduction equals a single-pass
// analysis semantically.
#include "core/fleet.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "game/client.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace_log.h"
#include "sim/rng.h"

#include "core/check.h"

namespace gametrace::core {
namespace {

FleetConfig SmallFleet(int shards, int threads) {
  FleetConfig config = FleetConfig::Scaled(shards, 180.0);
  config.threads = threads;
  config.base_seed = 1234;
  return config;
}

void ExpectHistogramsIdentical(const stats::Histogram& a, const stats::Histogram& b) {
  ASSERT_EQ(a.bin_count(), b.bin_count());
  EXPECT_DOUBLE_EQ(a.lo(), b.lo());
  EXPECT_DOUBLE_EQ(a.hi(), b.hi());
  EXPECT_EQ(a.total(), b.total());
  EXPECT_EQ(a.underflow(), b.underflow());
  EXPECT_EQ(a.overflow(), b.overflow());
  for (std::size_t i = 0; i < a.bin_count(); ++i) EXPECT_EQ(a.count(i), b.count(i));
}

// Bit-identical comparison of two characterization reports. Every double is
// compared with exact equality: the determinism invariant promises the same
// bits, not merely close values.
void ExpectReportsIdentical(const CharacterizationReport& a, const CharacterizationReport& b) {
  EXPECT_EQ(a.summary.total_packets(), b.summary.total_packets());
  EXPECT_EQ(a.summary.packets_in(), b.summary.packets_in());
  EXPECT_EQ(a.summary.app_bytes_total(), b.summary.app_bytes_total());
  EXPECT_EQ(a.summary.attempted_connections(), b.summary.attempted_connections());
  EXPECT_EQ(a.summary.established_connections(), b.summary.established_connections());
  EXPECT_EQ(a.summary.refused_connections(), b.summary.refused_connections());
  EXPECT_EQ(a.summary.unique_clients_attempting(), b.summary.unique_clients_attempting());
  EXPECT_EQ(a.summary.first_packet_time(), b.summary.first_packet_time());
  EXPECT_EQ(a.summary.last_packet_time(), b.summary.last_packet_time());
  EXPECT_EQ(a.summary.size_stats_in().mean(), b.summary.size_stats_in().mean());
  EXPECT_EQ(a.summary.size_stats_out().variance(), b.summary.size_stats_out().variance());

  EXPECT_EQ(a.minute_packets_in.values(), b.minute_packets_in.values());
  EXPECT_EQ(a.minute_packets_out.values(), b.minute_packets_out.values());
  EXPECT_EQ(a.minute_bytes_in.values(), b.minute_bytes_in.values());
  EXPECT_EQ(a.minute_bytes_out.values(), b.minute_bytes_out.values());
  EXPECT_EQ(a.vt_base_packets.values(), b.vt_base_packets.values());

  ASSERT_EQ(a.variance_time.points.size(), b.variance_time.points.size());
  for (std::size_t i = 0; i < a.variance_time.points.size(); ++i) {
    EXPECT_EQ(a.variance_time.points[i].normalized_variance,
              b.variance_time.points[i].normalized_variance);
  }
  EXPECT_EQ(a.hurst.small_scale, b.hurst.small_scale);
  EXPECT_EQ(a.hurst.mid_scale, b.hurst.mid_scale);
  EXPECT_EQ(a.hurst.large_scale, b.hurst.large_scale);

  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    EXPECT_EQ(a.sessions[i].client_ip, b.sessions[i].client_ip);
    EXPECT_EQ(a.sessions[i].client_port, b.sessions[i].client_port);
    EXPECT_EQ(a.sessions[i].start, b.sessions[i].start);
    EXPECT_EQ(a.sessions[i].end, b.sessions[i].end);
    EXPECT_EQ(a.sessions[i].packets(), b.sessions[i].packets());
  }
  ExpectHistogramsIdentical(a.session_bandwidth, b.session_bandwidth);
  ExpectHistogramsIdentical(a.size_total, b.size_total);
  ExpectHistogramsIdentical(a.size_in, b.size_in);
  ExpectHistogramsIdentical(a.size_out, b.size_out);
}

// The acceptance-criteria test: same base_seed => bit-identical merged
// report at 1, 2 and 8 worker threads.
TEST(Fleet, ReportIsBitIdenticalAcrossWorkerCounts) {
  const auto one = RunFleet(SmallFleet(3, 1));
  const auto two = RunFleet(SmallFleet(3, 2));
  const auto eight = RunFleet(SmallFleet(3, 8));

  EXPECT_EQ(one.threads_used, 1);
  EXPECT_EQ(two.threads_used, 2);
  EXPECT_EQ(eight.threads_used, 3);  // capped at shard count

  ExpectReportsIdentical(one.report, two.report);
  ExpectReportsIdentical(one.report, eight.report);
  EXPECT_EQ(one.total_players.values(), two.total_players.values());
  EXPECT_EQ(one.total_players.values(), eight.total_players.values());
  EXPECT_EQ(one.total_packets, two.total_packets);
  EXPECT_EQ(one.total_packets, eight.total_packets);
}

// The observability acceptance test: per-shard metrics registries reduce in
// shard order, so the merged registry snapshot is byte-identical at 1, 2
// and 8 worker threads.
TEST(Fleet, MetricsAreBitIdenticalAcrossWorkerCounts) {
  const auto one = RunFleet(SmallFleet(3, 1));
  const auto two = RunFleet(SmallFleet(3, 2));
  const auto eight = RunFleet(SmallFleet(3, 8));

  const std::string baseline = one.metrics.ToJson();
  EXPECT_FALSE(baseline.empty());
  EXPECT_EQ(baseline, two.metrics.ToJson());
  EXPECT_EQ(baseline, eight.metrics.ToJson());

  // The merged registry carries the fleet totals, not one shard's.
  EXPECT_EQ(one.metrics.counter_value("server.packets_emitted"), one.total_packets);
}

TEST(Fleet, TraceLogKeepsPerShardPids) {
  const auto result = RunFleet(SmallFleet(3, 0));
  ASSERT_GT(result.trace_log.size(), 0u);
  std::set<int> pids;
  for (const auto& event : result.trace_log.events()) pids.insert(event.pid);
  EXPECT_EQ(pids, (std::set<int>{0, 1, 2}));
  EXPECT_EQ(result.trace_log.dropped(), 0u);
}

TEST(Fleet, AmbientObsContextReceivesFleetTotals) {
  obs::MetricsRegistry ambient_metrics;
  obs::TraceLog ambient_trace;
  FleetResult result = [&] {
    const obs::ScopedObsBinding bind(
        {.metrics = &ambient_metrics, .trace = &ambient_trace, .heartbeat = false});
    return RunFleet(SmallFleet(2, 1));
  }();
  EXPECT_EQ(ambient_metrics.counter_value("server.packets_emitted"), result.total_packets);
  EXPECT_EQ(ambient_trace.size(), result.trace_log.size());
}

TEST(Fleet, ShardsGetDistinctSubstreamSeedsAndTraffic) {
  const auto result = RunFleet(SmallFleet(4, 0));
  ASSERT_EQ(result.shards.size(), 4u);
  std::set<std::uint64_t> seeds;
  for (const auto& shard : result.shards) {
    EXPECT_EQ(shard.seed, sim::SubstreamSeed(1234, static_cast<std::uint64_t>(shard.shard_id)));
    seeds.insert(shard.seed);
    EXPECT_GT(shard.stats.packets_emitted, 0u);
  }
  EXPECT_EQ(seeds.size(), 4u);

  // Shards produce distinct realizations, not copies of one server.
  EXPECT_NE(result.shards[0].stats.packets_emitted, result.shards[1].stats.packets_emitted);

  // The merged report covers the whole fleet's traffic.
  EXPECT_EQ(result.report.summary.total_packets(), result.total_packets);
}

TEST(Fleet, NamespacingKeepsShardClientsDisjoint) {
  const auto result = RunFleet(SmallFleet(3, 0));
  std::uint64_t per_shard_unique = 0;
  for (const auto& shard : result.shards) per_shard_unique += shard.stats.unique_attempting;
  // With disjoint per-shard IP namespaces the union is the exact sum.
  EXPECT_EQ(result.report.summary.unique_clients_attempting(), per_shard_unique);

  // Every session's address belongs to its shard's namespace: 10/8 .. 12/8.
  for (const auto& session : result.report.sessions) {
    const auto top = session.client_ip.value() >> 24;
    EXPECT_GE(top, 10u);
    EXPECT_LE(top, 12u);
  }
}

TEST(Fleet, MergeReportsEqualsAccumulatorMerge) {
  const FleetConfig config = SmallFleet(2, 1);
  const auto fleet = RunFleet(config);

  // Re-run each shard standalone, finish separately, merge the reports.
  std::vector<CharacterizationReport> reports;
  for (int shard = 0; shard < config.shards; ++shard) {
    game::GameConfig server = config.server;
    server.seed = sim::SubstreamSeed(config.base_seed, static_cast<std::uint64_t>(shard));
    server.client_ip_shift =
        game::ShardIpShift(static_cast<std::uint32_t>(shard), server.sessions.population);
    Characterizer characterizer(config.analysis);
    (void)RunServerTrace(server, characterizer);
    reports.push_back(characterizer.Finish(server.trace_duration));
  }
  auto merged = MergeReports(std::move(reports));

  EXPECT_EQ(merged.summary.total_packets(), fleet.report.summary.total_packets());
  EXPECT_EQ(merged.summary.unique_clients_attempting(),
            fleet.report.summary.unique_clients_attempting());
  EXPECT_EQ(merged.minute_packets_in.values(), fleet.report.minute_packets_in.values());
  EXPECT_EQ(merged.vt_base_packets.values(), fleet.report.vt_base_packets.values());
  EXPECT_EQ(merged.sessions.size(), fleet.report.sessions.size());
  ExpectHistogramsIdentical(merged.size_total, fleet.report.size_total);
  ExpectHistogramsIdentical(merged.session_bandwidth, fleet.report.session_bandwidth);
  EXPECT_EQ(merged.hurst.mid_scale, fleet.report.hurst.mid_scale);
}

TEST(Fleet, Validation) {
  FleetConfig bad = SmallFleet(0, 1);
  EXPECT_THROW((void)RunFleet(bad), gametrace::ContractViolation);
  // The packed namespace admits game::MaxDisjointServers(population)
  // servers - 251,904 at the default 9000-identity pool - and rejects the
  // first id beyond it.
  bad.shards = 300000;
  EXPECT_THROW((void)RunFleet(bad), gametrace::ContractViolation);
  // A negative worker count is a caller bug, not "all cores".
  FleetConfig negative = SmallFleet(2, -1);
  EXPECT_THROW((void)RunFleet(negative), gametrace::ContractViolation);
  EXPECT_THROW((void)MergeReports({}), gametrace::ContractViolation);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(64);
  ParallelFor(64, 4, [&](int i) { hits[static_cast<std::size_t>(i)].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  int serial = 0;
  ParallelFor(5, 1, [&](int) { ++serial; });
  EXPECT_EQ(serial, 5);

  ParallelFor(0, 4, [](int) { FAIL() << "no work expected"; });
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      ParallelFor(16, 4,
                  [](int i) {
                    if (i == 7) throw std::runtime_error("shard failure");
                  }),
      std::runtime_error);
}

TEST(ParallelFor, RejectsNegativeWorkerCount) {
  EXPECT_THROW(ParallelFor(4, -1, [](int) {}), gametrace::ContractViolation);
}

TEST(SubstreamSeed, DeterministicAndPositionIndependent) {
  EXPECT_EQ(sim::SubstreamSeed(42, 0), sim::SubstreamSeed(42, 0));
  EXPECT_NE(sim::SubstreamSeed(42, 0), sim::SubstreamSeed(42, 1));
  EXPECT_NE(sim::SubstreamSeed(42, 0), sim::SubstreamSeed(43, 0));
  // Distinct substreams produce distinct generator output.
  sim::Rng a = sim::Rng::ForSubstream(7, 0);
  sim::Rng b = sim::Rng::ForSubstream(7, 1);
  EXPECT_NE(a(), b());
}

}  // namespace
}  // namespace gametrace::core
