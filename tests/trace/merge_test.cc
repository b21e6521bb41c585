// Merge correctness for the trace-layer sinks: a merged accumulator must
// equal one accumulator fed the union of the shards' packet streams, and
// the per-server client IP shift must keep shard flows disjoint.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "game/client.h"
#include "game/config.h"
#include "game/cs_server.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "trace/aggregator.h"
#include "trace/capture.h"
#include "trace/session_tracker.h"
#include "trace/summary.h"

#include "core/check.h"

namespace gametrace::trace {
namespace {

net::PacketRecord MakeRecord(double t, net::Direction dir, std::uint16_t bytes,
                             net::PacketKind kind = net::PacketKind::kGameUpdate,
                             std::uint32_t ip = 0x0A000001, std::uint16_t port = 27005) {
  net::PacketRecord r;
  r.timestamp = t;
  r.client_ip = net::Ipv4Address(ip);
  r.client_port = port;
  r.app_bytes = bytes;
  r.direction = dir;
  r.kind = kind;
  return r;
}

// A small synthetic shard stream: handshakes plus game updates from a few
// clients, deterministic per seed.
std::vector<net::PacketRecord> ShardStream(std::uint64_t seed, std::size_t packets) {
  sim::Rng rng(seed);
  std::vector<net::PacketRecord> records;
  records.reserve(packets);
  double t = rng.NextDouble();
  for (std::size_t i = 0; i < packets; ++i) {
    t += 0.02 * rng.NextDouble();
    const std::uint32_t ip = 0x0A000001 + static_cast<std::uint32_t>(rng.NextBelow(5));
    const auto dir = (rng.NextBelow(2) == 0) ? net::Direction::kClientToServer
                                             : net::Direction::kServerToClient;
    auto kind = net::PacketKind::kGameUpdate;
    const auto roll = rng.NextBelow(40);
    if (roll == 0) kind = net::PacketKind::kConnectRequest;
    if (roll == 1) kind = net::PacketKind::kConnectAccept;
    if (roll == 2) kind = net::PacketKind::kConnectReject;
    records.push_back(MakeRecord(t, dir, static_cast<std::uint16_t>(20 + rng.NextBelow(200)),
                                 kind, ip));
  }
  return records;
}

TEST(TraceSummaryMerge, EqualsSinglePassOverInterleavedStream) {
  const auto a_records = ShardStream(1, 700);
  const auto b_records = ShardStream(2, 450);

  // The reference single-pass summary sees the union in time order, as a
  // capture at a shared vantage point would.
  std::vector<net::PacketRecord> interleaved = a_records;
  interleaved.insert(interleaved.end(), b_records.begin(), b_records.end());
  std::sort(interleaved.begin(), interleaved.end(),
            [](const net::PacketRecord& x, const net::PacketRecord& y) {
              return x.timestamp < y.timestamp;
            });

  TraceSummary whole;
  TraceSummary a;
  TraceSummary b;
  for (const auto& r : interleaved) whole.OnPacket(r);
  for (const auto& r : a_records) a.OnPacket(r);
  for (const auto& r : b_records) b.OnPacket(r);
  a.Merge(b);

  EXPECT_EQ(a.total_packets(), whole.total_packets());
  EXPECT_EQ(a.packets_in(), whole.packets_in());
  EXPECT_EQ(a.packets_out(), whole.packets_out());
  EXPECT_EQ(a.app_bytes_in(), whole.app_bytes_in());
  EXPECT_EQ(a.app_bytes_out(), whole.app_bytes_out());
  EXPECT_EQ(a.wire_bytes_total(), whole.wire_bytes_total());
  EXPECT_EQ(a.attempted_connections(), whole.attempted_connections());
  EXPECT_EQ(a.established_connections(), whole.established_connections());
  EXPECT_EQ(a.refused_connections(), whole.refused_connections());
  EXPECT_EQ(a.unique_clients_attempting(), whole.unique_clients_attempting());
  EXPECT_EQ(a.unique_clients_establishing(), whole.unique_clients_establishing());
  EXPECT_DOUBLE_EQ(a.first_packet_time(), whole.first_packet_time());
  EXPECT_DOUBLE_EQ(a.last_packet_time(), whole.last_packet_time());
  EXPECT_NEAR(a.mean_packet_size_in(), whole.mean_packet_size_in(), 1e-9);
  EXPECT_NEAR(a.size_stats_in().variance(), whole.size_stats_in().variance(), 1e-6);
}

TEST(TraceSummaryMerge, EmptyAndOverheadMismatch) {
  TraceSummary a;
  a.OnPacket(MakeRecord(1.0, net::Direction::kClientToServer, 40));
  TraceSummary empty;
  a.Merge(empty);
  EXPECT_EQ(a.total_packets(), 1u);
  EXPECT_DOUBLE_EQ(a.first_packet_time(), 1.0);

  TraceSummary into_empty;
  into_empty.Merge(a);
  EXPECT_EQ(into_empty.total_packets(), 1u);
  EXPECT_DOUBLE_EQ(into_empty.first_packet_time(), 1.0);

  TraceSummary other_overhead(10);
  EXPECT_THROW(a.Merge(other_overhead), gametrace::ContractViolation);
}

TEST(LoadAggregatorMerge, EqualsSinglePassOverConcatenation) {
  const auto a_records = ShardStream(3, 600);
  const auto b_records = ShardStream(4, 800);

  LoadAggregator whole(0.05);
  LoadAggregator a(0.05);
  LoadAggregator b(0.05);
  for (const auto& r : a_records) {
    whole.OnPacket(r);
    a.OnPacket(r);
  }
  for (const auto& r : b_records) {
    whole.OnPacket(r);
    b.OnPacket(r);
  }
  a.Merge(b);

  ASSERT_EQ(a.packets_in().size(), whole.packets_in().size());
  EXPECT_EQ(a.packets_in().values(), whole.packets_in().values());
  EXPECT_EQ(a.packets_out().values(), whole.packets_out().values());
  EXPECT_EQ(a.wire_bytes_in().values(), whole.wire_bytes_in().values());
  EXPECT_EQ(a.wire_bytes_out().values(), whole.wire_bytes_out().values());
}

TEST(LoadAggregatorMerge, RejectsMismatchedGeometry) {
  LoadAggregator a(0.05);
  LoadAggregator interval(0.10);
  LoadAggregator overhead(0.05, 0.0, 10);
  EXPECT_THROW(a.Merge(interval), gametrace::ContractViolation);
  EXPECT_THROW(a.Merge(overhead), gametrace::ContractViolation);
}

TEST(SessionTrackerMerge, DisjointShardsConcatenate) {
  SessionTracker a(30.0);
  SessionTracker b(30.0);
  // Shard A: two clients; shard B: two clients in a different namespace.
  for (int i = 0; i < 10; ++i) {
    a.OnPacket(MakeRecord(i * 1.0, net::Direction::kClientToServer, 40,
                          net::PacketKind::kGameUpdate, 0x0A000001));
    a.OnPacket(MakeRecord(i * 1.0 + 0.5, net::Direction::kServerToClient, 130,
                          net::PacketKind::kGameUpdate, 0x0A000002));
    b.OnPacket(MakeRecord(i * 1.0, net::Direction::kClientToServer, 40,
                          net::PacketKind::kGameUpdate, 0x0B000001));
    b.OnPacket(MakeRecord(i * 1.0 + 0.5, net::Direction::kServerToClient, 130,
                          net::PacketKind::kGameUpdate, 0x0B000002));
  }
  a.Merge(std::move(b));
  EXPECT_EQ(a.open_sessions(), 4u);
  EXPECT_EQ(a.unique_clients(), 4u);
  const auto sessions = a.Finish();
  EXPECT_EQ(sessions.size(), 4u);
  std::uint64_t packets = 0;
  for (const auto& s : sessions) packets += s.packets();
  EXPECT_EQ(packets, 40u);
}

TEST(SessionTrackerMerge, CollidingEndpointFoldsIntoOneSession) {
  SessionTracker a(30.0);
  SessionTracker b(30.0);
  a.OnPacket(MakeRecord(0.0, net::Direction::kClientToServer, 40));
  a.OnPacket(MakeRecord(5.0, net::Direction::kClientToServer, 40));
  b.OnPacket(MakeRecord(2.0, net::Direction::kServerToClient, 130));
  b.OnPacket(MakeRecord(8.0, net::Direction::kServerToClient, 130));
  a.Merge(std::move(b));
  const auto sessions = a.Finish();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_DOUBLE_EQ(sessions[0].start, 0.0);
  EXPECT_DOUBLE_EQ(sessions[0].end, 8.0);
  EXPECT_EQ(sessions[0].packets_in, 2u);
  EXPECT_EQ(sessions[0].packets_out, 2u);
}

TEST(SessionTrackerMerge, RejectsTimeoutMismatch) {
  SessionTracker a(30.0);
  SessionTracker b(10.0);
  EXPECT_THROW(a.Merge(std::move(b)), gametrace::ContractViolation);
}

// ---- Shard IP namespaces (GameConfig::client_ip_shift) --------------------

// Runs a calibrated server with the given client shift and captures every
// emitted record.
std::vector<net::PacketRecord> CaptureServer(std::uint32_t shift) {
  game::GameConfig config = game::GameConfig::ScaledDefaults(30.0);
  config.client_ip_shift = shift;
  sim::Simulator simulator;
  VectorSink capture;
  game::CsServer server(simulator, config, capture);
  server.Start();
  simulator.RunUntil(server.config().trace_duration);
  return capture.TakeRecords();
}

// Every emitted record equals the unshifted run's record plus the shift on
// the client address, and nothing else.
void ExpectShiftedBy(const std::vector<net::PacketRecord>& base,
                     const std::vector<net::PacketRecord>& shifted, std::uint32_t shift) {
  ASSERT_FALSE(base.empty());
  ASSERT_EQ(base.size(), shifted.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    net::PacketRecord expected = base[i];
    expected.client_ip = net::Ipv4Address(base[i].client_ip.value() + shift);
    ASSERT_EQ(shifted[i], expected) << "record " << i;
  }
}

TEST(ShardIpShift, RewritesClientAddressOfEveryRecord) {
  const auto base = CaptureServer(0);
  for (const auto& r : base) ASSERT_EQ(r.client_ip.value() >> 24, 10u);
  ExpectShiftedBy(base, CaptureServer(3u << 24), 3u << 24);  // 10.x -> 13.x
}

TEST(ShardIpShift, PackedShiftAddsHostBitOffsets) {
  // Past 245 servers the shift also carries a sub-namespace offset in the
  // host bits the identity pool leaves unused; the server just adds it.
  const std::size_t population = game::SessionConfig{}.population;
  EXPECT_EQ(game::ShardIpShift(3, population), 3u << 24);
  const std::uint32_t packed = game::ShardIpShift(246 + 3, population);
  EXPECT_EQ(packed, (3u << 24) | 1u);
  ExpectShiftedBy(CaptureServer(0), CaptureServer(packed), packed);
}

TEST(ShardIpShift, DistinctShardsNeverCollide) {
  // Identical per-shard streams stay disjoint after namespacing, so a merged
  // tracker sees every shard's sessions side by side.
  const std::size_t population = game::SessionConfig{}.population;
  SessionTracker single(30.0);
  Replay(CaptureServer(0), single);
  const std::size_t per_shard = single.Finish().size();
  ASSERT_GT(per_shard, 0u);

  SessionTracker merged(30.0);
  for (std::uint32_t shard = 0; shard < 4; ++shard) {
    SessionTracker tracker(30.0);
    Replay(CaptureServer(game::ShardIpShift(shard, population)), tracker);
    merged.Merge(std::move(tracker));
  }
  EXPECT_EQ(merged.Finish().size(), 4 * per_shard);
}

}  // namespace
}  // namespace gametrace::trace
