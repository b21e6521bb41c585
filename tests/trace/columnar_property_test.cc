// Batch-split invariance over the one delivery tier (capture.h OnColumns):
// a sink's result depends only on the record sequence, never on where it
// is split into batches. ColumnarProperty delivers a synthetic stream as
// one-row batches, 50 ms tick batches and 4096-record chunks (Replay);
// BatchProperty replays CsServer's own stream with the batch boundaries
// the server emitted against one-row delivery; CharacterizerOracle checks
// the Characterizer's fused pass against its standalone constituents. Doubles are compared with
// EXPECT_EQ (exact equality) - the contract is bit-identity, not
// approximation.
#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/characterizer.h"
#include "game/config.h"
#include "game/cs_server.h"
#include "net/packet_batch.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "stats/histogram.h"
#include "stats/time_series.h"
#include "trace/aggregator.h"
#include "trace/capture.h"
#include "trace/loss_estimator.h"
#include "trace/session_tracker.h"
#include "trace/summary.h"

namespace gametrace::trace {
namespace {

// Small endpoint pool, mostly game updates with occasional handshakes,
// monotone timestamps with rare idle gaps long enough to trip the session
// timeout.
std::vector<net::PacketRecord> RandomStream(std::uint64_t seed, std::size_t n) {
  sim::Rng rng(seed);
  std::vector<net::PacketRecord> out;
  out.reserve(n);
  constexpr std::size_t kClients = 8;
  std::uint32_t seq_in[kClients] = {};
  std::uint32_t seq_out[kClients] = {};
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.NextDouble();
    t += u < 0.997 ? 0.002 * rng.NextDouble() : 31.0 + 10.0 * rng.NextDouble();

    const auto c = static_cast<std::uint32_t>(rng.NextBelow(kClients));
    net::PacketRecord r;
    r.timestamp = t;
    r.client_ip = net::Ipv4Address((10u << 24) | (c + 1));
    r.client_port = static_cast<std::uint16_t>(30000 + c);
    r.app_bytes = static_cast<std::uint16_t>(20 + rng.NextBelow(400));
    r.direction = rng.NextBelow(3) == 0 ? net::Direction::kClientToServer
                                        : net::Direction::kServerToClient;
    const std::uint64_t k = rng.NextBelow(100);
    if (k < 92) {
      r.kind = net::PacketKind::kGameUpdate;
      r.seq = r.direction == net::Direction::kClientToServer ? ++seq_in[c] : ++seq_out[c];
    } else if (k < 94) {
      r.kind = net::PacketKind::kConnectRequest;
      r.direction = net::Direction::kClientToServer;
    } else if (k < 96) {
      r.kind = net::PacketKind::kConnectAccept;
      r.direction = net::Direction::kServerToClient;
    } else if (k < 97) {
      r.kind = net::PacketKind::kConnectReject;
      r.direction = net::Direction::kServerToClient;
    } else if (k < 98) {
      r.kind = net::PacketKind::kDisconnect;
      r.direction = net::Direction::kClientToServer;
    } else {
      r.kind = net::PacketKind::kChat;
      r.seq = r.direction == net::Direction::kClientToServer ? ++seq_in[c] : ++seq_out[c];
    }
    out.push_back(r);
  }
  return out;
}

void FeedRows(const std::vector<net::PacketRecord>& records, CaptureSink& sink) {
  for (const net::PacketRecord& r : records) sink.OnColumns(net::PacketRow(r).View());
}

// One batch per 50 ms server tick window, with an empty batch after every
// 16th tick (producers may legally hand over empty batches).
void FeedTicks(const std::vector<net::PacketRecord>& records, CaptureSink& sink) {
  constexpr double kTick = 0.050;
  const std::span<const net::PacketRecord> all(records);
  net::ColumnarBatch columns;
  std::size_t ticks = 0;
  std::size_t i = 0;
  while (i < all.size()) {
    const auto tick = static_cast<std::uint64_t>(all[i].timestamp / kTick);
    std::size_t j = i + 1;
    while (j < all.size() && static_cast<std::uint64_t>(all[j].timestamp / kTick) == tick) ++j;
    columns.Clear();
    columns.Append(all.subspan(i, j - i));
    sink.OnColumns(columns.View());
    if (++ticks % 16 == 0) sink.OnColumns(net::PacketBatch{});
    i = j;
  }
}

// The three deliveries every property compares: one-row batches (the
// reference), tick batches and 4096-record chunks (Replay).
void FeedThreeWays(const std::vector<net::PacketRecord>& records, CaptureSink& rows,
                   CaptureSink& ticks, CaptureSink& chunks) {
  FeedRows(records, rows);
  FeedTicks(records, ticks);
  Replay(records, chunks);
}

void ExpectSeriesIdentical(const stats::TimeSeries& a, const stats::TimeSeries& b) {
  EXPECT_EQ(a.start_time(), b.start_time());
  EXPECT_EQ(a.interval(), b.interval());
  EXPECT_EQ(a.dropped_before_start(), b.dropped_before_start());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.values(), b.values());
}

void ExpectHistogramIdentical(const stats::Histogram& a, const stats::Histogram& b) {
  ASSERT_EQ(a.bin_count(), b.bin_count());
  for (std::size_t i = 0; i < a.bin_count(); ++i) EXPECT_EQ(a.count(i), b.count(i));
  EXPECT_EQ(a.underflow(), b.underflow());
  EXPECT_EQ(a.overflow(), b.overflow());
  EXPECT_EQ(a.total(), b.total());
}

void ExpectSummaryIdentical(const TraceSummary& a, const TraceSummary& b) {
  EXPECT_EQ(a.packets_in(), b.packets_in());
  EXPECT_EQ(a.packets_out(), b.packets_out());
  EXPECT_EQ(a.app_bytes_in(), b.app_bytes_in());
  EXPECT_EQ(a.app_bytes_out(), b.app_bytes_out());
  EXPECT_EQ(a.wire_bytes_total(), b.wire_bytes_total());
  EXPECT_EQ(a.attempted_connections(), b.attempted_connections());
  EXPECT_EQ(a.established_connections(), b.established_connections());
  EXPECT_EQ(a.refused_connections(), b.refused_connections());
  EXPECT_EQ(a.unique_clients_attempting(), b.unique_clients_attempting());
  EXPECT_EQ(a.unique_clients_establishing(), b.unique_clients_establishing());
  EXPECT_EQ(a.first_packet_time(), b.first_packet_time());
  EXPECT_EQ(a.last_packet_time(), b.last_packet_time());
  EXPECT_EQ(a.size_stats_in().count(), b.size_stats_in().count());
  EXPECT_EQ(a.size_stats_in().mean(), b.size_stats_in().mean());
  EXPECT_EQ(a.size_stats_in().variance(), b.size_stats_in().variance());
  EXPECT_EQ(a.size_stats_in().min(), b.size_stats_in().min());
  EXPECT_EQ(a.size_stats_in().max(), b.size_stats_in().max());
  EXPECT_EQ(a.size_stats_out().count(), b.size_stats_out().count());
  EXPECT_EQ(a.size_stats_out().mean(), b.size_stats_out().mean());
  EXPECT_EQ(a.size_stats_out().variance(), b.size_stats_out().variance());
  EXPECT_EQ(a.size_stats_out().min(), b.size_stats_out().min());
  EXPECT_EQ(a.size_stats_out().max(), b.size_stats_out().max());
}

void ExpectSessionsIdentical(const std::vector<Session>& a, const std::vector<Session>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].client_ip, b[i].client_ip);
    EXPECT_EQ(a[i].client_port, b[i].client_port);
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].end, b[i].end);
    EXPECT_EQ(a[i].packets_in, b[i].packets_in);
    EXPECT_EQ(a[i].packets_out, b[i].packets_out);
    EXPECT_EQ(a[i].app_bytes_in, b[i].app_bytes_in);
    EXPECT_EQ(a[i].app_bytes_out, b[i].app_bytes_out);
  }
}

void ExpectReportIdentical(const core::CharacterizationReport& a,
                           const core::CharacterizationReport& b) {
  ExpectSummaryIdentical(a.summary, b.summary);
  ExpectSeriesIdentical(a.minute_packets_in, b.minute_packets_in);
  ExpectSeriesIdentical(a.minute_packets_out, b.minute_packets_out);
  ExpectSeriesIdentical(a.minute_bytes_in, b.minute_bytes_in);
  ExpectSeriesIdentical(a.minute_bytes_out, b.minute_bytes_out);
  ExpectSeriesIdentical(a.vt_base_packets, b.vt_base_packets);
  ExpectSessionsIdentical(a.sessions, b.sessions);
  ExpectHistogramIdentical(a.session_bandwidth, b.session_bandwidth);
  ExpectHistogramIdentical(a.size_total, b.size_total);
  ExpectHistogramIdentical(a.size_in, b.size_in);
  ExpectHistogramIdentical(a.size_out, b.size_out);
}

constexpr std::size_t kStreamLen = 20000;

// ---- SoA round-trip ----------------------------------------------------

TEST(PacketBatch, RecordRoundTripIsExact) {
  const auto records = RandomStream(40, 512);
  net::ColumnarBatch columns;
  columns.Append(records);
  const net::PacketBatch view = columns.View();
  ASSERT_EQ(view.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(view.RecordAt(i), records[i]);
  }
  std::vector<net::PacketRecord> back;
  view.MaterializeInto(back);
  EXPECT_EQ(back, records);
}

TEST(PacketBatch, PushFromCopiesSingleRows) {
  const auto records = RandomStream(41, 256);
  net::ColumnarBatch all;
  all.Append(records);
  net::ColumnarBatch odd;
  for (std::size_t i = 1; i < records.size(); i += 2) odd.PushFrom(all.View(), i);
  const net::PacketBatch view = odd.View();
  ASSERT_EQ(view.size(), records.size() / 2);
  for (std::size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view.RecordAt(i), records[2 * i + 1]);
  }
}

TEST(PacketBatch, RowViewReconstructsTheRecord) {
  for (const net::PacketRecord& r : RandomStream(42, 64)) {
    const net::PacketRow row(r);
    const net::PacketBatch view = row.View();
    ASSERT_EQ(view.size(), 1u);
    EXPECT_EQ(view.RecordAt(0), r);
  }
}

// ---- Per-sink batch-split invariance -------------------------------------

TEST(ColumnarProperty, CountingSinkIdentical) {
  CountingSink rows, ticks, chunks;
  FeedThreeWays(RandomStream(41, kStreamLen), rows, ticks, chunks);
  for (const CountingSink* batched : {&ticks, &chunks}) {
    EXPECT_EQ(rows.packets(), batched->packets());
    EXPECT_EQ(rows.packets_in(), batched->packets_in());
    EXPECT_EQ(rows.packets_out(), batched->packets_out());
    EXPECT_EQ(rows.app_bytes(), batched->app_bytes());
  }
}

TEST(ColumnarProperty, VectorSinkIdentical) {
  const auto records = RandomStream(42, kStreamLen);
  VectorSink rows, ticks, chunks;
  FeedThreeWays(records, rows, ticks, chunks);
  EXPECT_EQ(rows.records(), records);
  EXPECT_EQ(ticks.records(), records);
  EXPECT_EQ(chunks.records(), records);
}

TEST(ColumnarProperty, TeeSinkIdentical) {
  const auto records = RandomStream(43, kStreamLen);
  CountingSink counting[3];
  VectorSink vec[3];
  TeeSink tee[3];
  for (int i = 0; i < 3; ++i) {
    tee[i].Attach(counting[i]);
    tee[i].Attach(vec[i]);
  }
  FeedThreeWays(records, tee[0], tee[1], tee[2]);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(counting[i].packets(), records.size());
    EXPECT_EQ(counting[i].app_bytes(), counting[0].app_bytes());
    EXPECT_EQ(vec[i].records(), records);
  }
}

TEST(ColumnarProperty, LoadAggregatorIdentical) {
  // Bins start at t = 1 s so the before-start path is exercised too.
  LoadAggregator rows(60.0, 1.0), ticks(60.0, 1.0), chunks(60.0, 1.0);
  FeedThreeWays(RandomStream(45, kStreamLen), rows, ticks, chunks);
  EXPECT_GT(rows.packets_out().dropped_before_start(), 0u);
  for (const LoadAggregator* batched : {&ticks, &chunks}) {
    ExpectSeriesIdentical(rows.packets_in(), batched->packets_in());
    ExpectSeriesIdentical(rows.packets_out(), batched->packets_out());
    ExpectSeriesIdentical(rows.wire_bytes_in(), batched->wire_bytes_in());
    ExpectSeriesIdentical(rows.wire_bytes_out(), batched->wire_bytes_out());
  }
}

TEST(ColumnarProperty, TraceSummaryIdentical) {
  TraceSummary rows, ticks, chunks;
  FeedThreeWays(RandomStream(46, kStreamLen), rows, ticks, chunks);
  ExpectSummaryIdentical(rows, ticks);
  ExpectSummaryIdentical(rows, chunks);
}

TEST(ColumnarProperty, SessionTrackerIdentical) {
  SessionTracker rows(30.0), ticks(30.0), chunks(30.0);
  FeedThreeWays(RandomStream(47, kStreamLen), rows, ticks, chunks);
  for (const SessionTracker* batched : {&ticks, &chunks}) {
    EXPECT_EQ(rows.open_sessions(), batched->open_sessions());
    EXPECT_EQ(rows.closed_sessions(), batched->closed_sessions());
    EXPECT_EQ(rows.unique_clients(), batched->unique_clients());
  }
  const std::vector<Session> reference = rows.Finish();
  ExpectSessionsIdentical(reference, ticks.Finish());
  ExpectSessionsIdentical(reference, chunks.Finish());
}

// Sinks that consume one record at a time iterate PacketBatch::RecordAt:
// batching must not change what they see.
TEST(ColumnarProperty, RecordAtATimeSinksIdentical) {
  const auto records = RandomStream(49, kStreamLen);
  std::vector<net::PacketRecord> seen[3];
  CallbackSink rows([&](const net::PacketRecord& r) { seen[0].push_back(r); });
  CallbackSink ticks([&](const net::PacketRecord& r) { seen[1].push_back(r); });
  CallbackSink chunks([&](const net::PacketRecord& r) { seen[2].push_back(r); });
  FeedThreeWays(records, rows, ticks, chunks);
  for (const auto& s : seen) EXPECT_EQ(s, records);

  SeqGapLossEstimator est[3];
  FeedThreeWays(records, est[0], est[1], est[2]);
  for (int i = 1; i < 3; ++i) {
    for (const auto d : {net::Direction::kClientToServer, net::Direction::kServerToClient}) {
      EXPECT_EQ(est[0].Estimate(d).received, est[i].Estimate(d).received);
      EXPECT_EQ(est[0].Estimate(d).expected, est[i].Estimate(d).expected);
      EXPECT_EQ(est[0].Estimate(d).flows, est[i].Estimate(d).flows);
    }
    EXPECT_EQ(est[0].unsequenced_packets(), est[i].unsequenced_packets());
  }
}

TEST(ColumnarProperty, CharacterizerReportIdentical) {
  const auto records = RandomStream(51, kStreamLen);
  core::CharacterizationOptions options;
  options.vt_window = 600.0;
  core::Characterizer rows(options), ticks(options), chunks(options);
  FeedThreeWays(records, rows, ticks, chunks);
  const double end = records.back().timestamp;
  const core::CharacterizationReport reference = rows.Finish(end);
  ExpectReportIdentical(reference, ticks.Finish(end));
  ExpectReportIdentical(reference, chunks.Finish(end));
}

// ---- The server's own stream -------------------------------------------
//
// The same property on CsServer's traffic, replayed with the exact batch
// boundaries the server emitted: tick batches whose timestamps are globally
// out of order (client sends are pre-dated within the tick window), and
// one-row batches for the handshakes and downloads between ticks. Each
// sink fed those batches must match the same sink fed one-row batches.

struct LiveCapture {
  std::vector<net::PacketRecord> records;
  std::vector<std::size_t> batch_sizes;
};

class BatchRecorder final : public CaptureSink {
 public:
  explicit BatchRecorder(LiveCapture& out) : out_(&out) {}
  void OnColumns(const net::PacketBatch& batch) override {
    batch.MaterializeInto(out_->records);
    out_->batch_sizes.push_back(batch.count);
  }

 private:
  LiveCapture* out_;
};

const LiveCapture& SharedLiveCapture() {
  static const LiveCapture capture = [] {
    LiveCapture c;
    BatchRecorder recorder(c);
    sim::Simulator simulator;
    game::CsServer server(simulator, game::GameConfig::ScaledDefaults(300.0), recorder);
    server.Run();
    return c;
  }();
  return capture;
}

void FeedLiveBatches(CaptureSink& sink) {
  const LiveCapture& c = SharedLiveCapture();
  const std::span<const net::PacketRecord> all(c.records);
  net::ColumnarBatch columns;
  std::size_t at = 0;
  for (const std::size_t n : c.batch_sizes) {
    columns.Clear();
    columns.Append(all.subspan(at, n));
    sink.OnColumns(columns.View());
    at += n;
  }
}

// Feeds `live` the server's batches and `rows` the same stream row by row.
void FeedLiveAndRows(CaptureSink& live, CaptureSink& rows) {
  FeedLiveBatches(live);
  FeedRows(SharedLiveCapture().records, rows);
}

TEST(BatchProperty, CountingSinkIdentical) {
  CountingSink live, rows;
  FeedLiveAndRows(live, rows);
  EXPECT_EQ(live.packets(), SharedLiveCapture().records.size());
  EXPECT_EQ(live.packets_in(), rows.packets_in());
  EXPECT_EQ(live.packets_out(), rows.packets_out());
  EXPECT_EQ(live.app_bytes(), rows.app_bytes());
}

TEST(BatchProperty, VectorSinkIdentical) {
  VectorSink live, rows;
  FeedLiveAndRows(live, rows);
  EXPECT_EQ(live.records(), SharedLiveCapture().records);
  EXPECT_EQ(rows.records(), SharedLiveCapture().records);
}

TEST(BatchProperty, LoadAggregatorIdentical) {
  // 10 ms bins: tick batches span several bins, and their pre-dated
  // client sends break same-bin runs mid-batch.
  LoadAggregator live(0.010), rows(0.010);
  FeedLiveAndRows(live, rows);
  ExpectSeriesIdentical(live.packets_in(), rows.packets_in());
  ExpectSeriesIdentical(live.packets_out(), rows.packets_out());
  ExpectSeriesIdentical(live.wire_bytes_in(), rows.wire_bytes_in());
  ExpectSeriesIdentical(live.wire_bytes_out(), rows.wire_bytes_out());
}

TEST(BatchProperty, TraceSummaryIdentical) {
  TraceSummary live, rows;
  FeedLiveAndRows(live, rows);
  EXPECT_GT(live.attempted_connections(), 0u);
  ExpectSummaryIdentical(live, rows);
}

TEST(BatchProperty, SessionTrackerIdentical) {
  SessionTracker live(5.0), rows(5.0);
  FeedLiveAndRows(live, rows);
  EXPECT_EQ(live.unique_clients(), rows.unique_clients());
  ExpectSessionsIdentical(live.Finish(), rows.Finish());
}

TEST(BatchProperty, CharacterizerReportIdentical) {
  // Non-default geometry: 10 s load bins, a 120 s variance-time window
  // and a short idle timeout that closes sessions mid-stream.
  core::CharacterizationOptions options;
  options.minute_interval = 10.0;
  options.vt_window = 120.0;
  options.session_idle_timeout = 5.0;
  core::Characterizer live(options), rows(options);
  FeedLiveAndRows(live, rows);
  ExpectReportIdentical(live.Finish(300.0), rows.Finish(300.0));
}

// End to end: a characterizer fed live per-tick batches by the server must
// produce the same report as one fed the captured stream record by record.
TEST(BatchProperty, LiveServerBatchesMatchScalarReplay) {
  game::GameConfig cfg = game::GameConfig::ScaledDefaults(600.0);
  sim::Simulator simulator;
  core::CharacterizationOptions options;
  options.vt_window = 600.0;
  core::Characterizer live(options);
  VectorSink capture;
  TeeSink tee;
  tee.Attach(capture);
  tee.Attach(live);
  game::CsServer server(simulator, cfg, tee);
  server.Run();

  core::Characterizer replayed(options);
  FeedRows(capture.records(), replayed);
  ExpectReportIdentical(live.Finish(cfg.trace_duration), replayed.Finish(cfg.trace_duration));
}

// ---- The fused Characterizer pass against its definition ----------------
//
// Characterizer::OnColumns runs the summary, variance-time and packet-size
// updates in one fused per-record loop and counts sizes in exact value
// tables. Its report must equal the standalone constituents (TraceSummary,
// LoadAggregator, SessionTracker) plus scalar TimeSeries::Add and
// Histogram::Add per packet, fed the same stream at any batch size.

// RandomStream with every 7th size replaced by an edge value of the size
// histograms: in range, at and just above each tested size_histogram_max,
// and the u16 maximum.
std::vector<net::PacketRecord> SizeEdgeStream(std::uint64_t seed, std::size_t n) {
  constexpr std::uint16_t kEdges[] = {0, 199, 200, 201, 499, 500, 501, 1000, 1001, 65535};
  std::vector<net::PacketRecord> records = RandomStream(seed, n);
  std::size_t e = 0;
  for (std::size_t i = 0; i < records.size(); i += 7) {
    records[i].app_bytes = kEdges[e++ % std::size(kEdges)];
  }
  return records;
}

void FeedChunks(const std::vector<net::PacketRecord>& records, std::size_t chunk,
                CaptureSink& sink) {
  const std::span<const net::PacketRecord> all(records);
  net::ColumnarBatch columns;
  for (std::size_t i = 0; i < all.size(); i += chunk) {
    columns.Clear();
    columns.Append(all.subspan(i, std::min(chunk, all.size() - i)));
    sink.OnColumns(columns.View());
  }
}

core::CharacterizationReport OracleReport(const std::vector<net::PacketRecord>& records,
                                          const core::CharacterizationOptions& o, double end) {
  TraceSummary summary(o.wire_overhead);
  LoadAggregator minute(o.minute_interval, 0.0, o.wire_overhead);
  SessionTracker sessions(o.session_idle_timeout);
  FeedRows(records, summary);
  FeedRows(records, minute);
  FeedRows(records, sessions);
  constexpr std::size_t kSizeBins = 500;
  stats::TimeSeries vt(0.0, o.vt_base_interval);
  stats::Histogram size_total(0.0, o.size_histogram_max, kSizeBins);
  stats::Histogram size_in(0.0, o.size_histogram_max, kSizeBins);
  stats::Histogram size_out(0.0, o.size_histogram_max, kSizeBins);
  for (const net::PacketRecord& r : records) {
    if (r.timestamp < o.vt_window) vt.Add(r.timestamp);
    size_total.Add(r.app_bytes);
    (r.direction == net::Direction::kClientToServer ? size_in : size_out).Add(r.app_bytes);
  }
  summary.set_duration_override(end);
  minute.ExtendTo(end);
  vt.ExtendTo(std::min(end, o.vt_window));
  std::vector<Session> closed = sessions.Finish();
  stats::Histogram bandwidth = SessionTracker::BandwidthHistogram(
      closed, o.session_min_duration, o.session_bw_histogram_max, o.session_bw_bins);
  return core::CharacterizationReport{.summary = summary,
                                      .minute_packets_in = minute.packets_in(),
                                      .minute_packets_out = minute.packets_out(),
                                      .minute_bytes_in = minute.wire_bytes_in(),
                                      .minute_bytes_out = minute.wire_bytes_out(),
                                      .vt_base_packets = vt,
                                      .variance_time = {},
                                      .hurst = {},
                                      .sessions = std::move(closed),
                                      .session_bandwidth = std::move(bandwidth),
                                      .size_total = std::move(size_total),
                                      .size_in = std::move(size_in),
                                      .size_out = std::move(size_out)};
}

void ExpectFusedPassMatchesOracle(double size_histogram_max) {
  const auto records = SizeEdgeStream(52, kStreamLen);
  core::CharacterizationOptions options;
  options.size_histogram_max = size_histogram_max;
  // The variance-time window closes inside a batch at every tested size.
  options.vt_window = records[1500].timestamp;
  const double end = records.back().timestamp;
  const core::CharacterizationReport oracle = OracleReport(records, options, end);
  ASSERT_GT(oracle.size_in.overflow(), 0u);
  ASSERT_GT(oracle.size_out.overflow(), 0u);
  ASSERT_GT(oracle.vt_base_packets.Sum(), 0.0);
  ASSERT_LT(oracle.vt_base_packets.Sum(), static_cast<double>(records.size()));
  for (const std::size_t chunk : {1, 39, 1024}) {
    SCOPED_TRACE(testing::Message() << "batch size " << chunk);
    core::Characterizer fused(options);
    FeedChunks(records, chunk, fused);
    ExpectReportIdentical(oracle, fused.Finish(end));
  }
}

TEST(CharacterizerOracle, DefaultSizeGeometry) { ExpectFusedPassMatchesOracle(500.0); }

TEST(CharacterizerOracle, SizeHistogramMax200) { ExpectFusedPassMatchesOracle(200.0); }

// 1000.5 B over 500 bins: bins 2.001 B wide, and size 1000 is the last
// value in range.
TEST(CharacterizerOracle, SizeHistogramMaxNonIntegral) { ExpectFusedPassMatchesOracle(1000.5); }

}  // namespace
}  // namespace gametrace::trace
