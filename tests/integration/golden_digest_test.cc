// Behaviour lock: golden digests of the library's output surfaces.
//
// Each case runs a fixed-seed workload, serialises its result canonically
// (integers in decimal, doubles as hex floats, so one ulp of drift changes
// the text) and compares the FNV-1a-64 digest of that text with the value
// committed here. A refactor must leave every digest unchanged; on a
// mismatch the test prints the fresh digest. A deliberate change to the
// generated stream updates the constant in the same commit and says why.
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/characterizer.h"
#include "core/experiment.h"
#include "core/fleet.h"
#include "game/config.h"
#include "net/pcap.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/prom.h"
#include "obs/trace_log.h"
#include "obs/watchdog.h"
#include "trace/capture.h"
#include "trace/trace_format.h"

namespace gametrace {
namespace {

std::uint64_t Fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

// Canonical text form: one "name value" token per field.
class Canon {
 public:
  Canon& Field(const char* name, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    out_ << name << ' ' << buf << '\n';
    return *this;
  }
  Canon& Field(const char* name, std::uint64_t v) {
    out_ << name << ' ' << v << '\n';
    return *this;
  }
  Canon& Field(const char* name, int v) { return Field(name, static_cast<double>(v)); }

  void Series(const char* name, const stats::TimeSeries& s) {
    out_ << "series " << name << '\n';
    Field("start", s.start_time()).Field("interval", s.interval());
    Field("dropped", s.dropped_before_start());
    Field("size", std::uint64_t{s.size()});
    for (const double v : s.values()) Field("v", v);
  }

  void Hist(const char* name, const stats::Histogram& h) {
    out_ << "histogram " << name << '\n';
    Field("lo", h.lo()).Field("hi", h.hi());
    Field("bins", std::uint64_t{h.bin_count()});
    for (std::size_t i = 0; i < h.bin_count(); ++i) Field("c", h.count(i));
    Field("under", h.underflow()).Field("over", h.overflow()).Field("total", h.total());
  }

  void Moments(const char* name, const stats::RunningStats& r) {
    out_ << "moments " << name << '\n';
    Field("n", r.count()).Field("mean", r.mean()).Field("var", r.variance());
    Field("min", r.min()).Field("max", r.max());
  }

  void Report(const core::CharacterizationReport& r) {
    const trace::TraceSummary& s = r.summary;
    Field("packets_in", s.packets_in()).Field("packets_out", s.packets_out());
    Field("wire_in", s.wire_bytes_in()).Field("wire_out", s.wire_bytes_out());
    Field("app_in", s.app_bytes_in()).Field("app_out", s.app_bytes_out());
    Field("load", s.mean_packet_load()).Field("bw", s.mean_bandwidth_bps());
    Moments("size_in", s.size_stats_in());
    Moments("size_out", s.size_stats_out());
    Field("attempted", s.attempted_connections());
    Field("established", s.established_connections());
    Field("refused", s.refused_connections());
    Field("uniq_attempting", s.unique_clients_attempting());
    Field("uniq_establishing", s.unique_clients_establishing());
    Field("first", s.first_packet_time()).Field("last", s.last_packet_time());
    Field("duration", s.duration());
    Series("minute_packets_in", r.minute_packets_in);
    Series("minute_packets_out", r.minute_packets_out);
    Series("minute_bytes_in", r.minute_bytes_in);
    Series("minute_bytes_out", r.minute_bytes_out);
    Series("vt_base_packets", r.vt_base_packets);
    Field("vt_base_interval", r.variance_time.base_interval);
    Field("vt_base_variance", r.variance_time.base_variance);
    for (const stats::VariancePoint& p : r.variance_time.points) {
      Field("vt_m", p.interval_seconds).Field("vt_nv", p.normalized_variance);
      Field("vt_lm", p.log10_m).Field("vt_lnv", p.log10_normalized_variance);
    }
    Field("h_small", r.hurst.small_scale).Field("h_mid", r.hurst.mid_scale);
    Field("h_large", r.hurst.large_scale);
    Field("sessions", std::uint64_t{r.sessions.size()});
    for (const trace::Session& x : r.sessions) {
      Field("ip", std::uint64_t{x.client_ip.value()}).Field("port", std::uint64_t{x.client_port});
      Field("start", x.start).Field("end", x.end);
      Field("pin", x.packets_in).Field("pout", x.packets_out);
      Field("bin", x.app_bytes_in).Field("bout", x.app_bytes_out);
    }
    Hist("session_bandwidth", r.session_bandwidth);
    Hist("size_total", r.size_total);
    Hist("size_in", r.size_in);
    Hist("size_out", r.size_out);
  }

  void ServerStats(const game::CsServer::Stats& s) {
    Field("attempts", s.attempts).Field("established", s.established);
    Field("refused", s.refused).Field("orderly", s.orderly_disconnects);
    Field("outage_disc", s.outage_disconnects);
    Field("uniq_attempting", s.unique_attempting);
    Field("uniq_establishing", s.unique_establishing);
    Field("maps", s.maps_played).Field("rounds", s.rounds_played);
    Field("peak", s.peak_players).Field("ticks", s.ticks);
    Field("packets", s.packets_emitted).Field("wire", s.wire_bytes_emitted);
    Field("downloads", s.downloads_started);
  }

  void Text(const char* name, const std::string& text) { out_ << name << '\n' << text << '\n'; }

  [[nodiscard]] std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

void ExpectDigest(const char* surface, const std::string& canonical, std::uint64_t golden) {
  const std::uint64_t fresh = Fnv1a64(canonical);
  EXPECT_EQ(fresh, golden) << surface << ": output changed; fresh digest " << Hex(fresh)
                           << " (" << canonical.size() << " canonical bytes)";
}

TEST(GoldenDigest, StandaloneServerReport) {
  game::GameConfig config = game::GameConfig::ScaledDefaults(120.0);
  config.seed = 20020101;
  core::Characterizer characterizer;
  const core::ServerTraceResult run = core::RunServerTrace(config, characterizer);
  Canon canon;
  canon.Report(characterizer.Finish(config.trace_duration));
  canon.ServerStats(run.stats);
  canon.Series("players", run.players);
  ExpectDigest("120 s server report", canon.str(), 0x778fe68871e44a68);
}

// A per-process scratch path for a file round trip.
std::string TempPath(const char* tag, const char* extension) {
  return (std::filesystem::temp_directory_path() /
          ("gametrace_golden_" + std::string(tag) + "_" + std::to_string(::getpid()) + extension))
      .string();
}

// The whole file, which is then deleted.
std::string TakeBytes(const std::string& path) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  std::filesystem::remove(path);
  return bytes;
}

// The same 120 s run written to .gtr and drained back into a Characterizer:
// the reader's decode and the fused pass over its 1024-record chunks must
// reproduce the live report's digest exactly.
TEST(GoldenDigest, ServerReportReplayedFromGtr) {
  game::GameConfig config = game::GameConfig::ScaledDefaults(120.0);
  config.seed = 20020101;
  const std::string path = TempPath("replay", ".gtr");
  core::ServerTraceResult run;
  {
    trace::TraceWriter writer(path, config.server);
    run = core::RunServerTrace(config, writer);
    writer.Flush();
  }
  core::Characterizer characterizer;
  {
    trace::TraceReader reader(path);
    EXPECT_EQ(reader.Drain(characterizer), run.stats.packets_emitted);
  }
  std::filesystem::remove(path);
  Canon canon;
  canon.Report(characterizer.Finish(config.trace_duration));
  canon.ServerStats(run.stats);
  canon.Series("players", run.players);
  ExpectDigest("120 s server report replayed from .gtr", canon.str(), 0x778fe68871e44a68);
}

TEST(GoldenDigest, FleetMergedReportAndMetrics) {
  core::FleetConfig config = core::FleetConfig::Scaled(16, 60.0);
  config.base_seed = 7;
  config.threads = 2;
  const core::FleetResult fleet = core::RunFleet(config);
  Canon report;
  report.Report(fleet.report);
  report.Series("total_players", fleet.total_players);
  report.Field("total_packets", fleet.total_packets);
  for (const core::ShardOutcome& shard : fleet.shards) {
    report.Field("seed", shard.seed);
    report.ServerStats(shard.stats);
  }
  ExpectDigest("16-shard fleet report", report.str(), 0x05667eb48ebb208f);
  ExpectDigest("16-shard fleet metrics", fleet.metrics.ToJson(), 0x4e795d3d96a4ac2f);
}

TEST(GoldenDigest, NatExperimentResult) {
  core::NatExperimentConfig config = core::NatExperimentConfig::Defaults();
  config.game.trace_duration = 300.0;
  config.game.maps.map_duration = config.game.trace_duration + 60.0;
  config.game.seed = 4;
  const core::NatExperimentResult r = core::RunNatExperiment(config);
  Canon canon;
  for (int s = 0; s < router::kSegmentCount; ++s) {
    const auto segment = static_cast<router::Segment>(s);
    canon.Field("packets", r.device.packets(segment)).Field("drops", r.device.drops(segment));
    canon.Series(router::SegmentSlug(segment), r.device.load_series(segment));
  }
  canon.Moments("delay", r.device.delay());
  canon.Field("p50", r.device.delay_p50()).Field("p99", r.device.delay_p99());
  canon.Text("device_metrics", r.device.metrics().ToJson());
  canon.ServerStats(r.server);
  canon.Field("livelock", r.livelock_episodes);
  canon.Field("nat_table", std::uint64_t{r.nat_table_size});
  canon.Field("freezes", r.server_freezes).Field("qoe_quits", r.qoe_quits);
  canon.Series("players", r.players);
  ExpectDigest("300 s NAT experiment", canon.str(), 0x0854647fe69d1c6d);
}

// The observability surfaces of a run in which a watchdog fires: the 120 s
// Table IV overload of FlightBlackbox.NatOverloadRaisesTheMeltdownAlert-
// OnSchedule (meltdown alert at t=60). Flight JSONL, alerts JSONL and the
// Prometheus text of the ambient registry. The cost ledger stays off in
// this binding, so no wall-clock ledger.* entries reach any of the three.
TEST(GoldenDigest, NatObservabilitySurfaces) {
  obs::MetricsRegistry metrics;
  obs::TraceLog trace;
  obs::FlightRecorder recorder(obs::FlightRecorder::Options{.sample_period_seconds = 60.0});
  obs::WatchdogEngine watchdog(obs::WatchdogEngine::BuiltinRules());
  {
    const obs::ScopedObsBinding bind({.metrics = &metrics,
                                      .trace = &trace,
                                      .recorder = &recorder,
                                      .watchdog = &watchdog,
                                      .heartbeat = false});
    auto config = core::NatExperimentConfig::Defaults();
    config.game.trace_duration = 120.0;
    config.game.maps.map_duration = 180.0;
    (void)core::RunNatExperiment(config);
  }
  std::ostringstream prom;
  obs::WritePrometheusText(metrics, prom);
  Canon canon;
  canon.Text("flight", recorder.ToJsonl());
  canon.Text("alerts", watchdog.ToJsonl());
  canon.Text("prometheus", prom.str());
  EXPECT_EQ(canon.str().find("ledger"), std::string::npos);
  ExpectDigest("120 s NAT flight/alerts/prom", canon.str(), 0x976eed15c0c30088);
  ExpectDigest("120 s NAT trace", trace.ToJson(), 0x1e041bee35346b7a);
}

// The same surfaces of a plain server run, where every server count reaches
// the registry without a NAT device: a 300 s calibrated run bound to
// metrics, trace, recorder and watchdog. The ambient metrics JSON, flight
// JSONL, alerts JSONL, Prometheus text and trace JSON are digested together.
TEST(GoldenDigest, ServerObservabilitySurfaces) {
  obs::MetricsRegistry metrics;
  obs::TraceLog trace;
  obs::FlightRecorder recorder(obs::FlightRecorder::Options{.sample_period_seconds = 60.0});
  obs::WatchdogEngine watchdog(obs::WatchdogEngine::BuiltinRules());
  {
    const obs::ScopedObsBinding bind({.metrics = &metrics,
                                      .trace = &trace,
                                      .recorder = &recorder,
                                      .watchdog = &watchdog,
                                      .heartbeat = false});
    game::GameConfig config = game::GameConfig::ScaledDefaults(300.0);
    config.seed = 20020101;
    trace::CountingSink sink;
    (void)core::RunServerTrace(config, sink);
  }
  std::ostringstream prom;
  obs::WritePrometheusText(metrics, prom);
  Canon canon;
  canon.Text("metrics", metrics.ToJson());
  canon.Text("flight", recorder.ToJsonl());
  canon.Text("alerts", watchdog.ToJsonl());
  canon.Text("prometheus", prom.str());
  canon.Text("trace", trace.ToJson());
  EXPECT_EQ(canon.str().find("ledger"), std::string::npos);
  ExpectDigest("300 s server metrics/flight/alerts/prom/trace", canon.str(), 0x982f40d831e11001);
}

TEST(GoldenDigest, TraceWriterBytes) {
  game::GameConfig config = game::GameConfig::ScaledDefaults(60.0);
  config.seed = 99;
  const std::string path = TempPath("bytes", ".gtr");
  {
    trace::TraceWriter writer(path, config.server);
    (void)core::RunServerTrace(config, writer);
    writer.Flush();
  }
  ExpectDigest("60 s .gtr bytes", TakeBytes(path), 0xf837279464a64552);
}

// A 60 s run written to pcap, read back and written again: every field a
// record carries, the connectionless kind tag included, survives the
// frame, so the second file equals the first byte for byte.
TEST(GoldenDigest, PcapRoundTripBytes) {
  game::GameConfig config = game::GameConfig::ScaledDefaults(60.0);
  config.seed = 99;
  const std::string first = TempPath("first", ".pcap");
  const std::string second = TempPath("second", ".pcap");
  {
    net::PcapWriter writer(first);
    trace::CallbackSink sink(
        [&](const net::PacketRecord& r) { writer.WriteRecord(r, config.server); });
    (void)core::RunServerTrace(config, sink);
    writer.Flush();
  }
  {
    net::PcapReader reader(first);
    net::PcapWriter writer(second);
    std::uint64_t skipped = 0;
    for (const net::PacketRecord& r : reader.ReadAllRecords(config.server, &skipped)) {
      writer.WriteRecord(r, config.server);
    }
    writer.Flush();
    EXPECT_EQ(skipped, 0u);
  }
  const std::string bytes = TakeBytes(first);
  EXPECT_TRUE(TakeBytes(second) == bytes) << "pcap write -> read -> write changed the bytes";
  ExpectDigest("60 s pcap bytes", bytes, 0x7f81a4fe76280ce7);
}

}  // namespace
}  // namespace gametrace
