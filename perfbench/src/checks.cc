#include "checks.h"

#include <cstring>
#include <sstream>

#include "router/device_stats.h"

namespace perfbench {

namespace gt = gametrace;

namespace {

class Writer {
 public:
  template <typename T>
  void Put(T value) {
    char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    out_.append(bytes, sizeof(T));
  }
  void Series(const gt::stats::TimeSeries& series) {
    Put(series.start_time());
    Put(series.interval());
    Put(series.dropped_before_start());
    Put(series.size());
    for (double v : series.values()) Put(v);
  }
  void Hist(const gt::stats::Histogram& h) {
    Put(h.lo());
    Put(h.hi());
    Put(h.bin_count());
    Put(h.underflow());
    Put(h.overflow());
    Put(h.total());
    for (std::size_t i = 0; i < h.bin_count(); ++i) Put(h.count(i));
  }
  void Stats(const gt::stats::RunningStats& s) {
    Put(s.count());
    Put(s.mean());
    Put(s.variance());
    Put(s.min());
    Put(s.max());
  }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

std::string Fmt(double v) {
  std::ostringstream out;
  out.precision(6);
  out << v;
  return out.str();
}

}  // namespace

void CheckList::Expect(std::string name, bool pass, std::string detail) {
  checks_.push_back(Check{std::move(name), pass, std::move(detail)});
}

void CheckList::ExpectIn(std::string name, double value, double lo, double hi) {
  Expect(std::move(name), value >= lo && value <= hi,
         Fmt(value) + " in [" + Fmt(lo) + ", " + Fmt(hi) + "]");
}

bool CheckList::all_pass() const noexcept {
  for (const Check& check : checks_) {
    if (!check.pass) return false;
  }
  return true;
}

double CheckList::pass_frac() const noexcept {
  if (checks_.empty()) return 0.0;
  std::size_t passed = 0;
  for (const Check& check : checks_) passed += check.pass ? 1 : 0;
  return static_cast<double>(passed) / static_cast<double>(checks_.size());
}

std::string SerializeReport(const gt::core::CharacterizationReport& report) {
  Writer w;
  const gt::trace::TraceSummary& s = report.summary;
  w.Put(s.packets_in());
  w.Put(s.packets_out());
  w.Put(s.app_bytes_in());
  w.Put(s.app_bytes_out());
  w.Put(s.wire_bytes_total());
  w.Stats(s.size_stats_in());
  w.Stats(s.size_stats_out());
  w.Put(s.attempted_connections());
  w.Put(s.established_connections());
  w.Put(s.refused_connections());
  w.Put(s.unique_clients_attempting());
  w.Put(s.unique_clients_establishing());
  w.Put(s.first_packet_time());
  w.Put(s.last_packet_time());
  w.Put(s.duration());
  w.Series(report.minute_packets_in);
  w.Series(report.minute_packets_out);
  w.Series(report.minute_bytes_in);
  w.Series(report.minute_bytes_out);
  w.Series(report.vt_base_packets);
  w.Put(report.variance_time.base_interval);
  w.Put(report.variance_time.base_variance);
  w.Put(report.variance_time.points.size());
  for (const gt::stats::VariancePoint& p : report.variance_time.points) {
    w.Put(p.m);
    w.Put(p.interval_seconds);
    w.Put(p.normalized_variance);
  }
  w.Put(report.hurst.small_scale);
  w.Put(report.hurst.mid_scale);
  w.Put(report.hurst.large_scale);
  w.Put(report.sessions.size());
  for (const gt::trace::Session& session : report.sessions) {
    w.Put(session.client_ip.value());
    w.Put(session.client_port);
    w.Put(session.start);
    w.Put(session.end);
    w.Put(session.packets_in);
    w.Put(session.packets_out);
    w.Put(session.app_bytes_in);
    w.Put(session.app_bytes_out);
  }
  w.Hist(report.session_bandwidth);
  w.Hist(report.size_total);
  w.Hist(report.size_in);
  w.Hist(report.size_out);
  return w.Take();
}

std::string SerializeNatResult(const gt::core::NatExperimentResult& result) {
  Writer w;
  w.Put(result.server.packets_emitted);
  w.Put(result.server.wire_bytes_emitted);
  w.Put(result.server.ticks);
  w.Put(result.livelock_episodes);
  w.Put(result.nat_table_size);
  w.Put(result.server_freezes);
  w.Stats(result.device.delay());
  for (int i = 0; i < gt::router::kSegmentCount; ++i) {
    const auto segment = static_cast<gt::router::Segment>(i);
    w.Put(result.device.packets(segment));
    w.Put(result.device.drops(segment));
    w.Series(result.device.load_series(segment));
  }
  w.Series(result.players);
  return w.Take();
}

void CheckConservation(CheckList& checks, const gt::core::CharacterizationReport& report,
                       std::uint64_t packets_emitted) {
  const std::uint64_t total = report.summary.total_packets();
  checks.Expect("conservation.report_total_equals_emitted", total == packets_emitted,
                std::to_string(total) + " vs " + std::to_string(packets_emitted));
  // In plus out, counted by two independent accumulators: the per-minute
  // load series and the per-direction size histograms.
  const double minute_sum = report.minute_packets_in.Sum() + report.minute_packets_out.Sum() +
                            static_cast<double>(report.minute_packets_in.dropped_before_start() +
                                                report.minute_packets_out.dropped_before_start());
  checks.Expect("conservation.minute_in_plus_out_equals_total",
                minute_sum == static_cast<double>(total),
                Fmt(minute_sum) + " vs " + std::to_string(total));
  const std::uint64_t sized = report.size_in.total() + report.size_out.total();
  checks.Expect("conservation.size_in_plus_out_equals_total",
                sized == total && report.size_total.total() == total,
                std::to_string(sized) + " vs " + std::to_string(total));
}

void CheckPaperBands(CheckList& checks, const gt::trace::TraceSummary& summary,
                     double mean_players, int servers) {
  // Table III means (paper: 80.33 B overall, 39.72 B in, 129.51 B out).
  // Outbound size grows with the player count, which an hour-long window
  // can leave well below the week's average.
  checks.ExpectIn("table3.mean_size_bytes", summary.mean_packet_size(), 65.0, 95.0);
  checks.ExpectIn("table3.mean_size_in_bytes", summary.mean_packet_size_in(), 36.0, 44.0);
  checks.ExpectIn("table3.mean_size_out_bytes", summary.mean_packet_size_out(), 95.0, 160.0);
  // Table II over Fig 3's player count: ~24 pps up and ~20 pps down per
  // player (437.12 / 360.99 pps over ~18 players).
  const double players = mean_players > 0.0 ? mean_players : 1.0;
  checks.ExpectIn("table2.pps_in_per_player", summary.mean_packet_load_in() / players, 20.0,
                  29.0);
  checks.ExpectIn("table2.pps_out_per_player", summary.mean_packet_load_out() / players, 16.0,
                  25.0);
  checks.ExpectIn("table1.mean_players_per_server", mean_players / servers, 12.0, 22.0);
}

void CheckHurst(CheckList& checks, const gt::stats::HurstRegions& hurst,
                double small_scale_floor) {
  checks.ExpectIn("fig5.hurst_small_scale", hurst.small_scale, small_scale_floor, 0.5);
  checks.ExpectIn("fig5.hurst_mid_scale", hurst.mid_scale, 0.5, 1.0);
}

void CheckNatExperiment(CheckList& checks, const gt::core::NatExperimentResult& result) {
  using gt::router::Segment;
  const gt::router::DeviceStats& d = result.device;
  // Table IV (paper: 1.3% incoming, 0.46% outgoing).
  checks.ExpectIn("table4.loss_incoming", d.loss_rate_incoming(), 0.004, 0.04);
  checks.ExpectIn("table4.loss_outgoing", d.loss_rate_outgoing(), 0.0005, 0.015);
  checks.Expect("table4.incoming_loss_exceeds_outgoing",
                d.loss_rate_incoming() > d.loss_rate_outgoing());
  const std::uint64_t offered = d.metrics().counter_value("nat.device.packets");
  const std::uint64_t entered =
      d.packets(Segment::kServerToNat) + d.packets(Segment::kClientsToNat);
  checks.Expect("conservation.nat_offered_equals_entry_segments", offered == entered,
                std::to_string(offered) + " vs " + std::to_string(entered));
  const std::uint64_t left = d.packets(Segment::kNatToClients) + d.packets(Segment::kNatToServer);
  const std::uint64_t dropped = d.metrics().counter_value("nat.device.drops");
  checks.Expect("conservation.nat_left_plus_dropped_within_offered", left + dropped <= offered,
                std::to_string(left + dropped) + " <= " + std::to_string(offered));
  checks.Expect("conservation.nat_offered_within_emitted",
                offered <= result.server.packets_emitted && offered > 0,
                std::to_string(offered) + " <= " + std::to_string(result.server.packets_emitted));
}

double MeanPlayers(const gt::stats::TimeSeries& players) {
  return players.empty() ? 0.0 : players.Mean();
}

}  // namespace perfbench
