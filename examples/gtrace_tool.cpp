// gtrace_tool: command-line front end for the trace toolkit.
//
//   gtrace_tool generate <out.gtr|out.pcap> [seconds] [seed]
//   gtrace_tool summarize <trace.gtr|trace.pcap>
//   gtrace_tool convert <in.gtr|in.pcap> <out.gtr|out.pcap>
//   gtrace_tool sessions <trace.gtr|trace.pcap> [top_n]
//   gtrace_tool hurst <trace.gtr|trace.pcap>
//   gtrace_tool loss <trace.gtr|trace.pcap>
//   gtrace_tool fleet <shards> [seconds] [workers] [seed]
//
// Any command additionally accepts the shared observability flags (see
// src/obs/exporter.h): --metrics-out=<json>, --trace-out=<json>,
// --flight-out=<jsonl>, --alerts-out=<jsonl>, --prom-out=<txt>,
// --sched-metrics-out=<json>, --sched-report-out=<json>,
// --sched-trace-out=<json>, --flight-sample=<seconds> and
// --flight-dump=<json>.
//
// Works on traces produced by this toolkit or any UDP/IPv4 pcap whose
// server endpoint matches the default (192.168.0.10:27015).
#include <algorithm>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/characterizer.h"
#include "core/experiment.h"
#include "core/fleet.h"
#include "core/report.h"
#include "game/config.h"
#include "net/pcap.h"
#include "net/units.h"
#include "obs/exporter.h"
#include "stats/rs_hurst.h"
#include "trace/loss_estimator.h"
#include "trace/trace_format.h"

namespace {

using namespace gametrace;

bool HasSuffix(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

// Streams every record of either container format into a sink.
std::uint64_t DrainFile(const std::string& path, trace::CaptureSink& sink,
                        const net::ServerEndpoint& server) {
  if (HasSuffix(path, ".pcap")) {
    net::PcapReader reader(path);
    std::uint64_t skipped = 0;
    std::uint64_t n = 0;
    for (const auto& record : reader.ReadAllRecords(server, &skipped)) {
      sink.OnPacket(record);
      ++n;
    }
    if (skipped > 0) std::cerr << "note: skipped " << skipped << " non-game frames\n";
    return n;
  }
  trace::TraceReader reader(path);
  return reader.Drain(sink);
}

int Generate(const std::vector<std::string>& args) {
  const std::string out = args.at(0);
  const double seconds = args.size() > 1 ? std::stod(args[1]) : 600.0;
  auto config = game::GameConfig::ScaledDefaults(seconds);
  if (args.size() > 2) config.seed = std::stoull(args[2]);

  if (HasSuffix(out, ".pcap")) {
    net::PcapWriter writer(out);
    trace::CallbackSink sink(
        [&](const net::PacketRecord& r) { writer.WriteRecord(r, config.server); });
    core::RunServerTrace(config, sink);
    writer.Flush();
    std::cout << "wrote " << core::FormatCount(writer.packets_written()) << " frames to "
              << out << "\n";
    return 0;
  }
  trace::TraceWriter writer(out, config.server);
  core::RunServerTrace(config, writer);
  writer.Flush();
  std::cout << "wrote " << core::FormatCount(writer.packets_written()) << " records to "
            << out << "\n";
  return 0;
}

int Summarize(const std::vector<std::string>& args) {
  core::Characterizer characterizer;
  const auto n = DrainFile(args.at(0), characterizer, net::ServerEndpoint{});
  auto report = characterizer.Finish();
  const auto& s = report.summary;
  core::TableReport table("Summary of " + args.at(0));
  table.AddCount("Packets", s.total_packets());
  table.AddRow("Span", core::FormatDuration(s.duration()));
  table.AddValue("Mean load", s.mean_packet_load(), "pkts/sec", 1);
  table.AddValue("Mean bandwidth", net::Kbps(s.mean_bandwidth_bps()), "kbps", 0);
  table.AddValue("Mean size in/out", s.mean_packet_size_in(), "B", 1);
  table.AddValue("  (outbound)", s.mean_packet_size_out(), "B", 1);
  table.AddCount("Sessions (reconstructed)", report.sessions.size());
  table.AddCount("Connection attempts", s.attempted_connections());
  table.Print(std::cout);
  return n > 0 ? 0 : 1;
}

int Convert(const std::vector<std::string>& args) {
  const std::string in = args.at(0);
  const std::string out = args.at(1);
  const net::ServerEndpoint server;
  std::uint64_t n = 0;
  if (HasSuffix(out, ".pcap")) {
    net::PcapWriter writer(out);
    trace::CallbackSink sink([&](const net::PacketRecord& r) {
      writer.WriteRecord(r, server);
    });
    n = DrainFile(in, sink, server);
    writer.Flush();
  } else {
    trace::TraceWriter writer(out, server);
    n = DrainFile(in, writer, server);
    writer.Flush();
  }
  std::cout << "converted " << core::FormatCount(n) << " packets: " << in << " -> " << out
            << "\n";
  return n > 0 ? 0 : 1;
}

int Sessions(const std::vector<std::string>& args) {
  trace::SessionTracker tracker;
  DrainFile(args.at(0), tracker, net::ServerEndpoint{});
  auto sessions = tracker.Finish();
  const std::size_t top = args.size() > 1 ? std::stoul(args[1]) : 10;
  std::sort(sessions.begin(), sessions.end(),
            [](const auto& a, const auto& b) { return a.packets() > b.packets(); });
  std::cout << sessions.size() << " sessions; top " << std::min(top, sessions.size())
            << " by packets:\n";
  std::cout << "  client                duration    packets    kbps\n";
  for (std::size_t i = 0; i < sessions.size() && i < top; ++i) {
    const auto& s = sessions[i];
    std::string endpoint = s.client_ip.ToString() + ":" + std::to_string(s.client_port);
    endpoint.resize(21, ' ');
    std::cout << "  " << endpoint << core::FormatDouble(s.duration(), 0) << " s      "
              << s.packets() << "     " << core::FormatDouble(s.mean_bandwidth_bps() / 1e3, 1)
              << "\n";
  }
  return 0;
}

int Hurst(const std::vector<std::string>& args) {
  core::CharacterizationOptions options;
  core::Characterizer characterizer(options);
  DrainFile(args.at(0), characterizer, net::ServerEndpoint{});
  auto report = characterizer.Finish();
  std::cout << "Aggregated-variance Hurst estimates:\n"
            << "  < 50 ms       : " << core::FormatDouble(report.hurst.small_scale, 2) << "\n"
            << "  50 ms - 30 min: " << core::FormatDouble(report.hurst.mid_scale, 2) << "\n"
            << "  > 30 min      : " << core::FormatDouble(report.hurst.large_scale, 2) << "\n";
  // Cross-check with R/S at 1 s resolution.
  const auto per_second =
      report.vt_base_packets.Aggregate(static_cast<std::size_t>(1.0 / 0.010));
  if (per_second.size() >= 64 && per_second.Variance() > 0.0) {
    const auto rs = stats::ComputeRescaledRange(per_second);
    std::cout << "R/S estimate (1 s bins): " << core::FormatDouble(rs.HurstEstimate(), 2)
              << "\n";
  }
  return 0;
}

int Loss(const std::vector<std::string>& args) {
  trace::SeqGapLossEstimator estimator;
  DrainFile(args.at(0), estimator, net::ServerEndpoint{});
  const auto in = estimator.Estimate(net::Direction::kClientToServer);
  const auto out = estimator.Estimate(net::Direction::kServerToClient);
  std::cout << "Sequence-gap loss estimate (what never reached this capture point):\n"
            << "  inbound : " << core::FormatDouble(in.loss_rate() * 100.0, 3) << "%  ("
            << in.lost() << " of " << in.expected << " across " << in.flows << " flows)\n"
            << "  outbound: " << core::FormatDouble(out.loss_rate() * 100.0, 3) << "%  ("
            << out.lost() << " of " << out.expected << " across " << out.flows << " flows)\n";
  return 0;
}

// Runs a traced fleet and prints the critical-path summary; the sched
// export flags (--sched-*-out) turn the run's diagnostic channel into
// files fleet_view.py / Perfetto can open.
int Fleet(const std::vector<std::string>& args, obs::ExportSession& session) {
  const int shards = std::stoi(args.at(0));
  const double seconds = args.size() > 1 ? std::stod(args[1]) : 120.0;
  core::FleetConfig config = core::FleetConfig::Scaled(shards, seconds);
  if (args.size() > 2) config.threads = std::stoi(args[2]);
  if (args.size() > 3) config.base_seed = std::stoull(args[3]);
  config.sched_trace = true;
  const core::FleetResult result = core::RunFleet(config);
  session.RecordScheduler(result.scheduler_metrics, result.sched_report, result.sched_trace);

  const obs::SchedReport& report = result.sched_report;
  std::cout << "fleet: " << shards << " shards x " << core::FormatDouble(seconds, 0)
            << " s on " << result.threads_used << " workers, "
            << core::FormatCount(result.total_packets) << " packets\n"
            << "  makespan   " << core::FormatDouble(report.makespan_ns * 1e-9, 3) << " s\n"
            << "  imbalance  " << core::FormatDouble(report.imbalance_ratio, 3)
            << "  admission-stall " << core::FormatDouble(report.admission_stall_fraction, 3)
            << "\n";
  for (const obs::SchedReport::Worker& w : report.per_worker) {
    std::cout << "  worker " << w.worker << ": busy "
              << core::FormatDouble(w.busy_ratio * 100.0, 1) << "%  units " << w.units
              << "  shards " << w.shards << "\n";
  }
  for (const obs::Alert& alert : report.alerts) {
    std::cout << "  ALERT " << alert.rule << ": "
              << core::FormatDouble(alert.value, 3) << " vs "
              << core::FormatDouble(alert.threshold, 3) << "\n";
  }
  return 0;
}

void Usage() {
  std::cerr << "usage: gtrace_tool <generate|summarize|convert|sessions|hurst|loss|fleet> "
               "<args>\n"
               "  generate  <out.gtr|out.pcap> [seconds] [seed]\n"
               "  summarize <trace>\n"
               "  convert   <in> <out>\n"
               "  sessions  <trace> [top_n]\n"
               "  hurst     <trace>\n"
               "  loss      <trace>\n"
               "  fleet     <shards> [seconds] [workers] [seed]\n"
               "options (any command):\n"
               "  --metrics-out=<json>    write a metrics + profiling snapshot\n"
               "  --trace-out=<json>      write sim-time spans (Chrome trace_event)\n"
               "  --flight-out=<jsonl>    write the flight-recorder snapshot stream\n"
               "  --alerts-out=<jsonl>    write watchdog SLO alerts\n"
               "  --prom-out=<txt>        write Prometheus text exposition\n"
               "  --sched-metrics-out=<json>  write fleet scheduler metrics (fleet cmd)\n"
               "  --sched-report-out=<json>   write the fleet critical-path report\n"
               "  --sched-trace-out=<json>    write the fleet worker timeline\n"
               "  --flight-sample=<s>     sim-seconds between snapshots (default 60)\n"
               "  --flight-dump=<json>    black-box path (default flight_dump.json)\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Observability flags are position-independent and work for any command.
  obs::ExportOptions obs_options;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (!obs_options.TryParseFlag(arg)) positional.emplace_back(arg);
  }
  obs_options.ApplyEnvDefaults();
  if (positional.size() < 2) {
    Usage();
    return 2;
  }
  const std::string command = positional.front();
  const std::vector<std::string> args(positional.begin() + 1, positional.end());
  obs::ExportSession obs_session(std::move(obs_options));
  int status = 2;
  bool known = true;
  try {
    if (command == "generate") {
      status = Generate(args);
    } else if (command == "summarize") {
      status = Summarize(args);
    } else if (command == "convert") {
      status = Convert(args);
    } else if (command == "sessions") {
      status = Sessions(args);
    } else if (command == "hurst") {
      status = Hurst(args);
    } else if (command == "loss") {
      status = Loss(args);
    } else if (command == "fleet") {
      status = Fleet(args, obs_session);
    } else {
      known = false;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (!known) {
    Usage();
    return 2;
  }
  const int obs_status = obs_session.Finish();
  return status != 0 ? status : obs_status;
}
