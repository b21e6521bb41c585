// Figure 15: per-second outgoing packet load through the NAT device -
// (a) server -> NAT, (b) NAT -> clients.
//
// Paper shape: both outgoing segments show drop-outs *directly correlated
// with lost incoming packets* - losing client updates freezes the game,
// which silences the broadcast.
#include "common.h"

#include "router/device_stats.h"

int main(int argc, char** argv) {
  using namespace gametrace;
  gametrace::bench::ObsSession obs_session(argc, argv);
  auto config = core::NatExperimentConfig::Defaults();
  const auto scale = core::ExperimentScale::FromEnv(config.game.trace_duration);
  if (scale.duration != config.game.trace_duration && !scale.full) {
    config.game.trace_duration = scale.duration;
    config.game.maps.map_duration = scale.duration + 60.0;
  }
  const auto result = core::RunNatExperiment(config);
  bench::PrintScaleBanner("Figure 15 - NAT outgoing packet load",
                          config.game.trace_duration, /*full=*/true);

  const auto& offered = result.device.load_series(router::Segment::kServerToNat);
  const auto& delivered = result.device.load_series(router::Segment::kNatToClients);
  const auto& inbound_delivered = result.device.load_series(router::Segment::kNatToServer);
  bench::PrintSeries(std::cout, offered, "(a) server -> NAT (pkts/sec)", 600);
  bench::PrintSeries(std::cout, delivered, "(b) NAT -> clients (pkts/sec)", 600);

  // Correlation of outgoing drop-outs with incoming loss windows: count
  // outgoing quiet seconds, and how many coincide with inbound shortfall.
  int out_dropouts = 0;
  int correlated = 0;
  const double out_mean = offered.Mean();
  const double in_mean = inbound_delivered.Mean();
  for (std::size_t i = 1; i + 1 < offered.size(); ++i) {
    if (offered[i] < 0.6 * out_mean) {
      ++out_dropouts;
      const bool inbound_low = inbound_delivered[i] < 0.9 * in_mean ||
                               inbound_delivered[i - 1] < 0.9 * in_mean;
      if (inbound_low) ++correlated;
    }
  }
  std::cout << "\nPaper-vs-measured:\n";
  bench::Compare("Server->NAT drop-outs", "present (game freezes)",
                 std::to_string(out_dropouts) + " quiet seconds");
  bench::Compare("Correlated with incoming loss", "directly correlated",
                 out_dropouts > 0
                     ? core::FormatDouble(100.0 * correlated / out_dropouts, 0) + "%"
                     : "n/a");
  bench::Compare("Server freezes (ground truth)", "-",
                 std::to_string(result.server_freezes));
  return 0;
}
