// Table IV: the NAT experiment - a busy single-map server behind a COTS
// NAT device rated at 1000-1500 pps.
//
// Paper values (one 30-min map): outgoing 677,278 -> 674,157 (0.46% loss;
// the paper's table prints "0.046%" but its own counts and text - "almost
// 0.5%" - give 0.46%); incoming 853,035 -> 841,960 (1.3% loss).
#include <cstdlib>

#include "common.h"
#include "obs/obs.h"
#include "router/device_stats.h"
#include "router/nat_device.h"
#include "sim/simulator.h"
#include "trace/loss_estimator.h"

int main(int argc, char** argv) {
  using namespace gametrace;
  gametrace::bench::ObsSession obs_session(argc, argv);
  auto config = core::NatExperimentConfig::Defaults();
  const auto scale = core::ExperimentScale::FromEnv(config.duration);
  if (scale.duration != config.duration && !scale.full) {
    config.duration = scale.duration;
    config.game.trace_duration = scale.duration;
    config.game.maps.map_duration = scale.duration + 60.0;
  }
  bench::PrintScaleBanner("Table IV - NAT experiment (one 30-min map)", config.duration,
                          /*full=*/true);

  const auto result = core::RunNatExperiment(config);
  const auto& d = result.device;

  // Independent cross-check: re-run and estimate the loss purely from the
  // netchannel sequence gaps in the *delivered* stream (what a tcpdump on
  // the far side of the device would see), as a measurement study would.
  // The re-run is unbound, so none of it reaches the observability exports,
  // which describe the Table IV run alone.
  trace::SeqGapLossEstimator estimator;
  {
    const obs::ScopedObsBinding unbound({});
    sim::Simulator simulator;
    router::NatDevice nat(simulator, config.device);
    game::CsServer server(simulator, config.game, nat.injector());
    nat.SetDeliverCallback(
        [&](const net::PacketRecord& record, router::Segment) { estimator.OnPacket(record); });
    nat.Start();
    server.Start();
    simulator.RunUntil(config.duration);
  }

  core::TableReport table("TABLE IV: NAT EXPERIMENT");
  table.AddRow("-- Outgoing Traffic --", "");
  table.AddCount("Total Packets From Server to NAT",
                 d.packets(router::Segment::kServerToNat));
  table.AddCount("Total Packets From NAT to Clients",
                 d.packets(router::Segment::kNatToClients));
  table.AddValue("Loss Rate", d.loss_rate_outgoing() * 100.0, "%", 3);
  table.AddRow("-- Incoming Traffic --", "");
  table.AddCount("Total Packets From Clients to NAT",
                 d.packets(router::Segment::kClientsToNat));
  table.AddCount("Total Packets From NAT to Server",
                 d.packets(router::Segment::kNatToServer));
  table.AddValue("Loss Rate", d.loss_rate_incoming() * 100.0, "%", 2);
  table.Print(std::cout);

  core::TableReport internals("Device internals (not in the paper's table)");
  internals.AddValue("Mean forwarding delay", d.delay().mean() * 1e3, "ms");
  internals.AddValue("p99 forwarding delay", d.delay_p99() * 1e3, "ms");
  internals.AddRow("Livelock episodes", std::to_string(result.livelock_episodes));
  internals.AddRow("Game-freeze feedback events", std::to_string(result.server_freezes));
  internals.AddCount("NAT table entries", result.nat_table_size);
  internals.Print(std::cout);

  std::cout << "\nPaper-vs-measured:\n";
  bench::Compare("Server->NAT packets", "677,278",
                 core::FormatCount(d.packets(router::Segment::kServerToNat)));
  bench::Compare("Clients->NAT packets", "853,035",
                 core::FormatCount(d.packets(router::Segment::kClientsToNat)));
  bench::Compare("Outgoing loss", "0.46%",
                 core::FormatDouble(d.loss_rate_outgoing() * 100.0, 3) + "%");
  bench::Compare("Incoming loss", "1.3%",
                 core::FormatDouble(d.loss_rate_incoming() * 100.0, 2) + "%");
  bench::Compare("In-loss >> out-loss", "yes",
                 d.loss_rate_incoming() > 2.0 * d.loss_rate_outgoing() ? "yes" : "NO");
  bench::Compare(
      "Incoming loss re-derived from sequence gaps", "matches device counters",
      core::FormatDouble(
          estimator.Estimate(net::Direction::kClientToServer).loss_rate() * 100.0, 2) +
          "%");
  return 0;
}
