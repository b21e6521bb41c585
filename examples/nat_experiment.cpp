// The paper's NAT experiment (section IV-A): put a COTS NAT device rated at
// 1000-1500 pps between a busy game server and its players, trace one
// 30-minute map, and watch ~850 kbps of tiny packets overwhelm it.
//
//   ./build/examples/nat_experiment [seconds] [capacity_pps]
#include <iostream>
#include <string>

#include "core/experiment.h"
#include "core/report.h"

int main(int argc, char** argv) {
  using namespace gametrace;

  core::NatExperimentConfig config = core::NatExperimentConfig::Defaults();
  if (argc > 1) {
    config.game.trace_duration = std::stod(argv[1]);
    config.game.maps.map_duration = config.game.trace_duration + 60.0;
  }
  if (argc > 2) config.device.mean_capacity_pps = std::stod(argv[2]);

  const core::NatExperimentResult result = core::RunNatExperiment(config);
  const auto& d = result.device;

  core::TableReport table("NAT experiment: " + core::FormatDuration(config.game.trace_duration) +
                          " behind a " + core::FormatDouble(config.device.mean_capacity_pps, 0) +
                          " pps device");
  table.AddRow("-- Outgoing traffic --", "");
  table.AddCount("Packets from server to NAT", d.packets(router::Segment::kServerToNat));
  table.AddCount("Packets from NAT to clients", d.packets(router::Segment::kNatToClients));
  table.AddValue("Loss rate", d.loss_rate_outgoing() * 100.0, "%", 3);
  table.AddRow("-- Incoming traffic --", "");
  table.AddCount("Packets from clients to NAT", d.packets(router::Segment::kClientsToNat));
  table.AddCount("Packets from NAT to server", d.packets(router::Segment::kNatToServer));
  table.AddValue("Loss rate", d.loss_rate_incoming() * 100.0, "%", 2);
  table.AddRow("-- Device internals --", "");
  table.AddValue("Mean forwarding delay", d.delay().mean() * 1e3, "ms", 2);
  table.AddValue("p99 forwarding delay", d.delay_p99() * 1e3, "ms", 2);
  table.AddRow("Livelock episodes", std::to_string(result.livelock_episodes));
  table.AddRow("Server freezes (feedback)", std::to_string(result.server_freezes));
  table.AddCount("NAT table entries", result.nat_table_size);
  table.Print(std::cout);

  std::cout << "\nPlayers \"complained about a significant degradation in performance\"\n"
               "at ~1% loss; the device was nominally rated for far more than the\n"
               "~850 pps offered. The bottleneck is per-packet route lookup against\n"
               "50 ms bursts of tiny packets.\n";
  return 0;
}
