#include "router/device_stats.h"

#include <string>
#include <utility>

namespace gametrace::router {

const char* SegmentName(Segment s) noexcept {
  switch (s) {
    case Segment::kServerToNat:
      return "server->NAT";
    case Segment::kNatToClients:
      return "NAT->clients";
    case Segment::kClientsToNat:
      return "clients->NAT";
    case Segment::kNatToServer:
      return "NAT->server";
  }
  return "?";
}

const char* SegmentSlug(Segment s) noexcept {
  switch (s) {
    case Segment::kServerToNat:
      return "server_to_nat";
    case Segment::kNatToClients:
      return "nat_to_clients";
    case Segment::kClientsToNat:
      return "clients_to_nat";
    case Segment::kNatToServer:
      return "nat_to_server";
  }
  return "unknown";
}

DeviceStats::DeviceStats(double interval)
    : series_{stats::TimeSeries(0.0, interval), stats::TimeSeries(0.0, interval),
              stats::TimeSeries(0.0, interval), stats::TimeSeries(0.0, interval)} {}

void DeviceStats::Count(Segment segment, double t) {
  const auto i = static_cast<int>(segment);
  ++packets_[i];
  series_[i].Add(t, 1.0);
}

void DeviceStats::CountDrop(Segment arrival_segment) noexcept {
  ++drops_[static_cast<int>(arrival_segment)];
}

void DeviceStats::RecordDelay(double seconds) {
  delay_.Add(seconds);
  delay_quantiles_.Add(seconds);
}

std::uint64_t DeviceStats::packets(Segment s) const noexcept {
  return packets_[static_cast<int>(s)];
}

std::uint64_t DeviceStats::drops(Segment arrival_segment) const noexcept {
  return drops_[static_cast<int>(arrival_segment)];
}

std::size_t DeviceStats::high_water(Segment entry_segment) const noexcept {
  return high_water_[static_cast<int>(entry_segment)];
}

void DeviceStats::PublishCounts(obs::MetricsRegistry& metrics) const {
  std::uint64_t dropped = 0;
  for (int i = 0; i < kSegmentCount; ++i) {
    const std::string base = std::string("nat.") + SegmentSlug(static_cast<Segment>(i));
    metrics.counter(base + ".packets").Add(packets_[i]);
    metrics.counter(base + ".drops").Add(drops_[i]);
    dropped += drops_[i];
  }
  constexpr int lan = static_cast<int>(Segment::kServerToNat);
  constexpr int wan = static_cast<int>(Segment::kClientsToNat);
  metrics.counter("nat.device.packets").Add(packets_[lan] + packets_[wan]);
  metrics.counter("nat.device.drops").Add(dropped);
  for (const auto& [prefix, i] : {std::pair{"nat.lan_q", lan}, std::pair{"nat.wan_q", wan}}) {
    const std::string base(prefix);
    metrics.counter(base + ".pushes").Add(packets_[i] - drops_[i]);
    metrics.counter(base + ".drops").Add(drops_[i]);
    metrics.gauge(base + ".high_water", obs::Gauge::MergeMode::kMax)
        .SetMax(static_cast<double>(high_water_[i]));
  }
}

obs::MetricsRegistry DeviceStats::metrics() const {
  obs::MetricsRegistry metrics;
  PublishCounts(metrics);
  return metrics;
}

const stats::TimeSeries& DeviceStats::load_series(Segment s) const noexcept {
  return series_[static_cast<int>(s)];
}

double DeviceStats::loss_rate_incoming() const noexcept {
  const auto in = packets(Segment::kClientsToNat);
  if (in == 0) return 0.0;
  const auto out = packets(Segment::kNatToServer);
  return static_cast<double>(in - out) / static_cast<double>(in);
}

double DeviceStats::loss_rate_outgoing() const noexcept {
  const auto in = packets(Segment::kServerToNat);
  if (in == 0) return 0.0;
  const auto out = packets(Segment::kNatToClients);
  return static_cast<double>(in - out) / static_cast<double>(in);
}

}  // namespace gametrace::router
