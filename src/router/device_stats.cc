#include "router/device_stats.h"

#include <string>

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
              stats::TimeSeries(0.0, interval), stats::TimeSeries(0.0, interval)} {
  BindCounters();
}

DeviceStats::DeviceStats(const DeviceStats& other)
    : metrics_(other.metrics_),
      series_{other.series_[0], other.series_[1], other.series_[2], other.series_[3]},
      delay_(other.delay_),
      delay_quantiles_(other.delay_quantiles_) {
  BindCounters();
}

DeviceStats& DeviceStats::operator=(const DeviceStats& other) {
  if (this == &other) return *this;
  metrics_ = other.metrics_;
  for (int i = 0; i < kSegmentCount; ++i) series_[i] = other.series_[i];
  delay_ = other.delay_;
  delay_quantiles_ = other.delay_quantiles_;
  BindCounters();
  return *this;
}

void DeviceStats::BindCounters() {
  for (int i = 0; i < kSegmentCount; ++i) {
    const std::string base = std::string("nat.") + SegmentSlug(static_cast<Segment>(i));
    packets_[i] = &metrics_.counter(base + ".packets");
    drops_[i] = &metrics_.counter(base + ".drops");
  }
  offered_ = &metrics_.counter("nat.device.packets");
  dropped_ = &metrics_.counter("nat.device.drops");
}

void DeviceStats::Count(Segment segment, double t) {
  const auto i = static_cast<int>(segment);
  packets_[i]->Add();
  if (segment == Segment::kServerToNat || segment == Segment::kClientsToNat) offered_->Add();
  series_[i].Add(t, 1.0);
}

void DeviceStats::CountDrop(Segment arrival_segment, double t) {
  drops_[static_cast<int>(arrival_segment)]->Add();
  dropped_->Add();
  (void)t;
}

void DeviceStats::RecordDelay(double seconds) {
  delay_.Add(seconds);
  delay_quantiles_.Add(seconds);
}

std::uint64_t DeviceStats::packets(Segment s) const noexcept {
  return packets_[static_cast<int>(s)]->value();
}

std::uint64_t DeviceStats::drops(Segment arrival_segment) const noexcept {
  return drops_[static_cast<int>(arrival_segment)]->value();
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
