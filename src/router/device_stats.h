// Per-segment accounting for the NAT experiment (paper Table IV and
// Figures 14-15): packets counted on each of the four observation points
// around the device, plus queueing-delay statistics (moments and a
// relative-error quantile sketch for the p50/p99 tail).
//
// Counts are stored in an embedded obs::MetricsRegistry (counters
// "nat.<segment>.packets" / "nat.<segment>.drops"), so a NAT run's device
// accounting shows up in --metrics-out exports and merges like any other
// registry; the packets()/drops() accessors below are thin reads over
// cached counter references.
#pragma once

#include <cstdint>

#include "obs/metrics.h"
#include "stats/quantile_sketch.h"
#include "stats/running_stats.h"
#include "stats/time_series.h"

namespace gametrace::router {

// The four trace points of the paper's NAT experiment.
enum class Segment : std::uint8_t {
  kServerToNat = 0,   // outgoing traffic entering the device (LAN port)
  kNatToClients = 1,  // outgoing traffic leaving the device
  kClientsToNat = 2,  // incoming traffic entering the device (WAN port)
  kNatToServer = 3,   // incoming traffic leaving the device
};

inline constexpr int kSegmentCount = 4;

[[nodiscard]] const char* SegmentName(Segment s) noexcept;
// Metric-name-safe form ("server_to_nat", ...), used as the registry key
// infix: "nat.<slug>.packets".
[[nodiscard]] const char* SegmentSlug(Segment s) noexcept;

class DeviceStats {
 public:
  // `interval` is the bin width of the per-segment load series (the paper
  // plots per-second loads in Figs 14-15).
  explicit DeviceStats(double interval = 1.0);

  // Result structs copy DeviceStats by value; the cached counter pointers
  // must re-bind into the copied registry, hence the custom copies.
  DeviceStats(const DeviceStats& other);
  DeviceStats& operator=(const DeviceStats& other);

  void Count(Segment segment, double t);
  void CountDrop(Segment arrival_segment, double t);
  void RecordDelay(double seconds);

  [[nodiscard]] std::uint64_t packets(Segment s) const noexcept;
  [[nodiscard]] std::uint64_t drops(Segment arrival_segment) const noexcept;
  [[nodiscard]] const stats::TimeSeries& load_series(Segment s) const noexcept;

  // Table IV loss rates: fraction of packets entering on a segment that
  // never left the device.
  [[nodiscard]] double loss_rate_incoming() const noexcept;  // clients->NAT->server
  [[nodiscard]] double loss_rate_outgoing() const noexcept;  // server->NAT->clients

  [[nodiscard]] const stats::RunningStats& delay() const noexcept { return delay_; }
  // Within 1% of the exact order statistic (the sketch's default alpha).
  [[nodiscard]] double delay_p50() const { return delay_quantiles_.Quantile(0.50); }
  [[nodiscard]] double delay_p99() const { return delay_quantiles_.Quantile(0.99); }

  // The backing registry (segment counters plus anything bound into it,
  // e.g. the NAT device's queue instruments). Mutable access exists so
  // NatDevice can register its queues alongside the segment counters.
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }

 private:
  void BindCounters();

  obs::MetricsRegistry metrics_;
  obs::Counter* packets_[kSegmentCount] = {};
  obs::Counter* drops_[kSegmentCount] = {};
  // Device-wide totals: "nat.device.packets" counts everything *offered*
  // to the device (the two entry segments - the pps axis of Table IV, and
  // what the meltdown SLO rule watches); "nat.device.drops" counts every
  // drop regardless of arrival segment.
  obs::Counter* offered_ = nullptr;
  obs::Counter* dropped_ = nullptr;
  stats::TimeSeries series_[kSegmentCount];
  stats::RunningStats delay_;
  // Plain member, not registered in metrics_: device_metrics JSON carries
  // only the segment counters and the device's queue instruments.
  stats::QuantileSketch delay_quantiles_;
};

}  // namespace gametrace::router
