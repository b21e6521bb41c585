// Per-segment accounting for the NAT experiment (paper Table IV and
// Figures 14-15): packets counted on each of the four observation points
// around the device, plus queueing-delay statistics (moments and a
// relative-error quantile sketch for the p50/p99 tail).
//
// Each fact is a plain field, counted once: packets and drops per segment,
// and the high-water mark of each entry segment's queue. Everything else a
// metrics export shows is derived from them when PublishCounts writes the
// "nat.*" names into a registry (DESIGN.md section 9, "Wiring").
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

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

  // Counts a packet on `segment` at time t, into its load series too. A
  // segment's times arrive in order, so the series bin of the last one is
  // kept with its exact edges: a time within them adds to that bin without
  // the divide. Bit-identical to TimeSeries::Add for any time order.
  void Count(Segment segment, double t) {
    const auto i = static_cast<int>(segment);
    ++packets_[i];
    const BinCursor& cursor = cursors_[i];
    if (t >= cursor.first && t < cursor.next) {
      series_[i].AddAtBin(cursor.bin, 1.0);
      return;
    }
    CountOffCursor(i, t);
  }
  void CountDrop(Segment arrival_segment) noexcept;
  // A packet joined the queue of `entry_segment`, which now holds
  // `occupancy` packets.
  void RecordOccupancy(Segment entry_segment, std::size_t occupancy) noexcept {
    std::size_t& high_water = high_water_[static_cast<int>(entry_segment)];
    if (occupancy > high_water) high_water = occupancy;
  }
  void RecordDelay(double seconds) {
    delay_.Add(seconds);
    delay_quantiles_.Add(seconds);
  }

  [[nodiscard]] std::uint64_t packets(Segment s) const noexcept;
  [[nodiscard]] std::uint64_t drops(Segment arrival_segment) const noexcept;
  [[nodiscard]] std::size_t high_water(Segment entry_segment) const noexcept;
  [[nodiscard]] const stats::TimeSeries& load_series(Segment s) const noexcept;

  // Table IV loss rates: fraction of packets entering on a segment that
  // never left the device.
  [[nodiscard]] double loss_rate_incoming() const noexcept;  // clients->NAT->server
  [[nodiscard]] double loss_rate_outgoing() const noexcept;  // server->NAT->clients

  [[nodiscard]] const stats::RunningStats& delay() const noexcept { return delay_; }
  // Within 1% of the exact order statistic (the sketch's default alpha).
  [[nodiscard]] double delay_p50() const { return delay_quantiles_.Quantile(0.50); }
  [[nodiscard]] double delay_p99() const { return delay_quantiles_.Quantile(0.99); }

  // Writes every device name into `metrics`: counters
  // "nat.<segment>.{packets,drops}", "nat.device.packets" (what entered the
  // device, the pps axis of Table IV and of the meltdown SLO rule),
  // "nat.device.drops", "nat.{lan,wan}_q.{pushes,drops}" (a queue's pushes
  // are its entry segment's arrivals minus its drops) and the kMax gauges
  // "nat.{lan,wan}_q.high_water". Counters Add, gauges SetMax, so devices
  // published into one registry accumulate.
  void PublishCounts(obs::MetricsRegistry& metrics) const;
  // A registry holding exactly what PublishCounts writes.
  [[nodiscard]] obs::MetricsRegistry metrics() const;

 private:
  // The times [first, next) whose TimeSeries::BinIndex is `bin`; empty
  // until a segment's first in-range count.
  struct BinCursor {
    double first = std::numeric_limits<double>::infinity();
    double next = std::numeric_limits<double>::infinity();
    std::size_t bin = 0;
  };

  void CountOffCursor(int segment, double t);

  std::uint64_t packets_[kSegmentCount] = {};
  std::uint64_t drops_[kSegmentCount] = {};
  // Indexed by segment; only the two entry segments have a queue.
  std::size_t high_water_[kSegmentCount] = {};
  stats::TimeSeries series_[kSegmentCount];
  BinCursor cursors_[kSegmentCount];
  stats::RunningStats delay_;
  stats::QuantileSketch delay_quantiles_;
};

}  // namespace gametrace::router
