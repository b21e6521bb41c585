// Packet stream -> time series (packets and bytes per interval, by
// direction). Backs every load/bandwidth figure in the paper (Figs 1-4,
// 6-10, 14-15).
#pragma once

#include <cstdint>

#include "net/packet.h"
#include "stats/time_series.h"
#include "trace/capture.h"

namespace gametrace::trace {

class LoadAggregator final : public CaptureSink {
 public:
  // Longest span past the start time that the series may cover: 2^26 s,
  // about two years (the paper's week is 626,477 s). A later timestamp, or
  // an ExtendTo beyond it, throws trace::TraceError naming the timestamp
  // and the cap instead of growing the series without bound (a .gtr stamped
  // near 2^32 s would otherwise need ~2.3 GB for the Characterizer's four
  // per-minute series).
  static constexpr double kMaxSpanSeconds = 0x1p26;

  // Bins of `interval` seconds starting at `start_time`.
  LoadAggregator(double interval, double start_time = 0.0,
                 std::uint32_t wire_overhead_bytes = net::kWireOverheadBytes);

  // Run-aggregated binning over the dense timestamp, direction and size
  // columns: two series updates per same-direction same-bin run instead of
  // two per packet, bit-identical to per-packet adds (integral sums).
  void OnColumns(const net::PacketBatch& batch) override;

  // Pads all series with zero bins up to `t_end` so trailing idle time is
  // represented (important when computing means over a fixed window).
  void ExtendTo(double t_end);

  // Bin-wise add of another aggregator over the same clock: the merged
  // series equal a single aggregator fed both packet streams. Throws
  // std::invalid_argument on overhead or bin-geometry mismatch.
  void Merge(const LoadAggregator& other);

  // Raw per-bin counts/bytes.
  [[nodiscard]] const stats::TimeSeries& packets_in() const noexcept { return pkts_in_; }
  [[nodiscard]] const stats::TimeSeries& packets_out() const noexcept { return pkts_out_; }
  [[nodiscard]] const stats::TimeSeries& wire_bytes_in() const noexcept { return bytes_in_; }
  [[nodiscard]] const stats::TimeSeries& wire_bytes_out() const noexcept { return bytes_out_; }

  // Derived series (computed on demand).
  [[nodiscard]] stats::TimeSeries packets_total() const;
  [[nodiscard]] stats::TimeSeries wire_bytes_total() const;
  [[nodiscard]] stats::TimeSeries packet_rate_total() const;      // pkts/sec
  [[nodiscard]] stats::TimeSeries packet_rate_in() const;
  [[nodiscard]] stats::TimeSeries packet_rate_out() const;
  [[nodiscard]] stats::TimeSeries bandwidth_total_bps() const;    // bits/sec
  [[nodiscard]] stats::TimeSeries bandwidth_in_bps() const;
  [[nodiscard]] stats::TimeSeries bandwidth_out_bps() const;

 private:
  // One sample through the scalar TimeSeries::Add path (before-start
  // samples only bump the series' dropped_before_start counters).
  void AddSample(double t, bool inbound, double wire);
  // Throws TraceError when `t` lies beyond kMaxSpanSeconds past the start.
  // Called only where the series grow.
  void CheckSpan(double t) const;

  std::uint32_t overhead_;
  stats::TimeSeries pkts_in_;
  stats::TimeSeries pkts_out_;
  stats::TimeSeries bytes_in_;
  stats::TimeSeries bytes_out_;
};

}  // namespace gametrace::trace
