// One-pass implementation of the paper's entire analysis pipeline.
//
// Feed it a packet stream (simulated, .gtr or pcap) and Finish() returns
// everything the evaluation section reports: trace summary (Tables I-III),
// per-minute load series (Figs 1-4), variance-time plot and per-region
// Hurst estimates (Fig 5), fine-grained load series (Figs 6-10 are
// re-aggregations of the base series), per-session bandwidth histogram
// (Fig 11) and packet-size PDFs/CDFs (Figs 12-13).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.h"
#include "stats/histogram.h"
#include "stats/time_series.h"
#include "stats/variance_time.h"
#include "trace/aggregator.h"
#include "trace/capture.h"
#include "trace/session_tracker.h"
#include "trace/summary.h"

namespace gametrace::core {

struct CharacterizationOptions {
  double minute_interval = 60.0;
  // Base interval of the variance-time series (the paper uses m = 10 ms).
  double vt_base_interval = 0.010;
  // The fine-grained series is kept only for this long - 6 h of 10 ms bins
  // is ~17 MB and spans every time scale of interest (50 ms ... > 30 min).
  double vt_window = 21600.0;
  double session_idle_timeout = 30.0;
  double session_min_duration = 30.0;   // Fig 11 considers sessions > 30 s
  double session_bw_histogram_max = 160000.0;  // bits/sec
  std::size_t session_bw_bins = 64;
  double size_histogram_max = 500.0;    // the paper truncates at 500 B
  std::uint32_t wire_overhead = net::kWireOverheadBytes;

  // Merging two characterizers requires identical analysis geometry.
  friend bool operator==(const CharacterizationOptions&,
                         const CharacterizationOptions&) = default;
};

struct CharacterizationReport {
  trace::TraceSummary summary;
  // Per-minute packet counts / wire bytes by direction (divide by interval
  // for rates; Figures 1-4).
  stats::TimeSeries minute_packets_in;
  stats::TimeSeries minute_packets_out;
  stats::TimeSeries minute_bytes_in;
  stats::TimeSeries minute_bytes_out;
  // The base fine-grained packet-count series and its variance-time
  // analysis (Figures 5-10).
  stats::TimeSeries vt_base_packets;
  stats::VarianceTimePlot variance_time;
  stats::HurstRegions hurst;
  // Sessions and the Figure 11 histogram.
  std::vector<trace::Session> sessions;
  stats::Histogram session_bandwidth;
  // Packet-size histograms at 1-byte resolution (Figures 12-13).
  stats::Histogram size_total;
  stats::Histogram size_in;
  stats::Histogram size_out;
};

class Characterizer final : public trace::CaptureSink {
 public:
  explicit Characterizer(CharacterizationOptions options = {});

  // One fused per-record loop feeds the summary, the variance-time series
  // and the size tables through each constituent's own inline step; the
  // load aggregator and the session tracker run their kernels on the raw
  // columns. No record materialisation anywhere in the pipeline.
  void OnColumns(const net::PacketBatch& batch) override;

  // Absorbs another (un-finished) characterizer: every accumulator is
  // combined with its exact merge operation, so Merge-then-Finish over N
  // per-shard partials equals one characterizer fed the interleaved stream.
  // `other` is spent. Shards must emit disjoint client addresses
  // (game::GameConfig::client_ip_shift) so sessions never collide. Throws
  // std::invalid_argument if the analysis options differ.
  void Merge(Characterizer&& other);

  // Completes the analysis. `trace_duration` pins the rate denominators
  // (pass the configured capture window; <= 0 uses the observed span).
  // The characterizer is spent afterwards.
  //
  // The per-minute series span at most trace::LoadAggregator::
  // kMaxSpanSeconds: a packet stamped later makes OnColumns throw
  // trace::TraceError, and so does a trace_duration beyond the cap here.
  [[nodiscard]] CharacterizationReport Finish(double trace_duration = -1.0);

  [[nodiscard]] const CharacterizationOptions& options() const noexcept { return options_; }

 private:
  CharacterizationOptions options_;
  trace::TraceSummary summary_;
  trace::LoadAggregator minute_agg_;
  stats::TimeSeries vt_packets_;
  trace::SessionTracker sessions_;
  // Exact per-direction packet-size counts: row d (0 = in, 1 = out) holds
  // one slot per u16 value below size_histogram_max, then one overflow
  // slot. Integral counts, so Finish folds them into size_in_/size_out_
  // through Histogram::Add(value, count) with the bins a per-packet Add
  // would have chosen.
  std::size_t size_slots_;  // u16 values below size_histogram_max
  std::vector<std::uint64_t> size_counts_;
  stats::Histogram size_in_;
  stats::Histogram size_out_;
};

}  // namespace gametrace::core
