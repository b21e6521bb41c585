#include "core/characterizer.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/check.h"
#include "obs/prof.h"

namespace gametrace::core {

namespace {
constexpr std::size_t kSizeBins = 500;  // 1-byte bins over [0, 500)
}

Characterizer::Characterizer(CharacterizationOptions options)
    : options_(options),
      summary_(options.wire_overhead),
      minute_agg_(options.minute_interval, 0.0, options.wire_overhead),
      vt_packets_(0.0, options.vt_base_interval),
      sessions_(options.session_idle_timeout),
      size_total_(0.0, options.size_histogram_max, kSizeBins),
      size_in_(0.0, options.size_histogram_max, kSizeBins),
      size_out_(0.0, options.size_histogram_max, kSizeBins) {}

void Characterizer::OnColumns(const net::PacketBatch& batch) {
  GT_PROF_SCOPE("core.characterizer.on_columns");
  summary_.OnColumns(batch);
  minute_agg_.OnColumns(batch);
  sessions_.OnColumns(batch);
  const std::size_t n = batch.count;
  const double* ts = batch.timestamps;
  scratch_times_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (ts[i] < options_.vt_window) scratch_times_.push_back(ts[i]);
  }
  vt_packets_.AddColumn(scratch_times_, 1.0);
  const std::span<const std::uint16_t> sizes(batch.app_bytes, n);
  const std::span<const std::uint8_t> dirs(batch.directions, n);
  constexpr auto kIn = static_cast<std::uint8_t>(net::Direction::kClientToServer);
  constexpr auto kOut = static_cast<std::uint8_t>(net::Direction::kServerToClient);
  size_total_.AddColumn(sizes);
  size_in_.AddColumn(sizes, dirs, kIn);
  size_out_.AddColumn(sizes, dirs, kOut);
}

void Characterizer::Merge(Characterizer&& other) {
  GT_PROF_SCOPE("core.characterizer.merge");
  GT_CHECK(other.options_ == options_) << "Characterizer::Merge: analysis options differ";
  summary_.Merge(other.summary_);
  minute_agg_.Merge(other.minute_agg_);
  vt_packets_.Merge(other.vt_packets_);
  sessions_.Merge(std::move(other.sessions_));
  size_total_.Merge(other.size_total_);
  size_in_.Merge(other.size_in_);
  size_out_.Merge(other.size_out_);
}

CharacterizationReport Characterizer::Finish(double trace_duration) {
  if (trace_duration > 0.0) {
    summary_.set_duration_override(trace_duration);
    minute_agg_.ExtendTo(trace_duration);
    vt_packets_.ExtendTo(std::min(trace_duration, options_.vt_window));
  }

  std::vector<trace::Session> sessions = sessions_.Finish();
  stats::Histogram session_bw = trace::SessionTracker::BandwidthHistogram(
      sessions, options_.session_min_duration, options_.session_bw_histogram_max,
      options_.session_bw_bins);

  stats::VarianceTimePlot vt;
  stats::HurstRegions hurst;
  if (vt_packets_.size() >= 16 && vt_packets_.Variance() > 0.0) {
    vt = stats::ComputeVarianceTime(vt_packets_);
    hurst = stats::EstimateHurstRegions(vt);
  }

  return CharacterizationReport{
      .summary = summary_,
      .minute_packets_in = minute_agg_.packets_in(),
      .minute_packets_out = minute_agg_.packets_out(),
      .minute_bytes_in = minute_agg_.wire_bytes_in(),
      .minute_bytes_out = minute_agg_.wire_bytes_out(),
      .vt_base_packets = std::move(vt_packets_),
      .variance_time = std::move(vt),
      .hurst = hurst,
      .sessions = std::move(sessions),
      .session_bandwidth = std::move(session_bw),
      .size_total = std::move(size_total_),
      .size_in = std::move(size_in_),
      .size_out = std::move(size_out_),
  };
}

}  // namespace gametrace::core
