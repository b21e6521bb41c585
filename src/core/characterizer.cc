#include "core/characterizer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/check.h"
#include "obs/ledger.h"

namespace gametrace::core {

namespace {

constexpr std::size_t kSizeBins = 500;  // 1-byte bins over [0, 500)

// Number of u16 values v with v < hi. A non-positive or NaN hi gives 0
// (the size histograms' constructor then rejects it) rather than a
// negative-to-unsigned cast.
std::size_t U16ValuesBelow(double hi) {
  constexpr double kU16Values = 65536.0;
  if (!(hi > 0.0)) return 0;
  return static_cast<std::size_t>(std::ceil(std::min(hi, kU16Values)));
}

}  // namespace

Characterizer::Characterizer(CharacterizationOptions options)
    : options_(options),
      summary_(options.wire_overhead),
      minute_agg_(options.minute_interval, 0.0, options.wire_overhead),
      vt_packets_(0.0, options.vt_base_interval),
      sessions_(options.session_idle_timeout),
      size_slots_(U16ValuesBelow(options.size_histogram_max)),
      size_counts_(2 * (size_slots_ + 1), 0),
      size_in_(0.0, options.size_histogram_max, kSizeBins),
      size_out_(0.0, options.size_histogram_max, kSizeBins) {}

void Characterizer::OnColumns(const net::PacketBatch& batch) {
  // Nested load and session scopes leave this one the fused loop.
  const obs::LayerScope scope(obs::Layer::kCoreCharacterize);
  minute_agg_.OnColumns(batch);
  sessions_.OnColumns(batch);
  const std::size_t n = batch.count;
  const double* ts = batch.timestamps;
  const std::uint8_t* dirs = batch.directions;
  const std::uint16_t* sizes = batch.app_bytes;
  const double vt_window = options_.vt_window;
  const std::size_t slots = size_slots_;
  std::uint64_t* counts = size_counts_.data();
  constexpr auto kIn = static_cast<std::uint8_t>(net::Direction::kClientToServer);
  trace::TraceSummary::Pass summary(summary_, batch);
  for (std::size_t i = 0; i < n; ++i) {
    summary.Add(dirs[i], sizes[i], batch.kinds[i], batch.client_ips[i]);
    if (ts[i] < vt_window) vt_packets_.Add(ts[i]);
    const std::size_t row = dirs[i] == kIn ? 0 : slots + 1;
    ++counts[row + std::min<std::size_t>(sizes[i], slots)];
  }
  summary.Commit();
}

void Characterizer::Merge(Characterizer&& other) {
  GT_CHECK(other.options_ == options_) << "Characterizer::Merge: analysis options differ";
  summary_.Merge(other.summary_);
  minute_agg_.Merge(other.minute_agg_);
  vt_packets_.Merge(other.vt_packets_);
  sessions_.Merge(std::move(other.sessions_));
  for (std::size_t i = 0; i < size_counts_.size(); ++i) size_counts_[i] += other.size_counts_[i];
}

CharacterizationReport Characterizer::Finish(double trace_duration) {
  const obs::LayerScope scope(obs::Layer::kCoreFinish);
  if (trace_duration > 0.0) {
    summary_.set_duration_override(trace_duration);
    minute_agg_.ExtendTo(trace_duration);
    vt_packets_.ExtendTo(std::min(trace_duration, options_.vt_window));
  }

  std::vector<trace::Session> sessions = sessions_.Finish();
  stats::Histogram session_bw = trace::SessionTracker::BandwidthHistogram(
      sessions, options_.session_min_duration, options_.session_bw_histogram_max,
      options_.session_bw_bins);

  // Fold the exact size counts into the histograms; the overflow slot goes
  // in at the top edge, which Add counts as overflow.
  for (std::size_t d = 0; d < 2; ++d) {
    stats::Histogram& hist = d == 0 ? size_in_ : size_out_;
    const std::uint64_t* row = size_counts_.data() + d * (size_slots_ + 1);
    for (std::size_t v = 0; v < size_slots_; ++v) {
      if (row[v] != 0) hist.Add(static_cast<double>(v), row[v]);
    }
    if (row[size_slots_] != 0) hist.Add(options_.size_histogram_max, row[size_slots_]);
  }
  stats::Histogram size_total = size_in_;
  size_total.Merge(size_out_);

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
      .size_total = std::move(size_total),
      .size_in = std::move(size_in_),
      .size_out = std::move(size_out_),
  };
}

}  // namespace gametrace::core
