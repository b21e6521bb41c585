#include "stats/online_hurst.h"

#include <cmath>

#include "core/check.h"

namespace gametrace::stats {

OnlineHurst::OnlineHurst(Options options) : options_(options) {
  GT_CHECK(options_.num_scales >= 1 && options_.num_scales <= 63)
      << "OnlineHurst: num_scales must be in [1, 63]";
  GT_CHECK_GT(options_.base_interval, 0.0) << "OnlineHurst: base interval must be positive";
  scales_.reserve(options_.num_scales);
  std::size_t m = 1;
  for (std::size_t i = 0; i < options_.num_scales; ++i, m *= 2) {
    Scale scale;
    scale.m = m;
    scale.inv_m = 1.0 / static_cast<double>(m);
    scales_.push_back(scale);
  }
}

bool OnlineHurst::SameShape(const OnlineHurst& other) const noexcept {
  return options_.num_scales == other.options_.num_scales &&
         options_.base_interval == other.options_.base_interval &&
         options_.min_blocks == other.options_.min_blocks;
}

void OnlineHurst::Merge(const OnlineHurst& other) {
  GT_CHECK(SameShape(other)) << "OnlineHurst::Merge: scale schedule mismatch";
  samples_ += other.samples_;
  for (std::size_t i = 0; i < scales_.size(); ++i) {
    // Pool completed-block statistics (Chan parallel variance, exact);
    // the other side's open partial covers the same trailing window as
    // ours when shards advance in lockstep and is dropped - see header.
    scales_[i].block_means.Merge(other.scales_[i].block_means);
  }
}

VarianceTimePlot OnlineHurst::EstimatePlot() const {
  VarianceTimePlot plot;
  plot.base_interval = options_.base_interval;
  plot.base_variance = scales_.front().block_means.population_variance();
  if (plot.base_variance <= 0.0) return plot;
  for (const Scale& scale : scales_) {
    if (scale.block_means.count() < options_.min_blocks) continue;
    VariancePoint p;
    p.m = scale.m;
    p.interval_seconds = options_.base_interval * static_cast<double>(scale.m);
    p.normalized_variance = scale.block_means.population_variance() / plot.base_variance;
    p.log10_m = std::log10(static_cast<double>(scale.m));
    // Match the batch estimator's clamp for zero variance at a scale.
    p.log10_normalized_variance =
        p.normalized_variance > 0.0 ? std::log10(p.normalized_variance) : -12.0;
    plot.points.push_back(p);
  }
  return plot;
}

bool OnlineHurst::CanEstimate(double min_interval_seconds, double max_interval_seconds) const {
  const VarianceTimePlot plot = EstimatePlot();
  return plot.base_variance > 0.0 &&
         plot.PointsInRegion(min_interval_seconds, max_interval_seconds) >= 2;
}

double OnlineHurst::HurstEstimate(double min_interval_seconds,
                                  double max_interval_seconds) const {
  if (!CanEstimate(min_interval_seconds, max_interval_seconds)) return 0.5;
  return EstimatePlot().HurstEstimate(min_interval_seconds, max_interval_seconds);
}

std::size_t OnlineHurst::MemoryBytes() const noexcept {
  return sizeof(*this) + scales_.capacity() * sizeof(Scale);
}

}  // namespace gametrace::stats
