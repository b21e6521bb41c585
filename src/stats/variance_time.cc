#include "stats/variance_time.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/check.h"

namespace gametrace::stats {

std::size_t VarianceTimePlot::PointsInRegion(double min_interval_seconds,
                                             double max_interval_seconds) const noexcept {
  std::size_t n = 0;
  for (const auto& p : points) {
    if (p.interval_seconds >= min_interval_seconds && p.interval_seconds <= max_interval_seconds) {
      ++n;
    }
  }
  return n;
}

LineFit VarianceTimePlot::FitRegion(double min_interval_seconds,
                                    double max_interval_seconds) const {
  std::vector<double> xs;
  std::vector<double> ys;
  for (const auto& p : points) {
    if (p.interval_seconds >= min_interval_seconds &&
        p.interval_seconds <= max_interval_seconds) {
      xs.push_back(p.log10_m);
      ys.push_back(p.log10_normalized_variance);
    }
  }
  return FitLine(xs, ys);
}

double VarianceTimePlot::HurstEstimate(double min_interval_seconds,
                                       double max_interval_seconds) const {
  const LineFit fit = FitRegion(min_interval_seconds, max_interval_seconds);
  const double beta = std::fabs(fit.slope);
  return 1.0 - beta / 2.0;
}

VarianceTimePlot ComputeVarianceTime(const TimeSeries& base,
                                     const VarianceTimeOptions& options) {
  GT_CHECK_GT(options.ratio, 1.0) << "ComputeVarianceTime: ratio must exceed 1";
  GT_CHECK_GE(base.size(), options.min_blocks) << "ComputeVarianceTime: series too short";

  VarianceTimePlot plot;
  plot.base_interval = base.interval();
  plot.base_variance = base.Variance();
  GT_CHECK_GT(plot.base_variance, 0.0) << "ComputeVarianceTime: series has zero variance";

  std::size_t m = 1;
  while (base.size() / m >= options.min_blocks) {
    const TimeSeries agg = base.AggregateMean(m);
    VariancePoint p;
    p.m = m;
    p.interval_seconds = base.interval() * static_cast<double>(m);
    p.normalized_variance = agg.Variance() / plot.base_variance;
    p.log10_m = std::log10(static_cast<double>(m));
    // Zero variance at some aggregation level (e.g. perfectly constant load)
    // would be -inf on the log axis; clamp far below any real value instead.
    p.log10_normalized_variance =
        p.normalized_variance > 0.0 ? std::log10(p.normalized_variance) : -12.0;
    plot.points.push_back(p);

    const auto next = static_cast<std::size_t>(
        std::ceil(static_cast<double>(m) * options.ratio));
    m = next > m ? next : m + 1;
  }
  return plot;
}

HurstRegions EstimateHurstRegions(const VarianceTimePlot& plot,
                                  double small_mid_boundary,
                                  double mid_large_boundary) {
  // A region may hold too few points to fit for a short trace (the large
  // scale for any trace under an hour, every region above the first few
  // bins of a sub-second one); it reports H = 0.5 (the paper's asymptote).
  const auto estimate = [&plot](double lo, double hi) {
    return plot.PointsInRegion(lo, hi) >= 2 ? plot.HurstEstimate(lo, hi) : 0.5;
  };
  HurstRegions regions;
  regions.small_scale = estimate(0.0, small_mid_boundary);
  regions.mid_scale = estimate(small_mid_boundary, mid_large_boundary);
  regions.large_scale = estimate(mid_large_boundary, std::numeric_limits<double>::infinity());
  return regions;
}

}  // namespace gametrace::stats
