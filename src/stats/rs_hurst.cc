#include "stats/rs_hurst.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/check.h"

namespace gametrace::stats {

LineFit RsPlot::Fit() const {
  std::vector<double> xs;
  std::vector<double> ys;
  xs.reserve(points.size());
  ys.reserve(points.size());
  for (const auto& p : points) {
    xs.push_back(p.log10_n);
    ys.push_back(p.log10_rs);
  }
  return FitLine(xs, ys);
}

double RsPlot::HurstEstimate() const { return Fit().slope; }

RsPlot ComputeRescaledRange(const TimeSeries& series, const RsOptions& options) {
  GT_CHECK_GT(options.ratio, 1.0) << "ComputeRescaledRange: ratio <= 1";
  GT_CHECK_GE(series.size(), options.min_n * options.min_blocks)
      << "ComputeRescaledRange: series too short";
  GT_CHECK_GT(series.Variance(), 0.0) << "ComputeRescaledRange: zero variance";
  const auto& xs = series.values();

  RsPlot plot;
  std::size_t n = options.min_n;
  while (series.size() / n >= options.min_blocks) {
    double rs_sum = 0.0;
    std::size_t rs_count = 0;
    for (std::size_t block = 0; block + 1 <= series.size() / n; ++block) {
      const std::size_t begin = block * n;
      // Block mean.
      double mean = 0.0;
      for (std::size_t i = 0; i < n; ++i) mean += xs[begin + i];
      mean /= static_cast<double>(n);
      // Range of the mean-adjusted cumulative sum; block stddev.
      double cum = 0.0;
      double lo = 0.0;
      double hi = 0.0;
      double var = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double dev = xs[begin + i] - mean;
        cum += dev;
        lo = std::min(lo, cum);
        hi = std::max(hi, cum);
        var += dev * dev;
      }
      const double stddev = std::sqrt(var / static_cast<double>(n));
      if (stddev > 0.0) {
        rs_sum += (hi - lo) / stddev;
        ++rs_count;
      }
    }
    if (rs_count > 0) {
      RsPoint p;
      p.n = n;
      p.mean_rs = rs_sum / static_cast<double>(rs_count);
      p.log10_n = std::log10(static_cast<double>(n));
      p.log10_rs = p.mean_rs > 0.0 ? std::log10(p.mean_rs) : 0.0;
      plot.points.push_back(p);
    }
    const auto next = static_cast<std::size_t>(std::ceil(static_cast<double>(n) * options.ratio));
    n = next > n ? next : n + 1;
  }
  GT_CHECK_GE(plot.points.size(), 2u) << "ComputeRescaledRange: not enough block sizes";
  return plot;
}

}  // namespace gametrace::stats
