// Aggregated-variance method for long-range-dependence analysis (Figure 5).
//
// The sequence is divided into consecutive blocks of m base intervals, block
// means are taken, and the variance of the means - normalised by the variance
// of the unaggregated sequence - is plotted against m on log-log axes. The
// Hurst parameter is H = 1 - beta/2 where beta is the magnitude of the
// best-fit slope. H = 1/2 indicates short-range dependence; H near 1
// indicates long-range dependence; H < 1/2 indicates anti-persistence
// (the paper's small-m region, caused by 50 ms tick periodicity).
#pragma once

#include <vector>

#include "stats/linear_regression.h"
#include "stats/time_series.h"

namespace gametrace::stats {

struct VariancePoint {
  std::size_t m = 1;              // block size, in base intervals
  double interval_seconds = 0.0;  // m * base interval
  double normalized_variance = 0.0;
  double log10_m = 0.0;
  double log10_normalized_variance = 0.0;
};

struct VarianceTimePlot {
  double base_interval = 0.0;
  double base_variance = 0.0;  // variance of the unaggregated sequence
  std::vector<VariancePoint> points;

  // Number of points whose interval size lies in
  // [min_interval_seconds, max_interval_seconds]. Callers should confirm a
  // region holds at least two points before asking for a fit over it.
  [[nodiscard]] std::size_t PointsInRegion(double min_interval_seconds,
                                           double max_interval_seconds) const noexcept;

  // Fits the log-log points whose interval size lies in
  // [min_interval_seconds, max_interval_seconds] and returns the fit.
  // Contract: the region must contain at least two points.
  [[nodiscard]] LineFit FitRegion(double min_interval_seconds,
                                  double max_interval_seconds) const;

  // H = 1 - beta/2 with beta = |slope| of the fit over the given region.
  [[nodiscard]] double HurstEstimate(double min_interval_seconds,
                                     double max_interval_seconds) const;
};

struct VarianceTimeOptions {
  // Block sizes are swept geometrically: m = 1, ceil(1*ratio), ... while at
  // least `min_blocks` whole blocks fit in the series.
  double ratio = 1.5;
  std::size_t min_blocks = 8;
};

// Computes the variance-time plot of `base` (typically a 10 ms packet-count
// series, as in the paper). Throws if the series has fewer than
// options.min_blocks bins or zero variance.
[[nodiscard]] VarianceTimePlot ComputeVarianceTime(const TimeSeries& base,
                                                   const VarianceTimeOptions& options = {});

// Convenience wrapper around the paper's three-region reading of Figure 5.
struct HurstRegions {
  double small_scale = 0.0;  // m < 50 ms      (expect H < 1/2: periodicity)
  double mid_scale = 0.0;    // 50 ms - 30 min (expect H > 1/2: map changes)
  double large_scale = 0.0;  // > 30 min       (expect H ~ 1/2)
};

// A region holding fewer than two plot points (a short trace) reports 1/2.
[[nodiscard]] HurstRegions EstimateHurstRegions(const VarianceTimePlot& plot,
                                                double small_mid_boundary = 0.050,
                                                double mid_large_boundary = 1800.0);

}  // namespace gametrace::stats
