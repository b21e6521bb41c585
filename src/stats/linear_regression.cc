#include "stats/linear_regression.h"

#include <cmath>
#include <stdexcept>

#include "core/check.h"

namespace gametrace::stats {

LineFit FitLine(std::span<const double> xs, std::span<const double> ys) {
  GT_CHECK_EQ(xs.size(), ys.size()) << "FitLine: size mismatch";
  const std::size_t n = xs.size();
  GT_CHECK_GE(n, 2u) << "FitLine: need at least two points";

  double sx = 0.0;
  double sy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += xs[i];
    sy += ys[i];
  }
  const double mx = sx / static_cast<double>(n);
  const double my = sy / static_cast<double>(n);

  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  GT_CHECK_NE(sxx, 0.0) << "FitLine: x values are all identical";

  LineFit fit;
  fit.n = n;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
  return fit;
}

}  // namespace gametrace::stats
