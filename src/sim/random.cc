#include "sim/random.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "core/check.h"

namespace gametrace::sim {

double Exponential(Rng& rng, double mean) {
  GT_CHECK(mean > 0.0) << "Exponential: mean must be > 0";
  // 1 - u is in (0, 1], so the log is finite.
  return -mean * std::log(1.0 - rng.NextDouble());
}

double BoxMuller(double u1, double u2) noexcept {
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double StandardNormal(Rng& rng) noexcept {
  // u1 in (0,1] to keep log finite.
  const double u1 = 1.0 - rng.NextDouble();
  const double u2 = rng.NextDouble();
  return BoxMuller(u1, u2);
}

double Normal(Rng& rng, double mean, double stddev) noexcept {
  return mean + stddev * StandardNormal(rng);
}

std::uint16_t ClampedNormalReference(double u1, double u2, const ClampedNormal& p) noexcept {
  return ClampRound(p.mean + p.stddev * BoxMuller(u1, u2), p.lo, p.hi);
}

double LognormalFromMoments(Rng& rng, double mean, double stddev) {
  GT_CHECK(mean > 0.0) << "LognormalFromMoments: mean must be > 0";
  GT_CHECK(stddev >= 0.0) << "LognormalFromMoments: stddev must be >= 0";
  if (stddev == 0.0) return mean;
  const double variance_ratio = (stddev * stddev) / (mean * mean);
  const double sigma2 = std::log(1.0 + variance_ratio);
  const double mu = std::log(mean) - sigma2 / 2.0;
  return std::exp(mu + std::sqrt(sigma2) * StandardNormal(rng));
}

double Pareto(Rng& rng, double x_m, double alpha) {
  GT_CHECK(x_m > 0.0 && alpha > 0.0) << "Pareto: bad parameters";
  const double u = 1.0 - rng.NextDouble();  // (0, 1]
  return x_m / std::pow(u, 1.0 / alpha);
}

std::uint64_t Poisson(Rng& rng, double mean) {
  GT_CHECK(mean >= 0.0) << "Poisson: mean must be >= 0";
  if (mean == 0.0) return 0;
  if (mean > 64.0) {
    // Normal approximation with continuity correction.
    const double draw = Normal(rng, mean, std::sqrt(mean));
    return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
  }
  const double limit = std::exp(-mean);
  std::uint64_t k = 0;
  double product = rng.NextDouble();
  while (product > limit) {
    ++k;
    product *= rng.NextDouble();
  }
  return k;
}

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  GT_CHECK_NE(n, 0u) << "ZipfSampler: n must be > 0";
  cdf_.resize(n);
  double running = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    running += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = running;
  }
  for (auto& v : cdf_) v /= running;
}

std::size_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it == cdf_.end() ? cdf_.size() - 1 : it - cdf_.begin());
}

}  // namespace gametrace::sim
