// Random variate generation on top of sim::Rng.
//
// Only the distributions the workload and device models actually need;
// all take the Rng by reference so streams stay caller-owned.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/rng.h"

namespace gametrace::sim {

// U[lo, hi)
[[nodiscard]] double Uniform(Rng& rng, double lo, double hi) noexcept;

// Exponential with the given mean (= 1/rate). mean must be > 0.
[[nodiscard]] double Exponential(Rng& rng, double mean);

// Standard normal via Box-Muller (single-value form; no cached state so the
// generator stays stateless with respect to the distribution).
[[nodiscard]] double StandardNormal(Rng& rng) noexcept;

[[nodiscard]] double Normal(Rng& rng, double mean, double stddev) noexcept;

// Lognormal parameterised by the mean/stddev of the *resulting* variable
// (more convenient for calibration than mu/sigma of the underlying normal).
[[nodiscard]] double LognormalFromMoments(Rng& rng, double mean, double stddev);

// Pareto with scale x_m > 0 and shape alpha > 0 (heavy-tailed durations).
[[nodiscard]] double Pareto(Rng& rng, double x_m, double alpha);

[[nodiscard]] bool Bernoulli(Rng& rng, double p) noexcept;

// Poisson-distributed count with the given mean (Knuth for small means,
// normal approximation above 64 - fine for workload generation).
[[nodiscard]] std::uint64_t Poisson(Rng& rng, double mean);

// Zipf-like popularity sampler over [0, n): P(i) proportional to
// 1/(i+1)^s. Precomputes the CDF once; used for the client-identity pool
// (a few regulars account for most sessions - paper Table I: 16,030
// sessions from 5,886 unique clients).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  [[nodiscard]] std::size_t Sample(Rng& rng) const;
  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace gametrace::sim
