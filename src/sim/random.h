// Random variate generation on top of sim::Rng.
//
// Only the distributions the workload and device models actually need;
// all take the Rng by reference so streams stay caller-owned.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/rng.h"

namespace gametrace::sim {

// U[lo, hi)
[[nodiscard]] inline double Uniform(Rng& rng, double lo, double hi) noexcept {
  return lo + (hi - lo) * rng.NextDouble();
}

// Exponential with the given mean (= 1/rate). mean must be > 0.
[[nodiscard]] double Exponential(Rng& rng, double mean);

// Standard normal via Box-Muller (single-value form; no cached state so the
// generator stays stateless with respect to the distribution).
[[nodiscard]] double StandardNormal(Rng& rng) noexcept;

[[nodiscard]] double Normal(Rng& rng, double mean, double stddev) noexcept;

// The Box-Muller variate StandardNormal returns for the uniforms
// u1 = 1 - rng.NextDouble() in (0, 1] and u2 = rng.NextDouble() in [0, 1).
[[nodiscard]] double BoxMuller(double u1, double u2) noexcept;

// ---------------------------------------------------------------------------
// Clamped, rounded normal: the draw behind every packet size,
// ClampRound(Normal(mean, stddev), lo, hi).
//
// ClampedNormalReference is the definition: the libm Box-Muller expression,
// rounded half away from zero and clamped to [lo, hi]. SampleClampedNormal
// returns exactly the same integer for every input. It first evaluates the
// normal with no libm call (PolyBoxMuller) and falls back to the reference
// only where that value cannot decide the rounding (ClampedNormalFast).
//
// Why the fast path is exact. Write z for the variate the reference
// computes and z' for the polynomial one:
//   log u1   u1 = 2^e * m with m in [sqrt(1/2), sqrt(2)) (exponent split),
//            log m = 2 atanh(s), s = f / (2 + f), f = m - 1, |s| <= 0.1716.
//            The series stops at s^11; its remainder is at most
//            |s|^13 / 13 / (1 - s^2), a relative 5.2e-11 of log m. Through
//            r = sqrt(-2 log u1) that is <= 2.2e-11 in r: for e = 0 because
//            r <= sqrt(ln 2) there, for e != 0 because |log u1| >= ln(2)/2.
//   cos      cos(2 pi u2) = sin(2 pi w), w = 1/4 - min(u2, 1 - u2), exact
//            in binary64 since u2 is a multiple of 2^-53; |2 pi w| <= pi/2.
//            The odd Taylor series stops at x^15; the alternating remainder
//            is at most (pi/2)^17 / 17! = 6.1e-12, times r <= 8.5717
//            (u1 >= 2^-53) gives 5.2e-11.
//   rounding The ~40 rounded operations of each side, with the reference's
//            libm log/cos/sqrt each allowed 4 ulp and its argument
//            fl(2 pi * u2) off by 2 ulp of 2 pi, add < 1e-13.
// So |z' - z| <= kPolyBoxMullerError = 1e-10. In the safe range |mean| <= 2^16,
// |stddev| <= 2^12, the mean + stddev * z step of each side rounds twice
// with results below 2^17, adding < c = kFinalRounding = 2.2e-11 to the
// gap, so |y' - y| <= 2^12 * 1e-10 + c = 4.1e-7 < kDelta = 1e-6.
// A y' further than kDelta from every half-integer therefore has y on the
// same side of every half-integer, and both round to the same integer;
// clamping an equal integer gives an equal size. Anything else - a NaN,
// infinite or huge parameter, lo > hi, a uniform outside its domain, or a
// y' within kDelta of a rounding tie (about 2e-6 of default draws) - takes
// the reference.
// ---------------------------------------------------------------------------

struct ClampedNormal {
  double mean = 0.0;
  double stddev = 0.0;
  std::uint16_t lo = 0;
  std::uint16_t hi = 0;
};

// round(x) clamped to [lo, hi]; the reference's final step.
[[nodiscard]] inline std::uint16_t ClampRound(double x, std::uint16_t lo,
                                              std::uint16_t hi) noexcept {
  const double rounded = std::round(x);
  if (rounded <= static_cast<double>(lo)) return lo;
  if (rounded >= static_cast<double>(hi)) return hi;
  return static_cast<std::uint16_t>(rounded);
}

// ClampRound(p.mean + p.stddev * BoxMuller(u1, u2), p.lo, p.hi).
[[nodiscard]] std::uint16_t ClampedNormalReference(double u1, double u2,
                                                   const ClampedNormal& p) noexcept;

// Bound on |PolyBoxMuller(u1, u2) - BoxMuller(u1, u2)| (derivation above).
inline constexpr double kPolyBoxMullerError = 1e-10;

// The two libm-free halves of PolyBoxMuller. -2 log u1, for u1 in
// [2^-53, 1]:
[[nodiscard]] inline double PolyNegTwoLog(double u1) noexcept {
  // Exponent split: u1 = 2^e * m, m in [sqrt(1/2), sqrt(2)).
  constexpr std::uint64_t kSqrtHalfBits = 0x3fe6a09e667f3bcdULL;
  constexpr std::uint64_t kOneBits = 0x3ff0000000000000ULL;
  const std::uint64_t shifted = std::bit_cast<std::uint64_t>(u1) + (kOneBits - kSqrtHalfBits);
  // e = (shifted >> 52) - 1023, converted exactly through the 2^52 exponent.
  const double e = std::bit_cast<double>(0x4330000000000000ULL | (shifted >> 52)) -
                   (0x1p52 + 1023.0);
  const double m = std::bit_cast<double>((shifted & 0x000fffffffffffffULL) + kSqrtHalfBits);
  const double f = m - 1.0;
  const double s = f / (2.0 + f);
  const double s2 = s * s;
  // log m = s * a, the series in Estrin's order (shorter dependency chains
  // than Horner).
  const double s4 = s2 * s2;
  const double a = (2.0 + s2 * (2.0 / 3.0)) +
                   s4 * ((2.0 / 5.0 + s2 * (2.0 / 7.0)) + s4 * (2.0 / 9.0 + s2 * (2.0 / 11.0)));
  return -2.0 * (e * 0.6931471805599453 + s * a);
}

// cos(2 pi u2) as sin(2 pi w), for u2 in [0, 1).
[[nodiscard]] inline double PolyCos2Pi(double u2) noexcept {
  const double w = 0.25 - std::min(u2, 1.0 - u2);
  const double x = 6.283185307179586 * w;
  const double x2 = x * x;
  const double x4 = x2 * x2;
  const double x8 = x4 * x4;
  const double b = ((1.0 - x2 * (1.0 / 6.0)) + x4 * (1.0 / 120.0 - x2 * (1.0 / 5040.0))) +
                   x8 * ((1.0 / 362880.0 - x2 * (1.0 / 39916800.0)) +
                         x4 * (1.0 / 6227020800.0 - x2 * (1.0 / 1307674368000.0)));
  return x * b;
}

// BoxMuller(u1, u2) to within kPolyBoxMullerError, with no libm call, for
// u1 in [2^-53, 1] and u2 in [0, 1); NaN outside that domain.
[[nodiscard]] inline double PolyBoxMuller(double u1, double u2) noexcept {
  const bool in_domain = (u1 >= 0x1p-53) & (u1 <= 1.0) & (u2 >= 0.0) & (u2 < 1.0);
  return in_domain ? std::sqrt(PolyNegTwoLog(u1)) * PolyCos2Pi(u2)
                   : std::numeric_limits<double>::quiet_NaN();
}

// The guard: true, with the size in `out`, when mean + stddev * z_poly
// (z_poly = PolyBoxMuller(u1, u2)) provably rounds to the reference's
// integer; false when the caller must use ClampedNormalReference.
[[nodiscard]] inline bool ClampedNormalFast(double z_poly, const ClampedNormal& p,
                                            std::uint16_t& out) noexcept {
  constexpr double kMaxAbsMean = 0x1p16;
  constexpr double kMaxAbsStddev = 0x1p12;
  constexpr double kFinalRounding = 2.2e-11;  // c
  constexpr double kDelta = 1e-6;
  static_assert(kMaxAbsStddev * kPolyBoxMullerError + kFinalRounding < kDelta);
  const double y = p.mean + p.stddev * z_poly;
  // Nearest integer by the 1.5 * 2^52 shift (|y| < 2^17 in the safe
  // range). It rounds ties to even where the reference rounds them away
  // from zero, but the guard sends every y near a tie to the reference.
  const double nearest = (y + 0x1.8p52) - 0x1.8p52;
  const double frac = y - nearest;  // exact
  // max/min in this order map a NaN to lo, keeping the cast defined.
  out = static_cast<std::uint16_t>(
      std::min(static_cast<double>(p.hi), std::max(static_cast<double>(p.lo), nearest)));
  return (p.lo <= p.hi) & (std::fabs(p.mean) <= kMaxAbsMean) &
         (std::fabs(p.stddev) <= kMaxAbsStddev) & (std::fabs(frac) < 0.5 - kDelta);
}

// The size for uniforms u1 = 1 - rng.NextDouble(), u2 = rng.NextDouble():
// always ClampedNormalReference(u1, u2, p), mostly without libm.
[[nodiscard]] inline std::uint16_t SampleClampedNormal(double u1, double u2,
                                                       const ClampedNormal& p) noexcept {
  std::uint16_t size = 0;
  if (ClampedNormalFast(PolyBoxMuller(u1, u2), p, size)) [[likely]] return size;
  return ClampedNormalReference(u1, u2, p);
}

// Draws the two uniforms in Normal's order, then samples.
[[nodiscard]] inline std::uint16_t SampleClampedNormal(Rng& rng, const ClampedNormal& p) noexcept {
  const double u1 = 1.0 - rng.NextDouble();
  const double u2 = rng.NextDouble();
  return SampleClampedNormal(u1, u2, p);
}

// Lognormal parameterised by the mean/stddev of the *resulting* variable
// (more convenient for calibration than mu/sigma of the underlying normal).
[[nodiscard]] double LognormalFromMoments(Rng& rng, double mean, double stddev);

// Pareto with scale x_m > 0 and shape alpha > 0 (heavy-tailed durations).
[[nodiscard]] double Pareto(Rng& rng, double x_m, double alpha);

[[nodiscard]] inline bool Bernoulli(Rng& rng, double p) noexcept { return rng.NextDouble() < p; }

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
