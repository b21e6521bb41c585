// Streaming first/second-moment accumulator (Welford's algorithm).
//
// Used everywhere a mean/variance over an unbounded packet stream is needed
// (Tables II/III mean packet sizes and loads) without storing samples.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

namespace gametrace::stats {

// Numerically stable running mean / variance / min / max.
//
// All operations are O(1); two accumulators can be merged (parallel
// aggregation) with Merge(). Variance is the *sample* variance (n-1
// denominator); for n < 2 it is 0.
class RunningStats {
 public:
  // Defined inline: one Welford step per packet on the summary hot path.
  void Add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  // Combines another accumulator into this one, as if every sample fed to
  // `other` had been fed to *this (Chan et al. parallel variance).
  void Merge(const RunningStats& other) noexcept;

  void Reset() noexcept { *this = RunningStats{}; }

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }
  [[nodiscard]] double variance() const noexcept;          // sample variance
  [[nodiscard]] double population_variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ > 0 ? max_ : 0.0; }

  // Coefficient of variation (stddev / mean); 0 when the mean is 0.
  [[nodiscard]] double cv() const noexcept;

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;  // sum of squared deviations from the running mean
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace gametrace::stats
