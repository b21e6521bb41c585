// Fixed-bin histogram with PDF/CDF extraction.
//
// This is the workhorse behind the paper's Figure 11 (per-client bandwidth
// histogram), Figure 12 (packet-size PDFs) and Figure 13 (packet-size CDFs).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/check.h"

namespace gametrace::stats {

// Histogram over [lo, hi) with `bins` equal-width bins.
//
// Samples below `lo` land in an underflow bucket, samples at or above `hi`
// in an overflow bucket; both are reported separately so truncated plots
// (the paper truncates packet sizes at 500 B) can state what was dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  // Defined inline: the per-packet hot path of the size-distribution
  // figures.
  void Add(double x, std::uint64_t weight = 1) noexcept {
    total_ += weight;
    if (x < lo_) {
      underflow_ += weight;
      return;
    }
    if (x >= hi_) {
      overflow_ += weight;
      return;
    }
    auto bin = static_cast<std::size_t>((x - lo_) / width_);
    // Floating-point edge case: x infinitesimally below hi_ can round to
    // size().
    bin = std::min(bin, counts_.size() - 1);
    counts_[bin] += weight;
  }

  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }
  [[nodiscard]] std::size_t bin_count() const noexcept { return counts_.size(); }
  [[nodiscard]] double bin_width() const noexcept { return width_; }

  [[nodiscard]] std::uint64_t count(std::size_t bin) const {
    GT_CHECK_LT(bin, counts_.size()) << "Histogram::count: bin out of range";
    return counts_[bin];
  }
  [[nodiscard]] std::uint64_t underflow() const noexcept { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
  // Total including under/overflow.
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  // Total landing inside [lo, hi).
  [[nodiscard]] std::uint64_t total_in_range() const noexcept {
    return total_ - underflow_ - overflow_;
  }

  // Center of bin i.
  [[nodiscard]] double bin_center(std::size_t bin) const;
  // Left edge of bin i.
  [[nodiscard]] double bin_left(std::size_t bin) const;

  // P(bin) normalised over *all* samples (under/overflow inclusive), so the
  // in-range PDF sums to <= 1 exactly as in the paper's truncated plots.
  [[nodiscard]] std::vector<double> Pdf() const;
  // Cumulative P(X <= right edge of bin), again normalised over all samples
  // with underflow counted below the first bin.
  [[nodiscard]] std::vector<double> Cdf() const;

  // Smallest x such that CDF(x) >= q, linearly interpolated within the bin.
  // q must be in [0, 1]; returns hi() if q exceeds the in-range mass.
  [[nodiscard]] double Quantile(double q) const;

  // Index of the fullest bin (ties: lowest index). Total must be > 0.
  [[nodiscard]] std::size_t ModeBin() const;

  // Mean of the samples as reconstructed from bin centers (in-range only).
  [[nodiscard]] double ApproxMean() const;

  void Merge(const Histogram& other);

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace gametrace::stats
