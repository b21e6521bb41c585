#include "stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/check.h"

namespace gametrace::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
  GT_CHECK(std::isfinite(lo) && std::isfinite(hi))
      << "Histogram: bin edges must be finite (lo=" << lo << ", hi=" << hi << ")";
  GT_CHECK(hi > lo) << "Histogram: hi must exceed lo";
  GT_CHECK_NE(bins, 0) << "Histogram: need at least one bin";
}

double Histogram::bin_center(std::size_t bin) const {
  GT_CHECK_LT(bin, counts_.size()) << "Histogram::bin_center: bin out of range";
  return lo_ + (static_cast<double>(bin) + 0.5) * width_;
}

double Histogram::bin_left(std::size_t bin) const {
  GT_CHECK_LT(bin, counts_.size()) << "Histogram::bin_left: bin out of range";
  return lo_ + static_cast<double>(bin) * width_;
}

std::vector<double> Histogram::Pdf() const {
  std::vector<double> pdf(counts_.size(), 0.0);
  if (total_ == 0) return pdf;
  const double n = static_cast<double>(total_);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    pdf[i] = static_cast<double>(counts_[i]) / n;
  }
  return pdf;
}

std::vector<double> Histogram::Cdf() const {
  std::vector<double> cdf(counts_.size(), 0.0);
  if (total_ == 0) return cdf;
  const double n = static_cast<double>(total_);
  double running = static_cast<double>(underflow_);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    running += static_cast<double>(counts_[i]);
    cdf[i] = running / n;
  }
  return cdf;
}

double Histogram::Quantile(double q) const {
  GT_CHECK(q >= 0.0 && q <= 1.0) << "Histogram::Quantile: q outside [0,1]";
  if (total_ == 0) return lo_;
  const double target = q * static_cast<double>(total_);
  double running = static_cast<double>(underflow_);
  if (running >= target) return lo_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = running + static_cast<double>(counts_[i]);
    if (next >= target && counts_[i] > 0) {
      const double frac = (target - running) / static_cast<double>(counts_[i]);
      return bin_left(i) + frac * width_;
    }
    running = next;
  }
  return hi_;
}

std::size_t Histogram::ModeBin() const {
  GT_CHECK_NE(total_in_range(), 0) << "Histogram::ModeBin: empty histogram";
  return static_cast<std::size_t>(
      std::max_element(counts_.begin(), counts_.end()) - counts_.begin());
}

double Histogram::ApproxMean() const {
  const std::uint64_t n = total_in_range();
  if (n == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    sum += static_cast<double>(counts_[i]) * bin_center(i);
  }
  return sum / static_cast<double>(n);
}

void Histogram::Merge(const Histogram& other) {
  GT_CHECK(other.lo_ == lo_ && other.hi_ == hi_ && other.counts_.size() == counts_.size())
      << "Histogram::Merge: incompatible binning";
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
}

}  // namespace gametrace::stats
