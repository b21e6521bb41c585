#include "stats/time_series.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/check.h"

namespace gametrace::stats {

TimeSeries::TimeSeries(double start_time, double interval)
    : start_(start_time), interval_(interval) {
  GT_CHECK(interval > 0.0) << "TimeSeries: interval must be positive";
}

void TimeSeries::Set(double t, double value) {
  if (t < start_) {
    ++dropped_;
    return;
  }
  const std::size_t i = BinIndex(t);
  if (i >= bins_.size()) bins_.resize(i + 1, 0.0);
  bins_[i] = value;
}

double TimeSeries::bin_time(std::size_t i) const noexcept {
  return start_ + static_cast<double>(i) * interval_;
}

void TimeSeries::ExtendTo(double t_end) {
  if (t_end <= start_) return;
  const auto needed = static_cast<std::size_t>(std::ceil((t_end - start_) / interval_));
  if (needed > bins_.size()) bins_.resize(needed, 0.0);
}

TimeSeries TimeSeries::Aggregate(std::size_t factor) const {
  GT_CHECK_NE(factor, 0u) << "TimeSeries::Aggregate: factor must be >= 1";
  TimeSeries out(start_, interval_ * static_cast<double>(factor));
  const std::size_t whole = bins_.size() / factor;
  out.bins_.resize(whole, 0.0);
  for (std::size_t g = 0; g < whole; ++g) {
    double sum = 0.0;
    for (std::size_t j = 0; j < factor; ++j) sum += bins_[g * factor + j];
    out.bins_[g] = sum;
  }
  return out;
}

TimeSeries TimeSeries::AggregateMean(std::size_t factor) const {
  TimeSeries out = Aggregate(factor);
  for (auto& v : out.bins_) v /= static_cast<double>(factor);
  return out;
}

TimeSeries TimeSeries::Rate() const {
  TimeSeries out(start_, interval_);
  out.bins_ = bins_;
  for (auto& v : out.bins_) v /= interval_;
  return out;
}

TimeSeries TimeSeries::Plus(const TimeSeries& other) const {
  GT_CHECK(other.start_ == start_ && other.interval_ == interval_)
      << "TimeSeries::Plus: incompatible series";
  TimeSeries out(start_, interval_);
  out.bins_.resize(std::max(bins_.size(), other.bins_.size()), 0.0);
  for (std::size_t i = 0; i < bins_.size(); ++i) out.bins_[i] += bins_[i];
  for (std::size_t i = 0; i < other.bins_.size(); ++i) out.bins_[i] += other.bins_[i];
  return out;
}

void TimeSeries::Merge(const TimeSeries& other) {
  GT_CHECK(other.start_ == start_ && other.interval_ == interval_)
      << "TimeSeries::Merge: incompatible series geometry";
  if (other.bins_.size() > bins_.size()) bins_.resize(other.bins_.size(), 0.0);
  for (std::size_t i = 0; i < other.bins_.size(); ++i) bins_[i] += other.bins_[i];
  dropped_ += other.dropped_;
}

TimeSeries TimeSeries::Scaled(double k) const {
  TimeSeries out(start_, interval_);
  out.bins_ = bins_;
  for (auto& v : out.bins_) v *= k;
  return out;
}

double TimeSeries::Mean() const noexcept {
  if (bins_.empty()) return 0.0;
  return Sum() / static_cast<double>(bins_.size());
}

double TimeSeries::Variance() const noexcept {
  if (bins_.empty()) return 0.0;
  const double m = Mean();
  double acc = 0.0;
  for (double v : bins_) {
    const double d = v - m;
    acc += d * d;
  }
  return acc / static_cast<double>(bins_.size());
}

double TimeSeries::Sum() const noexcept {
  double acc = 0.0;
  for (double v : bins_) acc += v;
  return acc;
}

double TimeSeries::Max() const noexcept {
  return bins_.empty() ? 0.0 : *std::max_element(bins_.begin(), bins_.end());
}

double TimeSeries::Min() const noexcept {
  return bins_.empty() ? 0.0 : *std::min_element(bins_.begin(), bins_.end());
}

}  // namespace gametrace::stats
