// Regular-interval time series with re-aggregation.
//
// The paper's Figures 1-4 and 6-10 are all the same object at different
// interval sizes m (10 ms .. 30 min); TimeSeries stores the base-resolution
// bins and Aggregate() produces any coarser view.
#pragma once

#include <cstdint>
#include <vector>

#include "core/check.h"

namespace gametrace::stats {

// A sequence of equal-width time bins starting at `start_time` seconds, each
// `interval` seconds wide, accumulating a double per bin (packet counts,
// byte counts, player counts, ...).
class TimeSeries {
 public:
  TimeSeries(double start_time, double interval);

  // Adds `value` to the bin containing time `t`. Bins are created on demand;
  // samples before start_time are counted in dropped_before_start() and
  // otherwise ignored. Defined inline: this is the per-packet hot path of
  // every load/bandwidth figure.
  void Add(double t, double value = 1.0) {
    if (t < start_) {
      ++dropped_;
      return;
    }
    const std::size_t i = BinIndex(t);
    if (i >= bins_.size()) bins_.resize(i + 1, 0.0);
    bins_[i] += value;
  }

  // Overwrites the bin containing `t` (used for gauge-style series such as
  // player counts sampled once per interval).
  void Set(double t, double value);

  [[nodiscard]] double start_time() const noexcept { return start_; }
  [[nodiscard]] double interval() const noexcept { return interval_; }
  [[nodiscard]] std::size_t size() const noexcept { return bins_.size(); }
  [[nodiscard]] bool empty() const noexcept { return bins_.empty(); }
  [[nodiscard]] double operator[](std::size_t i) const {
    GT_CHECK_LT(i, bins_.size()) << "TimeSeries: bin index out of range";
    return bins_[i];
  }
  [[nodiscard]] const std::vector<double>& values() const noexcept { return bins_; }
  [[nodiscard]] std::uint64_t dropped_before_start() const noexcept { return dropped_; }

  // Time at the left edge of bin i.
  [[nodiscard]] double bin_time(std::size_t i) const noexcept;

  // Ensures the series covers up to time `t_end` (zero-filled trailing bins).
  // Needed so idle tails are not silently truncated from rate computations.
  void ExtendTo(double t_end);

  // Sums each consecutive group of `factor` bins into a series with interval
  // factor * interval(). A trailing partial group is dropped (it would bias
  // the last bin low). factor must be >= 1.
  [[nodiscard]] TimeSeries Aggregate(std::size_t factor) const;

  // Per-bin mean over consecutive groups (Aggregate() / factor): this is the
  // "aggregated sequence of averages" used by the variance-time method.
  [[nodiscard]] TimeSeries AggregateMean(std::size_t factor) const;

  // Divides every bin by interval(), e.g. packets/bin -> packets/sec.
  [[nodiscard]] TimeSeries Rate() const;

  // Element-wise arithmetic over series with identical start/interval/size.
  [[nodiscard]] TimeSeries Plus(const TimeSeries& other) const;
  [[nodiscard]] TimeSeries Scaled(double k) const;

  // Bin-wise in-place add of a series with identical start/interval (sizes
  // may differ; the result covers the longer of the two). Equivalent to
  // having fed every sample of `other` into *this - the parallel-shard
  // reduction. Throws std::invalid_argument on incompatible geometry.
  void Merge(const TimeSeries& other);

  [[nodiscard]] double Mean() const noexcept;
  [[nodiscard]] double Variance() const noexcept;  // population variance
  [[nodiscard]] double Sum() const noexcept;
  [[nodiscard]] double Max() const noexcept;
  [[nodiscard]] double Min() const noexcept;

  // Index of the bin containing `t` (t must be >= start_time()). Public so
  // batch producers can run-aggregate same-bin samples with the exact
  // binning the scalar path uses.
  [[nodiscard]] std::size_t BinIndex(double t) const noexcept {
    return static_cast<std::size_t>((t - start_) / interval_);
  }

  // Adds `value` directly to bin `bin` (as returned by BinIndex), skipping
  // the time-to-bin division. For run-aggregating batch producers: adding a
  // run's integral sum here is bit-identical to per-sample Add calls.
  void AddAtBin(std::size_t bin, double value) {
    if (bin >= bins_.size()) bins_.resize(bin + 1, 0.0);
    bins_[bin] += value;
  }

 private:
  double start_;
  double interval_;
  std::vector<double> bins_;
  std::uint64_t dropped_ = 0;
};

}  // namespace gametrace::stats
