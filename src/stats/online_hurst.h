// Incremental variance-time / Hurst estimation (streaming Figure 5).
//
// The batch path (stats/variance_time.h) re-aggregates a stored TimeSeries
// at every block size m - O(series length) memory. This estimator keeps,
// for a fixed set of log-spaced block sizes, one open block accumulator
// and one RunningStats over completed block means, so the whole
// variance-time plot is maintained in O(#scales) memory while base-
// resolution bins stream through Push(). Blocks are aligned to absolute
// bin index (block b of scale m covers bins [b*m, (b+1)*m)), matching
// TimeSeries::AggregateMean, and a trailing partial block is excluded just
// as AggregateMean drops it - on identical input the per-scale normalized
// variances agree with ComputeVarianceTime up to floating-point noise.
//
// Merge semantics (fleet): per-scale block-mean statistics combine with
// the exact Chan parallel-variance formula, pooling the shards'
// block-mean populations. The merged plot is the population-pooled
// variance-time curve (the self-similarity of the *typical shard*), not
// the curve of the bin-wise summed aggregate series - computing the
// latter online would need cross-shard covariances, which no O(1) sketch
// can carry. The aggregate-series curve remains available post-hoc via
// core/aggregate + ComputeVarianceTime. Each side's open partial blocks
// cover the same trailing window when shards advance in lockstep; the
// other side's partials are discarded (at most one partial block per
// scale). Merging is a deterministic fold: fixed shard order in the fleet
// reduction gives bit-identical results at any worker count.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/running_stats.h"
#include "stats/variance_time.h"

namespace gametrace::stats {

class OnlineHurst {
 public:
  struct Options {
    double base_interval = 0.050;  // seconds per base bin
    // Block sizes 1, 2, 4, ..., 2^(num_scales - 1) base bins. 16 scales at
    // a 50 ms base reach 27 min - past the paper's 50 ms - 30 min mid
    // region.
    std::size_t num_scales = 16;
    std::size_t min_blocks = 8;  // completed blocks required per plot point
  };

  explicit OnlineHurst(Options options);

  // Feeds the next completed base-resolution bin value, in time order.
  // Defined inline: this is the per-base-bin hot path of every Hurst-
  // tracking TieredRing, called once per tick at simulation scale.
  void Push(double bin_value) {
    ++samples_;
    // Doubling scales nest exactly: a completed block at level i IS half a
    // block at level i + 1, so one completion propagates its raw sum
    // upward instead of every level re-accumulating every bin. Level i
    // fires every 2^i pushes - amortized O(1) per push. sum * inv_m is
    // exact for power-of-two m.
    double sum = bin_value;  // raw sum of the block just completed
    std::size_t i = 0;
    for (;;) {
      Scale& scale = scales_[i];
      scale.block_means.Add(sum * scale.inv_m);
      if (++i == scales_.size()) break;
      Scale& up = scales_[i];
      up.open_sum += sum;
      up.open_n += scale.m;
      if (up.open_n < up.m) break;
      sum = up.open_sum;
      up.open_sum = 0.0;
      up.open_n = 0;
    }
  }

  // Pools another estimator of identical options; see the header comment.
  void Merge(const OnlineHurst& other);

  // Base bins consumed so far (by this instance; pooled counts live in the
  // per-scale statistics).
  [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }

  [[nodiscard]] const Options& options() const noexcept { return options_; }
  [[nodiscard]] bool SameShape(const OnlineHurst& other) const noexcept;

  // Variance-time plot over every scale with >= min_blocks completed
  // blocks, normalized by the scale-1 population variance - the same
  // normalization as ComputeVarianceTime. Zero base variance yields an
  // empty plot (callers guard with CanEstimate).
  [[nodiscard]] VarianceTimePlot EstimatePlot() const;

  // True when the region [min_interval, max_interval] (seconds) holds at
  // least two plot points and the base variance is positive - the
  // precondition for HurstEstimate.
  [[nodiscard]] bool CanEstimate(double min_interval_seconds, double max_interval_seconds) const;

  // H over the given region; the paper's mid-scale region by default.
  // Returns 0.5 (the short-range-dependence asymptote) when CanEstimate
  // is false.
  [[nodiscard]] double HurstEstimate(double min_interval_seconds = 0.050,
                                     double max_interval_seconds = 1800.0) const;

  [[nodiscard]] std::size_t MemoryBytes() const noexcept;

 private:
  struct Scale {
    std::size_t m = 1;
    double inv_m = 1.0;         // 1/m; exact for power-of-two m, so
                                // sum * inv_m is bit-identical to sum / m
                                // without the divide latency
    double open_sum = 0.0;      // partial block in progress
    std::size_t open_n = 0;     // bins accumulated into open_sum
    RunningStats block_means;   // statistics over completed block means
  };

  Options options_;
  std::vector<Scale> scales_;
  std::uint64_t samples_ = 0;
};

}  // namespace gametrace::stats
