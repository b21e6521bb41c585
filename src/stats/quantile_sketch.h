// Relative-error streaming quantile sketch (DDSketch-style, Masson et al.).
//
// The paper's provisioning questions are tail questions - p99 per-client
// bandwidth against the 56 kbps modem ceiling (Figure 11), delay tails
// through the NAT device - and answering them live over an unbounded
// packet stream needs bounded memory. The sketch buckets values
// geometrically: bucket key k covers (gamma^(k-1), gamma^k] with
// gamma = (1 + alpha) / (1 - alpha), so any reported quantile is within
// relative error `alpha` of the exact sample quantile at the same rank.
// The store is a dense bounded array; when the dynamic range would exceed
// `max_buckets`, the lowest buckets collapse into one, preserving the
// upper tail (the provisioning-relevant end) exactly.
//
// Determinism / merge contract: the sketch state is a pure function of the
// *multiset* of samples. Merge() adds bucket counts key-wise and
// re-collapses; the collapse boundary depends only on the highest key
// present, so any merge order - and therefore any fleet worker count -
// produces bit-identical state. This is strictly stronger than the
// shard-order-fold guarantee the other accumulators provide.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace gametrace::stats {

// The bucket key ceil(log(x) / log_gamma) of one geometry without libm,
// for x in [2^kMinExponent, 2^(kMaxExponent + 1)). A sub-bin is an octave
// cut by the top kSubBits mantissa bits of x; it spans ln(1 + 2^-8) /
// log_gamma keys, about 0.195 at alpha = 0.01, so every x in it has key
// c or c + 1 for the sub-bin's candidate c, split at gamma^c. One compare
// against gamma^c gives the key, except within a relative kGuard of
// gamma^c, where Find() declines and the caller takes the libm expression.
// Outside that band the exact log(x) / log_gamma is more than
// kGuard / log_gamma keys (5e-10 at alpha = 0.01) from every integer, and
// the libm quotient is a few ulps of |key| <= 1300 off it, so both give
// the same ceiling; the constructor checks each sub-bin's part of
// that argument. Alpha must give sub-bins narrower than one key.
class SketchKeyTable {
 public:
  static constexpr int kMinExponent = -30;  // 2^-30 < 1e-9, the indexable floor
  static constexpr int kMaxExponent = 34;   // x < 2^35, about 3.4e10
  static constexpr int kSubBits = 8;
  static constexpr double kGuard = 1e-11;

  explicit SketchKeyTable(double log_gamma);

  // The key of x, computed as the libm expression would; false when x is
  // outside the table or within the guard band of a bucket edge.
  bool Find(double x, std::int32_t& key) const noexcept {
    const std::uint64_t sub = (std::bit_cast<std::uint64_t>(x) >> (52 - kSubBits)) - kFirstSubBin;
    if (sub >= offsets_.size()) return false;
    const std::int32_t c = octave_keys_[sub >> kSubBits] + offsets_[sub];
    const double power = powers_[static_cast<std::size_t>(c - min_key_)];
    const bool above = x > power * (1.0 + kGuard);
    key = c + static_cast<std::int32_t>(above);
    return above | (x < power * (1.0 - kGuard));
  }

 private:
  // Biased exponent and top mantissa bits of 2^kMinExponent.
  static constexpr std::uint64_t kFirstSubBin = std::uint64_t{1023 + kMinExponent} << kSubBits;

  // A sub-bin's candidate is its octave's first candidate plus a one-byte
  // offset (an octave spans ln 2 / log_gamma keys, about 35).
  std::int32_t min_key_;
  std::vector<std::int32_t> octave_keys_;  // per octave
  std::vector<std::uint8_t> offsets_;      // per sub-bin
  std::vector<double> powers_;             // gamma^k per key k from min_key_
};

// Quantile sketch over non-negative samples with relative accuracy
// `alpha` and at most `max_buckets` geometric buckets.
class QuantileSketch {
 public:
  static constexpr double kDefaultAlpha = 0.01;
  // Values below this are not worth a geometric bucket (a kbps or pps of
  // 1e-9 is indistinguishable from idle); they share the zero bucket.
  static constexpr double kMinIndexable = 1e-9;

  explicit QuantileSketch(double alpha = kDefaultAlpha, std::size_t max_buckets = 1024);

  // Records `weight` occurrences of `x`. x must be finite and >= 0; values
  // below the indexable floor (1e-9) land in a dedicated zero bucket.
  // O(1) amortized: one key (a table lookup at the default alpha, a log
  // otherwise), one bucket increment.
  void Add(double x, std::uint64_t weight = 1) {
    if (!(std::isfinite(x) && x >= 0.0)) [[unlikely]] RejectSample(x);
    if (weight == 0) return;
    if (count_ == 0) {
      min_ = x;
      max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    count_ += weight;
    sum_ += x * static_cast<double>(weight);
    if (x < kMinIndexable) {
      zero_count_ += weight;
      return;
    }
    const std::int32_t key = KeyFor(x);
    // Wraps to a large index below min_key_; an empty store has size 0.
    const auto i = static_cast<std::uint32_t>(key - min_key_);
    if (i < counts_.size()) {
      counts_[i] += weight;
      return;
    }
    AddKey(key, weight);
  }

  // Absorbs another sketch of identical (alpha, max_buckets) geometry.
  // Bucket counts add key-wise; see the header comment for why the result
  // is independent of merge order. GT_CHECK fails on a geometry mismatch.
  void Merge(const QuantileSketch& other);

  // Value at quantile q in [0, 1], within relative error alpha of the
  // exact sample quantile at the same rank (clamped to the observed
  // [min, max]). Returns 0 for an empty sketch.
  [[nodiscard]] double Quantile(double q) const;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::uint64_t zero_count() const noexcept { return zero_count_; }
  [[nodiscard]] double min() const noexcept { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ > 0 ? max_ : 0.0; }
  // Exact running sum of samples (weighted); feeds Prometheus summary _sum.
  [[nodiscard]] double sum() const noexcept { return sum_; }

  [[nodiscard]] double alpha() const noexcept { return alpha_; }
  [[nodiscard]] double gamma() const noexcept { return gamma_; }
  [[nodiscard]] std::size_t max_buckets() const noexcept { return max_buckets_; }

  // Dense bucket store: bucket i holds key min_key() + i. Exposed for
  // serialization (flight / metrics JSON) and the merge-determinism tests.
  [[nodiscard]] std::int32_t min_key() const noexcept { return min_key_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept { return counts_[i]; }

  // True when geometry (alpha, max_buckets) matches; the precondition for
  // Merge and for re-registration under the same instrument name.
  [[nodiscard]] bool SameShape(const QuantileSketch& other) const noexcept {
    return alpha_ == other.alpha_ && max_buckets_ == other.max_buckets_;
  }

  // Heap + object footprint in bytes; the telemetry memory gate sums this.
  [[nodiscard]] std::size_t MemoryBytes() const noexcept;

  // The definition of a sample's bucket key: ceil(log(x) / log_gamma).
  [[nodiscard]] static std::int32_t LibmKey(double x, double log_gamma) noexcept {
    return static_cast<std::int32_t>(std::ceil(std::log(x) / log_gamma));
  }

 private:
  // The contract failure of Add, out of line to keep Add small.
  [[noreturn]] static void RejectSample(double x);
  [[nodiscard]] std::int32_t KeyFor(double x) const noexcept {
    std::int32_t key = 0;
    if (key_table_ != nullptr && key_table_->Find(x, key)) return key;
    return LibmKey(x, log_gamma_);
  }
  void AddKey(std::int32_t key, std::uint64_t weight);
  void CollapseToBound();

  double alpha_;
  double gamma_;
  double log_gamma_;
  const SketchKeyTable* key_table_;  // the shared default-alpha table, or null
  std::size_t max_buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t zero_count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
  std::int32_t min_key_ = 0;  // key of counts_[0]; meaningless while empty
  std::vector<std::uint64_t> counts_;
};

}  // namespace gametrace::stats
