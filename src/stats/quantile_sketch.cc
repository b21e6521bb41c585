#include "stats/quantile_sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/check.h"

namespace gametrace::stats {

namespace {

double LogGamma(double alpha) { return std::log((1.0 + alpha) / (1.0 - alpha)); }

// Built on first use, once per process, and shared by every default sketch.
const SketchKeyTable& DefaultKeyTable() {
  static const SketchKeyTable table(LogGamma(QuantileSketch::kDefaultAlpha));
  return table;
}

}  // namespace

SketchKeyTable::SketchKeyTable(double log_gamma) {
  constexpr std::uint64_t kSubBins = std::uint64_t{kMaxExponent - kMinExponent + 1}
                                     << kSubBits;
  const auto first_x = [](std::uint64_t sub) {
    return std::bit_cast<double>((kFirstSubBin + sub) << (52 - kSubBits));
  };
  // One key of slack on each side for the candidate checks below.
  min_key_ = QuantileSketch::LibmKey(first_x(0), log_gamma) - 2;
  const std::int32_t max_key = QuantileSketch::LibmKey(first_x(kSubBins), log_gamma) + 2;
  powers_.resize(static_cast<std::size_t>(max_key - min_key_ + 1));
  for (std::int32_t k = min_key_; k <= max_key; ++k) {
    powers_[static_cast<std::size_t>(k - min_key_)] =
        std::exp(static_cast<double>(k) * log_gamma);
  }
  // The guard band around gamma^k, as Find() computes it.
  struct Band {
    double below;
    double above;
  };
  const auto band = [this](std::int32_t k) {
    const double power = powers_[static_cast<std::size_t>(k - min_key_)];
    return Band{.below = power * (1.0 - kGuard), .above = power * (1.0 + kGuard)};
  };

  octave_keys_.resize(kSubBins >> kSubBits);
  offsets_.resize(kSubBins);
  for (std::uint64_t sub = 0; sub < kSubBins; ++sub) {
    const double lo = first_x(sub);
    const double hi = first_x(sub + 1);
    // The libm key of the sub-bin's first value, one lower when that value
    // sits in the guard band of the key below.
    std::int32_t c = QuantileSketch::LibmKey(lo, log_gamma);
    if (lo <= band(c - 1).above) --c;
    // Every x in [lo, hi) below gamma^c's band is past gamma^(c-1)'s band,
    // and every x above it is short of gamma^(c+1)'s: the key is c or c + 1.
    GT_CHECK(lo > band(c - 1).above && hi <= band(c + 1).below)
        << "SketchKeyTable: a sub-bin spans more than one key edge";
    std::int32_t& octave_key = octave_keys_[sub >> kSubBits];
    if (sub % (std::uint64_t{1} << kSubBits) == 0) octave_key = c;
    GT_CHECK(c - octave_key >= 0 && c - octave_key <= 255)
        << "SketchKeyTable: an octave spans more than 255 keys";
    offsets_[sub] = static_cast<std::uint8_t>(c - octave_key);
  }
}

QuantileSketch::QuantileSketch(double alpha, std::size_t max_buckets)
    : alpha_(alpha), max_buckets_(max_buckets) {
  GT_CHECK(alpha > 0.0 && alpha < 1.0) << "QuantileSketch: alpha must be in (0,1)";
  GT_CHECK_GE(max_buckets, 2u) << "QuantileSketch: need at least two buckets";
  gamma_ = (1.0 + alpha_) / (1.0 - alpha_);
  log_gamma_ = std::log(gamma_);
  key_table_ = alpha == kDefaultAlpha ? &DefaultKeyTable() : nullptr;
}

void QuantileSketch::RejectSample(double x) {
  GT_CHECK(std::isfinite(x) && x >= 0.0) << "QuantileSketch::Add: sample must be finite and >= 0";
  GT_UNREACHABLE();
}

void QuantileSketch::AddKey(std::int32_t key, std::uint64_t weight) {
  if (counts_.empty()) {
    min_key_ = key;
    counts_.push_back(weight);
    return;
  }
  const std::int32_t max_key = min_key_ + static_cast<std::int32_t>(counts_.size()) - 1;
  if (key > max_key) {
    counts_.resize(counts_.size() + static_cast<std::size_t>(key - max_key), 0);
    counts_.back() += weight;
    CollapseToBound();
    return;
  }
  if (key < min_key_) {
    // The collapse boundary is a pure function of the highest key present,
    // so a low sample either grows the store (still under the bound) or
    // folds straight into the boundary bucket - the same final state as if
    // it had arrived before the collapse.
    const std::int32_t boundary =
        max_key - static_cast<std::int32_t>(max_buckets_) + 1;
    const std::int32_t new_min = std::max(key, boundary);
    if (new_min < min_key_) {
      counts_.insert(counts_.begin(), static_cast<std::size_t>(min_key_ - new_min), 0);
      min_key_ = new_min;
    }
    counts_[static_cast<std::size_t>(std::max(key, min_key_) - min_key_)] += weight;
    return;
  }
  counts_[static_cast<std::size_t>(key - min_key_)] += weight;
}

void QuantileSketch::CollapseToBound() {
  if (counts_.size() <= max_buckets_) return;
  const std::size_t overflow = counts_.size() - max_buckets_;
  std::uint64_t folded = 0;
  for (std::size_t i = 0; i <= overflow; ++i) folded += counts_[i];
  counts_.erase(counts_.begin(), counts_.begin() + static_cast<std::ptrdiff_t>(overflow));
  counts_.front() = folded;
  min_key_ += static_cast<std::int32_t>(overflow);
}

void QuantileSketch::Merge(const QuantileSketch& other) {
  GT_CHECK(SameShape(other)) << "QuantileSketch::Merge: geometry mismatch (alpha/max_buckets)";
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  zero_count_ += other.zero_count_;
  sum_ += other.sum_;
  for (std::size_t i = 0; i < other.counts_.size(); ++i) {
    if (other.counts_[i] == 0) continue;
    AddKey(other.min_key_ + static_cast<std::int32_t>(i), other.counts_[i]);
  }
}

double QuantileSketch::Quantile(double q) const {
  GT_CHECK(q >= 0.0 && q <= 1.0) << "QuantileSketch::Quantile: q must be in [0,1]";
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t cumulative = zero_count_;
  if (rank < static_cast<double>(cumulative)) return std::min(std::max(0.0, min_), max_);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (rank < static_cast<double>(cumulative)) {
      const std::int32_t key = min_key_ + static_cast<std::int32_t>(i);
      // Midpoint of the bucket's value range: 2 * gamma^key / (gamma + 1).
      const double estimate =
          2.0 * std::exp(static_cast<double>(key) * log_gamma_) / (gamma_ + 1.0);
      return std::clamp(estimate, min_, max_);
    }
  }
  return max_;
}

std::size_t QuantileSketch::MemoryBytes() const noexcept {
  return sizeof(*this) + counts_.capacity() * sizeof(std::uint64_t);
}

}  // namespace gametrace::stats
