#include "stats/tiered_ring.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace gametrace::stats {

TieredRing::Options TieredRing::Options::PaperSchedule(double base_interval) {
  Options options;
  options.tiers = {
      {.interval = base_interval, .capacity = 128},           // ticks
      {.interval = base_interval * 20.0, .capacity = 240},    // ~seconds
      {.interval = base_interval * 1200.0, .capacity = 240},  // ~minutes
      {.interval = base_interval * 72000.0, .capacity = 168}, // ~hours, one week
  };
  return options;
}

TieredRing::TieredRing(Options options) : options_(std::move(options)) {
  GT_CHECK(!options_.tiers.empty()) << "TieredRing: need at least one tier";
  tiers_.reserve(options_.tiers.size());
  double previous_interval = 0.0;
  for (std::size_t k = 0; k < options_.tiers.size(); ++k) {
    const TierSpec& spec = options_.tiers[k];
    GT_CHECK_GT(spec.interval, 0.0) << "TieredRing: tier interval must be positive";
    GT_CHECK_GE(spec.capacity, 1u) << "TieredRing: tier capacity must be positive";
    GT_CHECK_GT(spec.interval, previous_interval)
        << "TieredRing: tiers must be ordered fine to coarse";
    previous_interval = spec.interval;
    Tier tier;
    tier.interval = spec.interval;
    tier.capacity = spec.capacity;
    tier.bins.resize(spec.capacity);
    tiers_.push_back(std::move(tier));
  }
  for (std::size_t k = 0; k + 1 < tiers_.size(); ++k) {
    const double ratio = tiers_[k + 1].interval / tiers_[k].interval;
    const auto whole = static_cast<std::size_t>(std::llround(ratio));
    GT_CHECK(whole >= 2 &&
             std::fabs(tiers_[k + 1].interval - tiers_[k].interval * static_cast<double>(whole)) <=
                 1e-9 * tiers_[k + 1].interval)
        << "TieredRing: each tier interval must be an integer multiple (>= 2) of the previous";
    tiers_[k].ratio = whole;
  }
  if (options_.track_hurst) {
    hurst_.emplace(OnlineHurst::Options{.base_interval = tiers_.front().interval,
                                        .num_scales = options_.hurst_scales});
  }
}

void TieredRing::EvictFront(std::size_t k) {
  Tier& tier = tiers_[k];
  const double value = tier.bins[static_cast<std::size_t>(tier.first) % tier.capacity];
  tier.evicted_value_max =
      tier.evicted == 0 ? value : std::max(tier.evicted_value_max, value);
  tier.evicted_value_sum += value;
  ++tier.evicted;
  if (k == 0 && hurst_.has_value()) hurst_->Push(value);
  ++tier.first;
  --tier.held;
  if (k + 1 < tiers_.size()) {
    if (tier.fold_phase == 0) {
      // First fold into this coarse bin: create it (cascading the coarse
      // tier's own evictions as needed). Later folds reuse the slot - the
      // coarse tier only ever evicts from its front, never the newest bin
      // being filled.
      const double* coarse = EnsureCovers(k + 1, tier.fold_index);
      GT_CHECK(coarse != nullptr) << "TieredRing: coarse tier fell behind its fine tier";
    }
    tiers_[k + 1].bins[tier.fold_slot] += value;
    if (++tier.fold_phase == tier.ratio) {
      tier.fold_phase = 0;
      ++tier.fold_index;
      if (++tier.fold_slot == tiers_[k + 1].capacity) tier.fold_slot = 0;
    }
  }
}

double* TieredRing::EnsureCovers(std::size_t k, std::int64_t index) {
  Tier& tier = tiers_[k];
  if (index < tier.first) return nullptr;  // window already moved past this bin
  while (tier.first + static_cast<std::int64_t>(tier.held) <= index) {
    if (tier.held == tier.capacity) {
      EvictFront(k);
      continue;
    }
    const auto slot =
        static_cast<std::size_t>(tier.first + static_cast<std::int64_t>(tier.held)) %
        tier.capacity;
    tier.bins[slot] = 0.0;
    ++tier.held;
  }
  return &tier.bins[static_cast<std::size_t>(index) % tier.capacity];
}

void TieredRing::Add(double t, double value) {
  // Same-bin fast path (see the header): the common case is a burst of
  // samples into the newest base bin, two compares away.
  if (t >= fast_lo_ && t < fast_hi_) {
    tiers_.front().bins[fast_slot_] += value;
    return;
  }
  const double interval = tiers_.front().interval;
  std::int64_t index;
  if (fast_hi_ >= 0.0 && t >= fast_hi_ && t < fast_hi_ + interval) {
    // Consecutive-bin path (the tick cadence): the sample falls in the bin
    // right after the cached one, so its index is one increment - no
    // divide. NaN/inf t fail the window compares and take the checked
    // divide below.
    index = fast_index_ + 1;
  } else {
    GT_CHECK(std::isfinite(t) && t >= 0.0) << "TieredRing::Add: time must be finite and >= 0";
    index = static_cast<std::int64_t>(t / interval);
  }
  double* bin = EnsureCovers(0, index);
  if (bin == nullptr) {
    ++dropped_late_;
    return;
  }
  // The bin just produced (or found) is tier 0's newest; cache its window.
  // EnsureCovers cannot evict it afterwards without another slow-path call.
  fast_lo_ = static_cast<double>(index) * interval;
  fast_hi_ = static_cast<double>(index + 1) * interval;
  fast_slot_ = static_cast<std::size_t>(index) % tiers_.front().capacity;
  fast_index_ = index;
  *bin += value;
}

void TieredRing::AdvanceTo(double t) {
  GT_CHECK(std::isfinite(t) && t >= 0.0) << "TieredRing::AdvanceTo: time must be finite and >= 0";
  fast_hi_ = -1.0;  // the window may move past the cached bin
  const auto index = static_cast<std::int64_t>(t / tiers_.front().interval);
  if (index < tiers_.front().first) return;
  EnsureCovers(0, index);
}

bool TieredRing::SameShape(const TieredRing& other) const noexcept {
  if (options_.track_hurst != other.options_.track_hurst ||
      options_.hurst_scales != other.options_.hurst_scales ||
      tiers_.size() != other.tiers_.size()) {
    return false;
  }
  for (std::size_t k = 0; k < tiers_.size(); ++k) {
    if (tiers_[k].interval != other.tiers_[k].interval ||
        tiers_[k].capacity != other.tiers_[k].capacity) {
      return false;
    }
  }
  return true;
}

void TieredRing::Merge(const TieredRing& other) {
  GT_CHECK(SameShape(other)) << "TieredRing::Merge: schedule mismatch";
  for (std::size_t k = 0; k < tiers_.size(); ++k) {
    Tier& mine = tiers_[k];
    const Tier& theirs = other.tiers_[k];
    GT_CHECK(mine.first == theirs.first && mine.held == theirs.held)
        << "TieredRing::Merge: rings must advance in lockstep (same duration, same "
           "grid); AdvanceTo a common end time first";
    for (std::size_t i = 0; i < mine.held; ++i) {
      const auto slot =
          static_cast<std::size_t>(mine.first + static_cast<std::int64_t>(i)) % mine.capacity;
      mine.bins[slot] += theirs.bins[slot];
    }
    // Pooled eviction aggregates: sums add (aggregate-exact mean), peaks
    // take the worst single shard - see the header comment.
    mine.evicted_value_sum += theirs.evicted_value_sum;
    mine.evicted_value_max = std::max(mine.evicted_value_max, theirs.evicted_value_max);
  }
  dropped_late_ += other.dropped_late_;
  if (hurst_.has_value()) hurst_->Merge(*other.hurst_);
}

double TieredRing::tier_interval(std::size_t tier) const {
  GT_CHECK_LT(tier, tiers_.size()) << "TieredRing: tier out of range";
  return tiers_[tier].interval;
}

std::size_t TieredRing::tier_capacity(std::size_t tier) const {
  GT_CHECK_LT(tier, tiers_.size()) << "TieredRing: tier out of range";
  return tiers_[tier].capacity;
}

std::size_t TieredRing::tier_held(std::size_t tier) const {
  GT_CHECK_LT(tier, tiers_.size()) << "TieredRing: tier out of range";
  return tiers_[tier].held;
}

std::int64_t TieredRing::tier_first(std::size_t tier) const {
  GT_CHECK_LT(tier, tiers_.size()) << "TieredRing: tier out of range";
  return tiers_[tier].first;
}

std::uint64_t TieredRing::tier_evicted(std::size_t tier) const {
  GT_CHECK_LT(tier, tiers_.size()) << "TieredRing: tier out of range";
  return tiers_[tier].evicted;
}

double TieredRing::TierValue(std::size_t tier, std::int64_t index) const {
  GT_CHECK_LT(tier, tiers_.size()) << "TieredRing: tier out of range";
  const Tier& t = tiers_[tier];
  GT_CHECK(index >= t.first && index < t.first + static_cast<std::int64_t>(t.held))
      << "TieredRing::TierValue: bin not held";
  return t.bins[static_cast<std::size_t>(index) % t.capacity];
}

TieredRing::TierStats TieredRing::Stats(std::size_t tier) const {
  GT_CHECK_LT(tier, tiers_.size()) << "TieredRing: tier out of range";
  const Tier& t = tiers_[tier];
  TierStats stats;
  stats.bins = t.evicted + t.held;
  double value_sum = t.evicted_value_sum;
  double peak = t.evicted > 0 ? t.evicted_value_max : 0.0;
  bool have_peak = t.evicted > 0;
  for (std::size_t i = 0; i < t.held; ++i) {
    const auto slot =
        static_cast<std::size_t>(t.first + static_cast<std::int64_t>(i)) % t.capacity;
    const double value = t.bins[slot];
    value_sum += value;
    peak = have_peak ? std::max(peak, value) : value;
    have_peak = true;
  }
  stats.mean = stats.bins > 0 ? value_sum / static_cast<double>(stats.bins) : 0.0;
  stats.peak = have_peak ? peak : 0.0;
  return stats;
}

std::vector<double> TieredRing::RecentValues(std::size_t tier, std::size_t n) const {
  GT_CHECK_LT(tier, tiers_.size()) << "TieredRing: tier out of range";
  const Tier& t = tiers_[tier];
  const std::size_t take = std::min(n, t.held);
  std::vector<double> values;
  values.reserve(take);
  for (std::size_t i = t.held - take; i < t.held; ++i) {
    const auto slot =
        static_cast<std::size_t>(t.first + static_cast<std::int64_t>(i)) % t.capacity;
    values.push_back(t.bins[slot]);
  }
  return values;
}

std::size_t TieredRing::MemoryBytes() const noexcept {
  std::size_t bytes = sizeof(*this) + tiers_.capacity() * sizeof(Tier) +
                      options_.tiers.capacity() * sizeof(TierSpec);
  for (const Tier& tier : tiers_) bytes += tier.bins.capacity() * sizeof(double);
  if (hurst_.has_value()) bytes += hurst_->MemoryBytes();
  return bytes;
}

}  // namespace gametrace::stats
