// Multi-resolution bounded time-series ring (tiered downsampling).
//
// The unbounded TimeSeries keeps every base bin forever - fine for the
// paper's 1-week trace, fatal for the million-client fleet sweeps
// (ROADMAP item 1). TieredRing keeps a fixed window per resolution tier:
// the base tier holds recent 50 ms bins; when a base bin is evicted it
// folds into the containing 1 s bin, 1 s bins fold into 1 min bins, and
// so on (RRD-style). Each tier additionally keeps lifetime aggregates of
// every bin it has ever evicted (count / value sum / value peak), so the
// paper's burst statistics - 50 ms peak-to-mean ratio, per-minute load
// envelope - survive arbitrarily long runs in O(total capacity) memory.
//
// A bin is the sum of the samples that landed in it (packet counts - the
// paper's load series), so folding a bin into the next tier is one add
// and every tier's value is exact; the newest bin of each coarse tier is
// still filling (same as RRD).
//
// Determinism / merge contract: rings are time-anchored at t = 0, so two
// shards simulating the same duration advance bin-for-bin in lockstep.
// Merge GT_CHECKs identical schedule and advancement, then adds held bins
// slot-wise (exact: the merged window equals the ring of the summed
// stream) and pools eviction aggregates: evicted value sums add (the
// merged mean is the aggregate-series mean), evicted peaks take the max
// over shards (the worst single-shard burst - the per-link provisioning
// question; the aggregate-series peak is not recoverable from per-shard
// state). Fixed shard-order folding makes the result bit-identical at any
// fleet worker count. An optional OnlineHurst consumes base bins as they
// evict, making self-similarity a live, mergeable signal.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "stats/online_hurst.h"

namespace gametrace::stats {

class TieredRing {
 public:
  struct TierSpec {
    double interval = 0.050;     // seconds per bin
    std::size_t capacity = 128;  // bins held before eviction
  };

  struct Options {
    // Fine to coarse; every interval must be an integer multiple (>= 2) of
    // the previous one so bins nest exactly.
    std::vector<TierSpec> tiers;
    // When true, evicted base bins stream into an OnlineHurst estimator.
    bool track_hurst = false;
    std::size_t hurst_scales = 16;

    // The paper's telemetry schedule scaled to `base_interval` (the server
    // tick): base x128, then x20 (1 s at a 50 ms tick) x240, then x60
    // (1 min) x240, then x60 (1 h) x168 - one week of hourly bins.
    [[nodiscard]] static Options PaperSchedule(double base_interval = 0.050);
  };

  // Lifetime (evicted + held) view of one tier.
  struct TierStats {
    std::uint64_t bins = 0;  // bins ever completed-or-held at this tier
    double mean = 0.0;       // mean bin value
    double peak = 0.0;       // largest bin value (per shard after a merge)
  };

  explicit TieredRing(Options options = Options::PaperSchedule());

  // Adds a sample at time t >= 0. Bins from the last held bin up to t are
  // created (zero-filled) on demand, cascading evictions into coarser
  // tiers; samples older than the base window count as dropped_late.
  void Add(double t, double value = 1.0);

  // Advances every tier as if a zero-weight sample arrived at t: closes
  // and folds intervening bins. Lets short-lived sources align their grid
  // with a common end time before a merge.
  void AdvanceTo(double t);

  // Absorbs a ring with identical options and advancement; see the header
  // comment for exactness semantics. GT_CHECK fails on mismatch.
  void Merge(const TieredRing& other);

  [[nodiscard]] std::size_t tier_count() const noexcept { return tiers_.size(); }
  [[nodiscard]] double tier_interval(std::size_t tier) const;
  [[nodiscard]] std::size_t tier_capacity(std::size_t tier) const;
  // Bins currently held in the tier's ring.
  [[nodiscard]] std::size_t tier_held(std::size_t tier) const;
  // Absolute index of the oldest held bin (bin i covers [i, i+1) * interval).
  [[nodiscard]] std::int64_t tier_first(std::size_t tier) const;
  // Bins the tier has evicted (their values live on in the aggregates).
  [[nodiscard]] std::uint64_t tier_evicted(std::size_t tier) const;

  // Value (sample sum) of the held bin at absolute index `index`.
  // Contract: tier_first <= index < tier_first + tier_held.
  [[nodiscard]] double TierValue(std::size_t tier, std::int64_t index) const;

  // Evicted aggregates combined with the held window.
  [[nodiscard]] TierStats Stats(std::size_t tier) const;

  // The newest min(n, held) bin values, oldest first - the flight
  // recorder's per-tier sparkline tail.
  [[nodiscard]] std::vector<double> RecentValues(std::size_t tier, std::size_t n) const;

  [[nodiscard]] std::uint64_t dropped_late() const noexcept { return dropped_late_; }
  [[nodiscard]] const OnlineHurst* hurst() const noexcept {
    return hurst_.has_value() ? &*hurst_ : nullptr;
  }

  // True when the tier schedule and Hurst configuration match - the
  // re-registration and merge precondition.
  [[nodiscard]] bool SameShape(const TieredRing& other) const noexcept;

  [[nodiscard]] std::size_t MemoryBytes() const noexcept;

 private:
  struct Tier {
    double interval = 0.0;
    std::size_t capacity = 0;
    std::size_t ratio = 0;    // bins of this tier per bin of the next
    std::int64_t first = 0;   // absolute index of the oldest held bin
    std::size_t held = 0;
    std::vector<double> bins;  // capacity slots; slot = absolute index % capacity
    std::uint64_t evicted = 0;
    double evicted_value_sum = 0.0;
    double evicted_value_max = 0.0;
    // Incremental fold cursor: evictions march through absolute indices
    // 0, 1, 2, ..., so the containing coarse bin is tracked by counting
    // (fold_phase wraps at ratio) instead of dividing per eviction, and
    // its ring slot by a wrapping counter instead of a modulo. The coarse
    // bin is created (EnsureCovers) only on the first fold into it; the
    // coarse tier never evicts its newest bin, so the slot stays valid
    // for the remaining ratio - 1 folds.
    std::int64_t fold_index = 0;  // coarse bin receiving the next eviction
    std::size_t fold_phase = 0;   // fine bins already folded into it
    std::size_t fold_slot = 0;    // fold_index % next tier's capacity
  };

  // Ensures tier `k` holds bin `index`, evicting/cascading as needed.
  double* EnsureCovers(std::size_t k, std::int64_t index);
  void EvictFront(std::size_t k);

  Options options_;
  std::vector<Tier> tiers_;
  std::optional<OnlineHurst> hurst_;
  std::uint64_t dropped_late_ = 0;

  // Same-bin fast path: the server emits dozens of packets per tick, all
  // landing in one base bin, so Add caches the last bin's slot and time
  // window and skips the index math while t stays inside it. Stored as a
  // slot (not a pointer) so copies stay valid; fast_hi_ < 0 means invalid.
  // AdvanceTo invalidates (it can evict the cached bin without Add seeing
  // it); Add's slow path re-caches after any eviction it causes, and Merge
  // never moves the window (lockstep contract), so both stay safe.
  double fast_lo_ = 0.0;
  double fast_hi_ = -1.0;
  std::size_t fast_slot_ = 0;
  // Absolute index of the cached bin; lets the slow path advance to the
  // immediately following bin (the tick cadence) by incrementing instead
  // of dividing t by the base interval.
  std::int64_t fast_index_ = 0;
};

}  // namespace gametrace::stats
