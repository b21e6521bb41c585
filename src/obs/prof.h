// Hot-path profiling hooks: GT_PROF_SCOPE and friends.
//
//   void LoadAggregator::OnColumns(...) {
//     GT_PROF_SCOPE("trace.load_agg.on_columns");
//     ...
//   }
//
// Each macro site declares a constant-initialized ProfSite (no static
// guard, no registration cost until profiling is actually enabled) and an
// RAII ProfScope that measures wall-clock nanoseconds across the scope.
//
// Cost model:
//  - Compiled out entirely when GAMETRACE_ENABLE_OBS is 0 (the CMake
//    option GAMETRACE_OBS=OFF; per-TU overridable exactly like
//    GAMETRACE_ENABLE_DCHECKS).
//  - Compiled in but idle (the default build): one relaxed atomic-bool
//    load and a predictable branch per scope - budgeted at <2% on the
//    columnar hot path and measured by perf_micro's obs sweep
//    (BENCH_hotpath.json, "obs" section).
//  - Enabled (EnableProfiling(true)): two steady_clock reads plus relaxed
//    fetch_adds on the site's counters. Sites are process-global and
//    thread-safe; timings are wall-clock and therefore *never* part of
//    the deterministic MetricsRegistry merge contract - DumpProfilingInto
//    copies them into a registry only when a front-end asks for a
//    snapshot.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

// Per-TU switch, defaulting to on; the GAMETRACE_OBS=OFF CMake option
// defines it to 0 for the whole build. Tests force it per TU to pin the
// no-op behaviour (mirroring the GT_DCHECK elision tests).
#ifndef GAMETRACE_ENABLE_OBS
#define GAMETRACE_ENABLE_OBS 1
#endif

namespace gametrace::obs {

// Global profiling switch. Relaxed loads on the hot path; flipping it is
// not a synchronization point, so enable it before the measured region.
inline std::atomic<bool> g_profiling_enabled{false};

[[nodiscard]] inline bool ProfilingEnabled() noexcept {
  return g_profiling_enabled.load(std::memory_order_relaxed);
}
void EnableProfiling(bool enabled) noexcept;

// One per GT_PROF_SCOPE site; function-local static, constant-initialized
// (constexpr ctor, trivial dtor) so the site costs no init guard. Sites
// self-register into a global intrusive list the first time a scope fires
// with profiling enabled.
struct ProfSite {
  constexpr explicit ProfSite(const char* site_name) noexcept : name(site_name) {}

  const char* name;
  // relaxed everywhere: calls/nanos are independent monotonic tallies with
  // no cross-site invariant; readers (ProfilingSnapshot) tolerate tearing
  // *between* sites and the registration mutex orders list traversal.
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> nanos{0};
  // false -> true exactly once, release-published by RegisterProfSite
  // after the `next` link is written; the relaxed fast-path load in
  // ~ProfScope may observe a stale false, which only costs a redundant
  // (mutex-serialized, idempotent) registration attempt.
  std::atomic<bool> registered{false};
  ProfSite* next = nullptr;  // written once under the registration lock
};

// Called by ProfScope on first active use of a site; idempotent.
void RegisterProfSite(ProfSite& site);

class ProfScope {
 public:
  explicit ProfScope(ProfSite& site) noexcept
      : site_(ProfilingEnabled() ? &site : nullptr) {
    if (site_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

  ~ProfScope() {
    if (site_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    site_->calls.fetch_add(1, std::memory_order_relaxed);
    site_->nanos.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()),
        std::memory_order_relaxed);
    // relaxed pre-check: a stale false just re-enters RegisterProfSite,
    // which re-checks under its mutex (see the ProfSite field comments).
    if (!site_->registered.load(std::memory_order_relaxed)) RegisterProfSite(*site_);
  }

 private:
  ProfSite* site_;
  std::chrono::steady_clock::time_point start_;
};

struct ProfSample {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t nanos = 0;
};

// Snapshot of every site that has ever fired, sorted by name.
[[nodiscard]] std::vector<ProfSample> ProfilingSnapshot();

// Zeroes all site counters (sites stay registered).
void ResetProfiling() noexcept;

class MetricsRegistry;  // fwd (defined in obs/metrics.h)

// Copies the current snapshot into `registry` as counters
// "prof.<site>.calls" / "prof.<site>.ns". Wall-clock timings are
// non-deterministic by nature - front-ends call this right before writing
// --metrics-out, never inside the shard-merge path.
void DumpProfilingInto(MetricsRegistry& registry);

}  // namespace gametrace::obs

#define GT_OBS_CONCAT_INNER(a, b) a##b
#define GT_OBS_CONCAT(a, b) GT_OBS_CONCAT_INNER(a, b)

#if GAMETRACE_ENABLE_OBS
// Two declarations on purpose: the guard must live in the enclosing scope.
#define GT_PROF_SCOPE(name)                                                      \
  static constinit ::gametrace::obs::ProfSite GT_OBS_CONCAT(gt_prof_site_,       \
                                                            __LINE__){name};     \
  const ::gametrace::obs::ProfScope GT_OBS_CONCAT(gt_prof_scope_, __LINE__) {    \
    GT_OBS_CONCAT(gt_prof_site_, __LINE__)                                       \
  }
#else
#define GT_PROF_SCOPE(name) static_cast<void>(0)
#endif
