#include "obs/ledger.h"

#include <chrono>
#include <string>

#include "core/check.h"
#include "obs/metrics.h"

namespace gametrace::obs {

namespace {

// relaxed everywhere: calls/ns are independent monotonic tallies with no
// cross-layer invariant a reader relies on.
struct Slot {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> ns{0};
};

std::array<Slot, kLayerCount> g_slots;

// The calling thread's innermost open scope; only its own thread reads or
// writes it, and an open scope's nested_ns_ likewise.
thread_local LayerScope* t_innermost = nullptr;

std::int64_t NowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void EnableLedger(bool enabled) noexcept {
  // relaxed: documented as not a synchronization point (ledger.h) - a
  // scope that reads a stale value merely skips or takes one extra sample.
  g_ledger_enabled.store(enabled, std::memory_order_relaxed);
}

void LayerScope::Open(Layer layer) noexcept {
  open_ = true;
  layer_ = layer;
  parent_ = t_innermost;
  nested_ns_ = 0;
  t_innermost = this;
  start_ns_ = NowNs();
}

void LayerScope::Close() noexcept {
  const auto total = static_cast<std::uint64_t>(NowNs() - start_ns_);
  GT_DCHECK(t_innermost == this) << "LayerScope: scopes closed out of order";
  t_innermost = parent_;
  if (parent_ != nullptr) parent_->nested_ns_ += total;
  // steady_clock is monotonic and nested scopes close first, so the nested
  // totals never exceed this one's.
  Slot& slot = g_slots[static_cast<std::size_t>(layer_)];
  slot.calls.fetch_add(1, std::memory_order_relaxed);
  slot.ns.fetch_add(total - nested_ns_, std::memory_order_relaxed);
}

LedgerTallies LedgerSnapshot() noexcept {
  LedgerTallies tallies;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    tallies[i].calls = g_slots[i].calls.load(std::memory_order_relaxed);
    tallies[i].ns = g_slots[i].ns.load(std::memory_order_relaxed);
  }
  return tallies;
}

void ResetLedger() noexcept {
  for (Slot& slot : g_slots) {
    slot.calls.store(0, std::memory_order_relaxed);
    slot.ns.store(0, std::memory_order_relaxed);
  }
}

void DumpLedgerInto(MetricsRegistry& registry) {
  const LedgerTallies tallies = LedgerSnapshot();
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const std::string prefix = "ledger." + std::string(kLayerNames[i]);
    registry.counter(prefix + ".ns").Add(tallies[i].ns);
    registry.counter(prefix + ".calls").Add(tallies[i].calls);
  }
}

}  // namespace gametrace::obs
