// The cost ledger: where a run's wall time went, one fixed layer at a time.
//
//   void CsServer::OnTick(double t) {
//     const obs::LayerScope scope(obs::Layer::kGameGenerate);
//     ...
//   }
//
// A LayerScope charges its layer the scope's *exclusive* time: its total
// minus the totals of the scopes nested inside it on the same thread (a
// thread-local pointer to the innermost open scope tracks the nesting).
// No time is counted twice, so on one thread under the `run` root that
// ExportSession holds, the layers sum to the root's wall time and the
// root's own share is the unattributed residual. Scopes on other threads
// (fleet workers) are roots of their own.
//
// Scopes sit at batch, tick or merge granularity, never per record.
//
// Cost model:
//  - Idle (the default): one relaxed atomic-bool load and a predictable
//    branch per scope, measured by perf_micro's obs sweep
//    (BENCH_hotpath.json, "obs" section).
//  - Enabled (EnableLedger(true); ExportSession does so when any output is
//    requested): two steady_clock reads and two relaxed fetch_adds on the
//    layer's slot of one process-global array.
//
// Timings are wall-clock and therefore *never* part of the deterministic
// MetricsRegistry merge contract: DumpLedgerInto copies them into a
// registry only when a front-end writes its files.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace gametrace::obs {

enum class Layer : std::uint8_t {
  kRun,                       // root, held by ExportSession; self time = residual
  kSimDispatch,               // EventQueue::RunNext
  kGameGenerate,              // CsServer::OnTick
  kTraceEncode,               // TraceWriter::OnColumns
  kTraceDecode,               // TraceReader::Drain, per chunk
  kCoreCharacterize,          // the fused loop of Characterizer::OnColumns
  kCoreCharacterizeLoad,      // LoadAggregator::OnColumns
  kCoreCharacterizeSessions,  // SessionTracker::OnColumns
  kCoreFinish,                // Characterizer::Finish
  kRouterNat,                 // NatDevice inject and catch-up
  kFleetMerge,                // the fleet's ordered merge of one unit
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kFleetMerge) + 1;

// Indexed by Layer.
inline constexpr std::array<std::string_view, kLayerCount> kLayerNames = {
    "run",
    "sim.dispatch",
    "game.generate",
    "trace.encode",
    "trace.decode",
    "core.characterize",
    "core.characterize.load",
    "core.characterize.sessions",
    "core.finish",
    "router.nat",
    "fleet.merge",
};

// Relaxed loads on the hot path; flipping the switch is not a
// synchronization point, so enable it before the measured region.
inline std::atomic<bool> g_ledger_enabled{false};

[[nodiscard]] inline bool LedgerEnabled() noexcept {
  return g_ledger_enabled.load(std::memory_order_relaxed);
}
void EnableLedger(bool enabled) noexcept;

class LayerScope {
 public:
  explicit LayerScope(Layer layer) noexcept {
    if (LedgerEnabled()) [[unlikely]] Open(layer);
  }

  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

  // A scope that opened also closes, and is charged, if the ledger was
  // switched off meanwhile: closing restores the thread's nesting.
  ~LayerScope() {
    if (open_) [[unlikely]] Close();
  }

 private:
  void Open(Layer layer) noexcept;
  void Close() noexcept;

  bool open_ = false;
  // Set by Open and read only while open_: the idle path stores nothing
  // but the flag.
  Layer layer_;
  LayerScope* parent_;
  std::uint64_t nested_ns_;  // totals of the closed scopes nested in this one
  std::int64_t start_ns_;    // steady_clock
};

struct LayerTally {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;  // exclusive
};

// Indexed by Layer. Each count is loaded on its own, so a snapshot taken
// while scopes close on other threads may tear, even within a layer.
using LedgerTallies = std::array<LayerTally, kLayerCount>;

[[nodiscard]] LedgerTallies LedgerSnapshot() noexcept;

// Zeroes every layer.
void ResetLedger() noexcept;

class MetricsRegistry;  // fwd (defined in obs/metrics.h)

// Adds every layer to `registry` as counters "ledger.<layer>.ns" and
// "ledger.<layer>.calls". Front-ends call this right before writing
// --metrics-out, never inside the shard-merge path.
void DumpLedgerInto(MetricsRegistry& registry);

}  // namespace gametrace::obs
