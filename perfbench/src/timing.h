// Timing from outside the library: a span tree per repetition and a sink
// decorator that times every delivery call into the analysis layer.
//
// Spans are recorded by the benchmark around calls into public entry
// points only; nothing inside the library is instrumented. A span either
// wraps one call or aggregates every call of one entry point under the
// same parent (the per-batch sink calls, ~150k per paper_server
// repetition), in which case its total is the summed duration of those
// calls. A span's self time is its total minus its children's totals, so
// the self times of a tree sum to the root's total exactly; the root's own
// self time is the residual no layer span covers.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/packet.h"
#include "net/packet_batch.h"
#include "trace/capture.h"

namespace perfbench {

inline std::int64_t NowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int parent = -1;  // index into SpanLog::spans(); -1 for the root
  std::int64_t start_ns = 0;
  std::int64_t total_ns = 0;
  std::uint64_t calls = 1;
};

class SpanLog {
 public:
  // Opens a span starting at `start_ns`; returns its index.
  int Open(std::string name, int parent, std::int64_t start_ns) {
    spans_.push_back(Span{std::move(name), parent, start_ns, 0, 1});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int index, std::int64_t end_ns) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.total_ns = end_ns - span.start_ns;
  }
  // A span whose total was measured elsewhere (aggregated sink calls, the
  // fleet scheduler's per-worker decomposition).
  int Add(std::string name, int parent, std::int64_t total_ns, std::uint64_t calls = 1) {
    spans_.push_back(Span{std::move(name), parent, 0, total_ns, calls});
    return static_cast<int>(spans_.size()) - 1;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] bool empty() const noexcept { return spans_.empty(); }

  // Total of the first span named `name`, 0 if there is none.
  [[nodiscard]] std::int64_t Total(const std::string& name) const {
    for (const Span& span : spans_) {
      if (span.name == name) return span.total_ns;
    }
    return 0;
  }

  // Self time of every span, in span order.
  [[nodiscard]] std::vector<std::int64_t> SelfTimes() const {
    std::vector<std::int64_t> self;
    self.reserve(spans_.size());
    for (const Span& span : spans_) self.push_back(span.total_ns);
    for (const Span& span : spans_) {
      if (span.parent >= 0) self[static_cast<std::size_t>(span.parent)] -= span.total_ns;
    }
    return self;
  }

  [[nodiscard]] std::int64_t Self(const std::string& name) const {
    const std::vector<std::int64_t> self = SelfTimes();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) return self[i];
    }
    return 0;
  }

 private:
  std::vector<Span> spans_;
};

// Forwards every delivery call, on the same tier, to `target`. Untraced, it
// only stamps the arrival of the first packet (one predictable branch per
// call); traced, it also times each call and counts packets per tier.
class TimingSink final : public gametrace::trace::CaptureSink {
 public:
  TimingSink(gametrace::trace::CaptureSink& target, bool traced)
      : target_(&target), traced_(traced) {}

  void OnPacket(const gametrace::net::PacketRecord& record) override {
    MarkFirst();
    if (!traced_) {
      target_->OnPacket(record);
      return;
    }
    const std::int64_t t0 = NowNs();
    target_->OnPacket(record);
    scalar_.Add(NowNs() - t0, 1);
  }

  void OnBatch(std::span<const gametrace::net::PacketRecord> batch) override {
    MarkFirst();
    if (!traced_) {
      target_->OnBatch(batch);
      return;
    }
    const std::int64_t t0 = NowNs();
    target_->OnBatch(batch);
    scalar_.Add(NowNs() - t0, batch.size());
  }

  void OnColumns(const gametrace::net::PacketBatch& batch) override {
    MarkFirst();
    if (!traced_) {
      target_->OnColumns(batch);
      return;
    }
    const std::int64_t t0 = NowNs();
    target_->OnColumns(batch);
    columns_.Add(NowNs() - t0, batch.count);
  }

  struct Tier {
    std::int64_t ns = 0;
    std::uint64_t calls = 0;
    std::uint64_t packets = 0;
    void Add(std::int64_t d, std::uint64_t n) noexcept {
      ns += d;
      ++calls;
      packets += n;
    }
  };

  // 0 until the first packet arrives.
  [[nodiscard]] std::int64_t first_packet_ns() const noexcept { return first_packet_ns_; }
  [[nodiscard]] const Tier& columns() const noexcept { return columns_; }
  // OnPacket and OnBatch together: the record-at-a-time tiers.
  [[nodiscard]] const Tier& scalar() const noexcept { return scalar_; }

  // Adds the aggregated call spans as children of `parent`.
  void AddSpans(SpanLog& log, int parent) const {
    log.Add("core.characterizer.on_columns", parent, columns_.ns, columns_.calls);
    log.Add("core.characterizer.on_scalar", parent, scalar_.ns, scalar_.calls);
  }

 private:
  void MarkFirst() noexcept {
    if (first_packet_ns_ == 0) first_packet_ns_ = NowNs();
  }

  gametrace::trace::CaptureSink* target_;
  bool traced_;
  std::int64_t first_packet_ns_ = 0;
  Tier columns_;
  Tier scalar_;
};

}  // namespace perfbench
