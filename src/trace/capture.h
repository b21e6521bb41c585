// Capture sinks: where simulated (or replayed) packets go.
//
// Everything downstream of the workload generator - summaries, aggregators,
// trace files, the NAT device - consumes packets through CaptureSink, so a
// single simulation run can feed any combination of analyses via TeeSink
// without materialising 500 M records in memory.
//
// One delivery tier: OnColumns() receives a columnar batch
// (net::PacketBatch), one contiguous array per field, built once per tick
// by the producer (CsServer) or per chunk by a reader (TraceReader::Drain,
// Replay). Sinks with a columnar kernel run auto-vectorisable loops over
// the raw columns; record-at-a-time sinks iterate PacketBatch::RecordAt.
// Every sink's result depends only on the record sequence, never on where
// it is split into batches - one-row batches, tick batches and 4096-record
// chunks give bit-identical reports.
//
// The batch contract: a batch is a contiguous slice of the stream in
// emission order (per-flow sequence order preserved) and never spans a
// server tick. CsServer checks the per-flow order of every tick batch in
// DCHECK builds. Readers re-chunk a stored stream, and their chunks may
// span ticks: a stored CsServer stream can regress within a flow across the
// server's batch boundaries (a connect-accept emitted between ticks carries
// its reply delay, so it is stamped after the next tick's broadcast to the
// same client), so reader chunks are not checked.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "net/packet.h"
#include "net/packet_batch.h"

namespace gametrace::trace {

namespace internal {

// Batch-contract probe: a batch is a contiguous slice of the stream in
// emission order with *per-flow* ordering preserved - globally the tick
// batch interleaves independent client clocks, so only timestamps within
// one (client, direction) flow must be non-decreasing.
//
// Reusable flat scratch (open addressing, epoch-tagged slots) so the probe
// allocates only up to the high-water batch size per thread: DCHECK builds
// stay usable at paper-week scale instead of building a fresh unordered_map
// per batch. Only ever used behind GT_DCHECK, by CsServer's tick flush.
class FlowOrderScratch {
 public:
  bool CheckColumns(const net::PacketBatch& batch) {
    BeginBatch(batch.count);
    for (std::size_t i = 0; i < batch.count; ++i) {
      if (!Observe(FlowKeyOf(batch.client_ips[i], batch.client_ports[i],
                             batch.directions[i] ==
                                 static_cast<std::uint8_t>(net::Direction::kClientToServer)),
                   batch.timestamps[i])) {
        return false;
      }
    }
    return true;
  }

 private:
  struct Slot {
    std::uint64_t flow = 0;
    double last = 0.0;
    std::uint32_t epoch = 0;
  };

  static std::uint64_t FlowKeyOf(std::uint32_t ip, std::uint16_t port, bool inbound) noexcept {
    return (std::uint64_t{ip} << 17) | (std::uint64_t{port} << 1) | std::uint64_t{inbound};
  }

  void BeginBatch(std::size_t n) {
    std::size_t want = 16;
    while (want < 2 * n) want *= 2;  // load factor <= 0.5
    if (slots_.size() < want) {
      slots_.assign(want, Slot{});
      epoch_ = 0;
    }
    if (++epoch_ == 0) {  // epoch counter wrapped: invalidate stale tags
      for (Slot& s : slots_) s.epoch = 0;
      epoch_ = 1;
    }
  }

  bool Observe(std::uint64_t flow, double t) noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(flow * 0x9E3779B97F4A7C15ULL) & mask;
    for (;;) {
      Slot& slot = slots_[i];
      if (slot.epoch != epoch_) {  // free this batch: claim it
        slot.flow = flow;
        slot.last = t;
        slot.epoch = epoch_;
        return true;
      }
      if (slot.flow == flow) {
        if (t < slot.last) return false;
        slot.last = t;
        return true;
      }
      i = (i + 1) & mask;
    }
  }

  std::vector<Slot> slots_;
  std::uint32_t epoch_ = 0;
};

inline FlowOrderScratch& FlowOrderProbe() {
  thread_local FlowOrderScratch scratch;
  return scratch;
}

inline bool ColumnsPreservePerFlowOrder(const net::PacketBatch& batch) {
  return FlowOrderProbe().CheckColumns(batch);
}

}  // namespace internal

class CaptureSink {
 public:
  virtual ~CaptureSink() = default;

  // Receives the next contiguous run of the stream (see the batch contract
  // above). The only method a sink implements.
  virtual void OnColumns(const net::PacketBatch& batch) = 0;

  // Record-at-a-time adapters for producers that hold one record (web
  // traffic, pcap readers): OnPacket delivers a one-row
  // view, OnBatch one row per record. No library sink overrides them.
  virtual void OnPacket(const net::PacketRecord& record) {
    OnColumns(net::PacketRow(record).View());
  }

  virtual void OnBatch(std::span<const net::PacketRecord> batch) {
    for (const net::PacketRecord& record : batch) OnPacket(record);
  }
};

// Forwards every batch to each attached sink, in attachment order.
class TeeSink final : public CaptureSink {
 public:
  // Attached sinks are borrowed; they must outlive the tee.
  void Attach(CaptureSink& sink) { sinks_.push_back(&sink); }

  void OnColumns(const net::PacketBatch& batch) override {
    for (CaptureSink* sink : sinks_) sink->OnColumns(batch);
  }

  [[nodiscard]] std::size_t sink_count() const noexcept { return sinks_.size(); }

 private:
  std::vector<CaptureSink*> sinks_;
};

// Counts packets and bytes by direction; the cheapest possible sink.
class CountingSink final : public CaptureSink {
 public:
  // Dense u16 size and u8 direction columns auto-vectorise; integral sums
  // regroup exactly.
  void OnColumns(const net::PacketBatch& batch) override {
    const std::uint16_t* bytes = batch.app_bytes;
    const std::uint8_t* dirs = batch.directions;
    const std::size_t n = batch.count;
    std::uint64_t in = 0;
    std::uint64_t sum = 0;
    constexpr auto kIn = static_cast<std::uint8_t>(net::Direction::kClientToServer);
    for (std::size_t i = 0; i < n; ++i) {
      sum += bytes[i];
      in += dirs[i] == kIn ? 1 : 0;
    }
    packets_ += n;
    packets_in_ += in;
    packets_out_ += n - in;
    app_bytes_ += sum;
  }

  [[nodiscard]] std::uint64_t packets() const noexcept { return packets_; }
  [[nodiscard]] std::uint64_t packets_in() const noexcept { return packets_in_; }
  [[nodiscard]] std::uint64_t packets_out() const noexcept { return packets_out_; }
  [[nodiscard]] std::uint64_t app_bytes() const noexcept { return app_bytes_; }

 private:
  std::uint64_t packets_ = 0;
  std::uint64_t packets_in_ = 0;
  std::uint64_t packets_out_ = 0;
  std::uint64_t app_bytes_ = 0;
};

// Stores every record; only for tests and short runs.
class VectorSink final : public CaptureSink {
 public:
  void OnColumns(const net::PacketBatch& batch) override {
    batch.MaterializeInto(records_);
  }

  [[nodiscard]] const std::vector<net::PacketRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::vector<net::PacketRecord> TakeRecords() noexcept {
    return std::move(records_);
  }

 private:
  std::vector<net::PacketRecord> records_;
};

// Adapts a per-record callable into a sink.
class CallbackSink final : public CaptureSink {
 public:
  using Callback = std::function<void(const net::PacketRecord&)>;
  explicit CallbackSink(Callback cb) : cb_(std::move(cb)) {}

  void OnColumns(const net::PacketBatch& batch) override {
    for (std::size_t i = 0; i < batch.count; ++i) cb_(batch.RecordAt(i));
  }

 private:
  Callback cb_;
};

// Replays a stored record vector into a sink (records must be time-ordered
// if the sink cares about ordering; all library sinks do). Columnised in
// bounded 4096-record chunks.
void Replay(const std::vector<net::PacketRecord>& records, CaptureSink& sink);

}  // namespace gametrace::trace
