// Columnar packet batches: the struct-of-arrays twin of PacketRecord.
//
// The paper's analyses reduce ~500 M packets to per-interval loads, size
// histograms and flow statistics - a workload that consumes whole *fields*
// (every timestamp, every size), not whole records. Delivering a tick's
// burst as one contiguous array per field lets the stats kernels run
// auto-vectorisable loops over dense u16/u8/double data instead of striding
// through 24-byte records.
//
// Two types:
//  * PacketBatch      - a non-owning view: one pointer per column + a count.
//                       Cheap to copy and to slice.
//  * ColumnarBatch    - owning storage, reusable across ticks (capacity is
//                       kept by Clear), built row by row (CsServer's tick,
//                       Push; another batch's rows, PushFrom) or in bulk
//                       (Replay's AoS span, TraceReader::Drain's decoded
//                       chunk).
//
// Invariant: RecordAt(i) reconstructs record i bit-for-bit, so a
// record-at-a-time sink sees exactly the records the producer emitted.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/packet.h"

namespace gametrace::net {

// Non-owning struct-of-arrays view over a contiguous run of packets. All
// column pointers are valid for `count` elements (or null when count == 0).
// The view follows the batch contract of trace/capture.h: emission order,
// per-flow timestamp order preserved, never spanning a server tick.
struct PacketBatch {
  std::size_t count = 0;
  const double* timestamps = nullptr;
  const std::uint32_t* client_ips = nullptr;
  const std::uint32_t* seqs = nullptr;
  const std::uint16_t* client_ports = nullptr;
  const std::uint16_t* app_bytes = nullptr;
  const std::uint8_t* directions = nullptr;  // static_cast<Direction>
  const std::uint8_t* kinds = nullptr;       // static_cast<PacketKind>

  [[nodiscard]] std::size_t size() const noexcept { return count; }
  [[nodiscard]] bool empty() const noexcept { return count == 0; }

  [[nodiscard]] Direction direction(std::size_t i) const noexcept {
    return static_cast<Direction>(directions[i]);
  }
  [[nodiscard]] PacketKind kind(std::size_t i) const noexcept {
    return static_cast<PacketKind>(kinds[i]);
  }

  // Reconstructs record i exactly as the producer emitted it.
  [[nodiscard]] PacketRecord RecordAt(std::size_t i) const noexcept {
    PacketRecord r;
    r.timestamp = timestamps[i];
    r.client_ip = Ipv4Address(client_ips[i]);
    r.seq = seqs[i];
    r.client_port = client_ports[i];
    r.app_bytes = app_bytes[i];
    r.direction = direction(i);
    r.kind = kind(i);
    return r;
  }

  // Appends the whole batch to `out` as AoS records. No exact-size reserve:
  // a sink that appends batch after batch keeps the vector's geometric
  // growth instead of reallocating on every call.
  void MaterializeInto(std::vector<PacketRecord>& out) const {
    for (std::size_t i = 0; i < count; ++i) out.push_back(RecordAt(i));
  }

  // A view over rows [offset, offset + n) of this batch. The caller must
  // keep the slice within a contract-conforming boundary (it still may not
  // span a server tick).
  [[nodiscard]] PacketBatch Slice(std::size_t offset, std::size_t n) const noexcept {
    PacketBatch view;
    view.count = n;
    if (n == 0) return view;
    view.timestamps = timestamps + offset;
    view.client_ips = client_ips + offset;
    view.seqs = seqs + offset;
    view.client_ports = client_ports + offset;
    view.app_bytes = app_bytes + offset;
    view.directions = directions + offset;
    view.kinds = kinds + offset;
    return view;
  }
};

// One record laid out as single-element columns: the batch a producer
// hands over when it emits a lone packet outside any tick.
struct PacketRow {
  // Fields left for the caller to fill (ColumnarBatch::AppendRows).
  PacketRow() noexcept = default;

  explicit PacketRow(const PacketRecord& r) noexcept
      : timestamp(r.timestamp),
        client_ip(r.client_ip.value()),
        seq(r.seq),
        client_port(r.client_port),
        app_bytes(r.app_bytes),
        direction(static_cast<std::uint8_t>(r.direction)),
        kind(static_cast<std::uint8_t>(r.kind)) {}

  // Valid while this row is alive.
  [[nodiscard]] PacketBatch View() const noexcept {
    return PacketBatch{.count = 1,
                       .timestamps = &timestamp,
                       .client_ips = &client_ip,
                       .seqs = &seq,
                       .client_ports = &client_port,
                       .app_bytes = &app_bytes,
                       .directions = &direction,
                       .kinds = &kind};
  }

  double timestamp;
  std::uint32_t client_ip;
  std::uint32_t seq;
  std::uint16_t client_port;
  std::uint16_t app_bytes;
  std::uint8_t direction;
  std::uint8_t kind;
};

// Owning columnar storage. The column vectors are capacity buffers sized to
// the high-water batch; a separate logical `size_` tracks the live prefix.
// Clear() just resets the size, so the fill/flush cycle a producer or a
// compacting sink repeats every batch performs zero allocation
// and zero re-initialisation after warm-up.
class ColumnarBatch {
 public:
  void Clear() noexcept { size_ = 0; }

  void Reserve(std::size_t n) {
    if (n > timestamps_.size()) GrowTo(n);
  }

  // Bulk AoS -> SoA transpose (Replay). Appends.
  void Append(std::span<const PacketRecord> records) {
    AppendRows(records.size(),
               [&](std::size_t i, PacketRow& row) { row = PacketRow(records[i]); });
  }

  // Bulk append of `n` rows: make_row(i, row) fills row i, which is fanned
  // out to the seven column streams. One capacity check for the whole run
  // and the column pointers held in registers (a u8 column store could
  // otherwise alias them and force a reload per row).
  template <typename MakeRow>
  void AppendRows(std::size_t n, MakeRow&& make_row) {
    const std::size_t old = size_;
    if (old + n > timestamps_.size()) GrowTo(old + n);
    double* ts = timestamps_.data() + old;
    std::uint32_t* ips = client_ips_.data() + old;
    std::uint32_t* seqs = seqs_.data() + old;
    std::uint16_t* ports = client_ports_.data() + old;
    std::uint16_t* bytes = app_bytes_.data() + old;
    std::uint8_t* dirs = directions_.data() + old;
    std::uint8_t* kinds = kinds_.data() + old;
    for (std::size_t i = 0; i < n; ++i) {
      PacketRow row{};
      make_row(i, row);
      ts[i] = row.timestamp;
      ips[i] = row.client_ip;
      seqs[i] = row.seq;
      ports[i] = row.client_port;
      bytes[i] = row.app_bytes;
      dirs[i] = row.direction;
      kinds[i] = row.kind;
    }
    size_ = old + n;
  }

  // Appends one row.
  void Push(const PacketRow& row) {
    const std::size_t j = size_;
    if (j == timestamps_.size()) GrowTo(j + 1);
    timestamps_[j] = row.timestamp;
    client_ips_[j] = row.client_ip;
    seqs_[j] = row.seq;
    client_ports_[j] = row.client_port;
    app_bytes_[j] = row.app_bytes;
    directions_[j] = row.direction;
    kinds_[j] = row.kind;
    size_ = j + 1;
  }

  // Appends record i of `batch`, copying column-wise (no AoS round trip).
  void PushFrom(const PacketBatch& batch, std::size_t i) {
    const std::size_t j = size_;
    if (j == timestamps_.size()) GrowTo(j + 1);
    timestamps_[j] = batch.timestamps[i];
    client_ips_[j] = batch.client_ips[i];
    seqs_[j] = batch.seqs[i];
    client_ports_[j] = batch.client_ports[i];
    app_bytes_[j] = batch.app_bytes[i];
    directions_[j] = batch.directions[i];
    kinds_[j] = batch.kinds[i];
    size_ = j + 1;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] PacketBatch View() const noexcept {
    PacketBatch view;
    view.count = size_;
    if (view.count == 0) return view;
    view.timestamps = timestamps_.data();
    view.client_ips = client_ips_.data();
    view.seqs = seqs_.data();
    view.client_ports = client_ports_.data();
    view.app_bytes = app_bytes_.data();
    view.directions = directions_.data();
    view.kinds = kinds_.data();
    return view;
  }

 private:
  // Capacity growth: amortised doubling from a 64-record floor. The vector
  // elements beyond `size_` are uninitialised scratch by design.
  void GrowTo(std::size_t n) {
    std::size_t cap = timestamps_.size() < 64 ? 64 : timestamps_.size() * 2;
    if (cap < n) cap = n;
    timestamps_.resize(cap);
    client_ips_.resize(cap);
    seqs_.resize(cap);
    client_ports_.resize(cap);
    app_bytes_.resize(cap);
    directions_.resize(cap);
    kinds_.resize(cap);
  }

  std::size_t size_ = 0;
  std::vector<double> timestamps_;
  std::vector<std::uint32_t> client_ips_;
  std::vector<std::uint32_t> seqs_;
  std::vector<std::uint16_t> client_ports_;
  std::vector<std::uint16_t> app_bytes_;
  std::vector<std::uint8_t> directions_;
  std::vector<std::uint8_t> kinds_;
};

}  // namespace gametrace::net
