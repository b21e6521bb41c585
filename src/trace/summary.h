// Streaming trace summary: everything in the paper's Tables I-III that can
// be derived from the packet stream.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "net/packet.h"
#include "stats/running_stats.h"
#include "trace/capture.h"

namespace gametrace::trace {

// Accumulates totals, per-direction byte/packet counts, packet-size moments
// and connection-handshake counts in one pass, O(1) memory apart from the
// unique-client sets.
class TraceSummary final : public CaptureSink {
 public:
  explicit TraceSummary(std::uint32_t wire_overhead_bytes = net::kWireOverheadBytes);

  // The per-record update rule, as a per-batch accumulator: the packet and
  // byte counters and both directions' Welford states live in the pass for
  // one batch (registers, not memory) and Commit() writes them back.
  // OnColumns is a loop over Add; core::Characterizer's fused pass calls the
  // same Add. Records must be added in stream order - the Welford moments
  // are order-sensitive - and then the result is independent of how the
  // stream is split into batches.
  class Pass {
   public:
    // Opens a pass over `batch`, widening the time span to cover it.
    Pass(TraceSummary& summary, const net::PacketBatch& batch) noexcept
        : summary_(summary), size_in_(summary.size_in_), size_out_(summary.size_out_) {
      if (batch.count == 0) return;
      if (summary.first_time_ < 0.0) summary.first_time_ = batch.timestamps[0];
      summary.last_time_ = batch.timestamps[batch.count - 1];
    }

    // Keeping both directions' Welford chains in one loop lets the
    // out-of-order core overlap the two serial divisions - the latency
    // bound of the update.
    void Add(std::uint8_t direction, std::uint16_t size, std::uint8_t kind,
             std::uint32_t client_ip) {
      if (direction == static_cast<std::uint8_t>(net::Direction::kClientToServer)) {
        ++packets_in_;
        app_bytes_in_ += size;
        size_in_.Add(size);
      } else {
        ++packets_out_;
        app_bytes_out_ += size;
        size_out_.Add(size);
      }
      if (kind >= static_cast<std::uint8_t>(net::PacketKind::kConnectRequest) &&
          kind <= static_cast<std::uint8_t>(net::PacketKind::kConnectReject)) [[unlikely]] {
        summary_.AddHandshake(kind, client_ip);
      }
    }

    void Commit() noexcept {
      summary_.packets_in_ += packets_in_;
      summary_.packets_out_ += packets_out_;
      summary_.app_bytes_in_ += app_bytes_in_;
      summary_.app_bytes_out_ += app_bytes_out_;
      summary_.size_in_ = size_in_;
      summary_.size_out_ = size_out_;
    }

   private:
    TraceSummary& summary_;
    std::uint64_t packets_in_ = 0;
    std::uint64_t packets_out_ = 0;
    std::uint64_t app_bytes_in_ = 0;
    std::uint64_t app_bytes_out_ = 0;
    stats::RunningStats size_in_;
    stats::RunningStats size_out_;
  };

  void OnColumns(const net::PacketBatch& batch) override;

  // Combines another summary into this one, as if every packet fed to
  // `other` had been fed to *this. Exact: counters and moments add (Chan
  // parallel combine), unique-client sets union, the time span widens to
  // cover both. Shard reduction path of the fleet engine. Throws
  // std::invalid_argument if the wire-overhead settings differ.
  void Merge(const TraceSummary& other);

  // ---- Table II: network usage --------------------------------------
  [[nodiscard]] std::uint64_t total_packets() const noexcept { return packets_in_ + packets_out_; }
  [[nodiscard]] std::uint64_t packets_in() const noexcept { return packets_in_; }
  [[nodiscard]] std::uint64_t packets_out() const noexcept { return packets_out_; }
  [[nodiscard]] std::uint64_t wire_bytes_total() const noexcept;
  [[nodiscard]] std::uint64_t wire_bytes_in() const noexcept;
  [[nodiscard]] std::uint64_t wire_bytes_out() const noexcept;
  [[nodiscard]] double mean_packet_load() const noexcept;      // pkts/sec
  [[nodiscard]] double mean_packet_load_in() const noexcept;
  [[nodiscard]] double mean_packet_load_out() const noexcept;
  [[nodiscard]] double mean_bandwidth_bps() const noexcept;    // wire bits/sec
  [[nodiscard]] double mean_bandwidth_in_bps() const noexcept;
  [[nodiscard]] double mean_bandwidth_out_bps() const noexcept;

  // ---- Table III: application payload --------------------------------
  [[nodiscard]] std::uint64_t app_bytes_total() const noexcept { return app_bytes_in_ + app_bytes_out_; }
  [[nodiscard]] std::uint64_t app_bytes_in() const noexcept { return app_bytes_in_; }
  [[nodiscard]] std::uint64_t app_bytes_out() const noexcept { return app_bytes_out_; }
  [[nodiscard]] double mean_packet_size() const noexcept;
  [[nodiscard]] double mean_packet_size_in() const noexcept;
  [[nodiscard]] double mean_packet_size_out() const noexcept;
  [[nodiscard]] const stats::RunningStats& size_stats_in() const noexcept { return size_in_; }
  [[nodiscard]] const stats::RunningStats& size_stats_out() const noexcept { return size_out_; }

  // ---- Table I: connection counts (from handshake packets) -----------
  [[nodiscard]] std::uint64_t attempted_connections() const noexcept { return attempts_; }
  [[nodiscard]] std::uint64_t established_connections() const noexcept { return established_; }
  [[nodiscard]] std::uint64_t refused_connections() const noexcept { return refused_; }
  [[nodiscard]] std::uint64_t unique_clients_attempting() const noexcept {
    return attempting_clients_.size();
  }
  [[nodiscard]] std::uint64_t unique_clients_establishing() const noexcept {
    return establishing_clients_.size();
  }

  // ---- Timing ---------------------------------------------------------
  [[nodiscard]] double first_packet_time() const noexcept { return first_time_; }
  [[nodiscard]] double last_packet_time() const noexcept { return last_time_; }
  [[nodiscard]] double duration() const noexcept;
  // Denominator for the mean rates; defaults to the observed packet span but
  // can be pinned to the configured capture window (idle head/tail counted).
  void set_duration_override(double seconds) noexcept { duration_override_ = seconds; }

 private:
  // Connection-handshake bookkeeping for a request/accept/reject record.
  void AddHandshake(std::uint8_t kind, std::uint32_t client_ip);

  std::uint32_t overhead_;
  std::uint64_t packets_in_ = 0;
  std::uint64_t packets_out_ = 0;
  std::uint64_t app_bytes_in_ = 0;
  std::uint64_t app_bytes_out_ = 0;
  stats::RunningStats size_in_;
  stats::RunningStats size_out_;
  std::uint64_t attempts_ = 0;
  std::uint64_t established_ = 0;
  std::uint64_t refused_ = 0;
  std::unordered_set<std::uint32_t> attempting_clients_;
  std::unordered_set<std::uint32_t> establishing_clients_;
  double first_time_ = -1.0;
  double last_time_ = 0.0;
  double duration_override_ = -1.0;
};

}  // namespace gametrace::trace
