// Session reconstruction from the packet stream alone.
//
// Like the paper's analysis, sessions are inferred from packet timing: a
// client endpoint that goes quiet for longer than `idle_timeout` has left
// (Counter-Strike clients and servers disconnect "after not hearing from
// each other over a period of several seconds"). Produces the per-session
// bandwidth population behind Figure 11 and the session counts of Table I.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/packet.h"
#include "stats/histogram.h"
#include "trace/capture.h"

namespace gametrace::trace {

struct Session {
  net::Ipv4Address client_ip;
  std::uint16_t client_port = 0;
  double start = 0.0;
  double end = 0.0;
  std::uint64_t packets_in = 0;
  std::uint64_t packets_out = 0;
  std::uint64_t app_bytes_in = 0;
  std::uint64_t app_bytes_out = 0;

  [[nodiscard]] double duration() const noexcept { return end - start; }
  [[nodiscard]] std::uint64_t packets() const noexcept { return packets_in + packets_out; }

  // Mean bandwidth over the session including wire overhead, bits/sec -
  // "the bandwidth measured at the server will be quite close to what is
  // sent across the last hop" (paper section III-B).
  [[nodiscard]] double mean_bandwidth_bps(
      std::uint32_t overhead = net::kWireOverheadBytes) const noexcept;
};

class SessionTracker final : public CaptureSink {
 public:
  explicit SessionTracker(double idle_timeout_seconds = 30.0);

  // Session tracking is hash-bound per record; the kernel reads only the
  // five columns it needs, skips rejects via the dense kind column, and
  // repeated packets from one endpoint (the common case inside a tick
  // burst) skip the hash lookup entirely.
  void OnColumns(const net::PacketBatch& batch) override;

  // Absorbs another tracker's sessions (closed and still-open). Exact when
  // the two trackers saw disjoint client endpoints - the fleet engine
  // guarantees this by giving each shard its own client IP namespace (see
  // GameConfig::client_ip_shift); an endpoint open on both sides is
  // combined into one session spanning both. Throws std::invalid_argument
  // if the idle timeouts differ.
  void Merge(SessionTracker&& other);

  // Closes all still-open sessions as of the last packet seen and returns
  // the full session list (sorted by start time). Call once, at the end.
  [[nodiscard]] std::vector<Session> Finish();

  [[nodiscard]] std::size_t open_sessions() const noexcept { return live_; }
  [[nodiscard]] std::size_t closed_sessions() const noexcept { return closed_.size(); }

  // Number of distinct client IPs seen across all sessions so far.
  [[nodiscard]] std::uint64_t unique_clients() const noexcept { return unique_ips_.size(); }

  // Builds the Figure 11 histogram: mean session bandwidth, sessions longer
  // than `min_duration` only.
  [[nodiscard]] static stats::Histogram BandwidthHistogram(
      const std::vector<Session>& sessions, double min_duration = 30.0,
      double max_bps = 160000.0, std::size_t bins = 64);

 private:
  // Open sessions live in a flat open-addressing table keyed by the 48-bit
  // (ip, port) endpoint. std::unordered_map cost one modulo-by-prime plus a
  // node dereference per lookup - measurably the whole session-tracking
  // budget on the hot path. Here the probe is one multiply (Fibonacci
  // hashing, which scatters the near-sequential endpoint keys well), a
  // power-of-two mask and a scan over a dense key array; the Session
  // payloads sit in a parallel vector so probing never drags 56-byte
  // records through the cache. Idle-timeout closes leave tombstones
  // (state kDead); the table rehashes when full + dead slots pass ~70%.
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kLive = 1;
  static constexpr std::uint8_t kDead = 2;
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  [[nodiscard]] static std::uint64_t FlowKey(std::uint32_t ip, std::uint16_t port) noexcept {
    return (std::uint64_t{ip} << 16) | port;
  }
  [[nodiscard]] std::size_t HomeSlot(std::uint64_t key) const noexcept {
    // Fibonacci hashing: the top bits of key * 2^64/phi, masked to capacity.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32) & (keys_.size() - 1);
  }

  void IngestFields(double t, std::uint32_t ip, std::uint16_t port, bool inbound,
                    std::uint16_t bytes);
  // Finds the live slot for `key`, or kNoSlot. `insert_slot` receives the
  // slot an insertion of `key` must use (first tombstone on the probe path,
  // else the terminating empty slot).
  [[nodiscard]] std::size_t FindSlot(std::uint64_t key, std::size_t& insert_slot) const noexcept;
  // Claims `slot` for a fresh session of `key`, growing (and re-homing
  // `slot`) if the table is too full. Returns the claimed slot.
  std::size_t ClaimSlot(std::uint64_t key, std::size_t slot);
  void Rehash(std::size_t new_capacity);

  double idle_timeout_;
  std::vector<std::uint64_t> keys_;    // capacity-sized, power of two
  std::vector<std::uint8_t> states_;   // kEmpty / kLive / kDead
  std::vector<Session> sessions_;     // parallel payloads for kLive slots
  std::size_t live_ = 0;
  std::size_t dead_ = 0;
  std::vector<Session> closed_;
  std::unordered_map<std::uint32_t, std::uint32_t> unique_ips_;  // ip -> session count
  // Memoized last-touched open slot (invalidated by rehash and Merge).
  std::uint64_t cached_key_ = 0;
  std::size_t cached_slot_ = kNoSlot;
};

}  // namespace gametrace::trace
