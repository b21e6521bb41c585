#include "trace/session_tracker.h"

#include <algorithm>
#include <stdexcept>

#include "core/check.h"
#include "obs/ledger.h"

namespace gametrace::trace {

double Session::mean_bandwidth_bps(std::uint32_t overhead) const noexcept {
  const double d = duration();
  if (d <= 0.0) return 0.0;
  const std::uint64_t wire =
      app_bytes_in + app_bytes_out + packets() * static_cast<std::uint64_t>(overhead);
  return net::BitsPerSecond(static_cast<double>(wire), d);
}

SessionTracker::SessionTracker(double idle_timeout_seconds) : idle_timeout_(idle_timeout_seconds) {
  GT_CHECK(idle_timeout_seconds > 0.0) << "SessionTracker: idle timeout must be positive";
}

void SessionTracker::OnColumns(const net::PacketBatch& batch) {
  const obs::LayerScope scope(obs::Layer::kCoreCharacterizeSessions);
  // Handshake-refusal traffic is not a session: a rejected client exchanged
  // two packets but never played. Counting those would flood the session
  // list with zero-length entries.
  constexpr auto kReject = static_cast<std::uint8_t>(net::PacketKind::kConnectReject);
  constexpr auto kIn = static_cast<std::uint8_t>(net::Direction::kClientToServer);
  const std::size_t n = batch.count;
  for (std::size_t i = 0; i < n; ++i) {
    if (batch.kinds[i] == kReject) continue;
    IngestFields(batch.timestamps[i], batch.client_ips[i], batch.client_ports[i],
                 batch.directions[i] == kIn, batch.app_bytes[i]);
  }
}

std::size_t SessionTracker::FindSlot(std::uint64_t key, std::size_t& insert_slot) const noexcept {
  const std::size_t mask = keys_.size() - 1;
  std::size_t i = HomeSlot(key);
  insert_slot = kNoSlot;
  while (true) {
    const std::uint8_t state = states_[i];
    if (state == kEmpty) {
      if (insert_slot == kNoSlot) insert_slot = i;
      return kNoSlot;
    }
    if (state == kLive && keys_[i] == key) return i;
    if (state == kDead && insert_slot == kNoSlot) insert_slot = i;
    i = (i + 1) & mask;
  }
}

std::size_t SessionTracker::ClaimSlot(std::uint64_t key, std::size_t slot) {
  if (keys_.empty() || (live_ + dead_ + 1) * 10 >= keys_.size() * 7) {
    // Rehashing drops tombstones; double only when the live population
    // itself needs the room.
    const std::size_t cap = std::max<std::size_t>(64, keys_.size());
    Rehash((live_ + 1) * 10 >= cap * 7 ? cap * 2 : cap);
    std::size_t insert_slot = kNoSlot;
    (void)FindSlot(key, insert_slot);  // key is absent: yields the fresh home
    slot = insert_slot;
  } else if (states_[slot] == kDead) {
    --dead_;
  }
  keys_[slot] = key;
  states_[slot] = kLive;
  ++live_;
  return slot;
}

void SessionTracker::Rehash(std::size_t new_capacity) {
  std::vector<std::uint64_t> old_keys = std::move(keys_);
  std::vector<std::uint8_t> old_states = std::move(states_);
  std::vector<Session> old_sessions = std::move(sessions_);
  keys_.assign(new_capacity, 0);
  states_.assign(new_capacity, kEmpty);
  sessions_.assign(new_capacity, Session{});
  dead_ = 0;
  cached_slot_ = kNoSlot;  // slots re-home
  const std::size_t mask = new_capacity - 1;
  for (std::size_t i = 0; i < old_keys.size(); ++i) {
    if (old_states[i] != kLive) continue;
    std::size_t j = HomeSlot(old_keys[i]);
    while (states_[j] != kEmpty) j = (j + 1) & mask;
    keys_[j] = old_keys[i];
    states_[j] = kLive;
    sessions_[j] = old_sessions[i];
  }
}

void SessionTracker::IngestFields(double t, std::uint32_t ip, std::uint16_t port, bool inbound,
                                  std::uint16_t bytes) {
  const std::uint64_t key = FlowKey(ip, port);
  std::size_t slot = cached_slot_;
  if (slot == kNoSlot || cached_key_ != key || t - sessions_[slot].end > idle_timeout_) {
    std::size_t insert_slot = kNoSlot;
    slot = keys_.empty() ? kNoSlot : FindSlot(key, insert_slot);
    if (slot != kNoSlot && t - sessions_[slot].end > idle_timeout_) {
      // Idle-expired: the endpoint left and came back. Close the old
      // session and start a fresh one - same key, so the slot is reused
      // in place (no occupancy change, no growth to consider).
      closed_.push_back(sessions_[slot]);
      Session& s = sessions_[slot];
      s = Session{};
      s.client_ip = net::Ipv4Address{ip};
      s.client_port = port;
      s.start = t;
      s.end = t;
      ++unique_ips_[ip];
    } else if (slot == kNoSlot) {
      slot = ClaimSlot(key, insert_slot);
      Session& s = sessions_[slot];
      s = Session{};
      s.client_ip = net::Ipv4Address{ip};
      s.client_port = port;
      s.start = t;
      s.end = t;
      ++unique_ips_[ip];
    }
    cached_key_ = key;
    cached_slot_ = slot;
  }

  Session& s = sessions_[slot];
  // The capture may be mildly out of order within a tick window; a session
  // never shrinks.
  s.end = std::max(s.end, t);
  if (inbound) {
    ++s.packets_in;
    s.app_bytes_in += bytes;
  } else {
    ++s.packets_out;
    s.app_bytes_out += bytes;
  }
}

void SessionTracker::Merge(SessionTracker&& other) {
  GT_CHECK_EQ(other.idle_timeout_, idle_timeout_) << "SessionTracker::Merge: idle-timeout mismatch";
  closed_.insert(closed_.end(), std::make_move_iterator(other.closed_.begin()),
                 std::make_move_iterator(other.closed_.end()));
  for (std::size_t i = 0; i < other.keys_.size(); ++i) {
    if (other.states_[i] != kLive) continue;
    const std::uint64_t key = other.keys_[i];
    const Session& session = other.sessions_[i];
    std::size_t insert_slot = kNoSlot;
    std::size_t slot = keys_.empty() ? kNoSlot : FindSlot(key, insert_slot);
    if (slot == kNoSlot) {
      slot = ClaimSlot(key, insert_slot);
      sessions_[slot] = session;
    } else {
      // Same endpoint active in both trackers (only possible without shard
      // namespacing): fold into one session covering both observations.
      Session& mine = sessions_[slot];
      mine.start = std::min(mine.start, session.start);
      mine.end = std::max(mine.end, session.end);
      mine.packets_in += session.packets_in;
      mine.packets_out += session.packets_out;
      mine.app_bytes_in += session.app_bytes_in;
      mine.app_bytes_out += session.app_bytes_out;
    }
  }
  // gt-lint: allow(nondet-iteration) key-addressed `+=` into a map; visit order cannot affect the result
  for (const auto& [ip, count] : other.unique_ips_) unique_ips_[ip] += count;
  other.keys_.clear();
  other.states_.clear();
  other.sessions_.clear();
  other.live_ = 0;
  other.dead_ = 0;
  other.closed_.clear();
  other.unique_ips_.clear();
  other.cached_slot_ = kNoSlot;
  cached_slot_ = kNoSlot;  // ClaimSlot may have rehashed
}

std::vector<Session> SessionTracker::Finish() {
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (states_[i] == kLive) closed_.push_back(sessions_[i]);
  }
  keys_.clear();
  states_.clear();
  sessions_.clear();
  live_ = 0;
  dead_ = 0;
  cached_slot_ = kNoSlot;
  std::sort(closed_.begin(), closed_.end(),
            [](const Session& a, const Session& b) { return a.start < b.start; });
  return std::move(closed_);
}

stats::Histogram SessionTracker::BandwidthHistogram(const std::vector<Session>& sessions,
                                                    double min_duration, double max_bps,
                                                    std::size_t bins) {
  stats::Histogram h(0.0, max_bps, bins);
  for (const Session& s : sessions) {
    if (s.duration() > min_duration) h.Add(s.mean_bandwidth_bps());
  }
  return h;
}

}  // namespace gametrace::trace
