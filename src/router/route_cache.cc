#include "router/route_cache.h"

#include <algorithm>
#include <stdexcept>

#include "core/check.h"

namespace gametrace::router {

namespace {
// EWMA weight for the per-entry mean packet size.
constexpr double kSizeAlpha = 0.125;
// Victim candidates examined from the LRU tail by the size-preferential
// policy.
constexpr int kVictimCandidates = 4;
// Ghost entries live for this many cache accesses.
constexpr std::uint64_t kGhostWindow = 4096;
}  // namespace

std::string_view PolicyName(CachePolicy policy) noexcept {
  switch (policy) {
    case CachePolicy::kLru:
      return "LRU";
    case CachePolicy::kLfu:
      return "LFU";
    case CachePolicy::kSmallPacketPreferential:
      return "small-packet-preferential";
    case CachePolicy::kFrequencyPreferential:
      return "frequency-preferential";
  }
  return "?";
}

RouteCache::RouteCache(std::size_t capacity, CachePolicy policy)
    : capacity_(capacity), policy_(policy) {
  GT_CHECK_NE(capacity, 0u) << "RouteCache: capacity must be positive";
}

double RouteCache::hit_rate() const noexcept {
  const std::uint64_t total = hits_ + misses_;
  return total > 0 ? static_cast<double>(hits_) / static_cast<double>(total) : 0.0;
}

bool RouteCache::Access(std::uint32_t dst_ip, std::uint16_t packet_bytes) {
  ++access_counter_;
  const auto it = entries_.find(dst_ip);
  if (it != entries_.end()) {
    ++hits_;
    Touch(dst_ip, it->second, packet_bytes);
    return true;
  }

  ++misses_;
  if (policy_ == CachePolicy::kFrequencyPreferential) {
    const auto ghost_it = ghost_.find(dst_ip);
    const bool seen_recently =
        ghost_it != ghost_.end() && access_counter_ - ghost_it->second <= kGhostWindow;
    if (!seen_recently) {
      ghost_[dst_ip] = access_counter_;
      // Opportunistic ghost-list trim to bound memory.
      if (ghost_.size() > 4 * capacity_ + 1024) {
        std::erase_if(ghost_, [this](const auto& kv) {
          return access_counter_ - kv.second > kGhostWindow;
        });
      }
      return false;  // first miss: not admitted
    }
    ghost_.erase(ghost_it);
  }
  Admit(dst_ip, packet_bytes);
  return false;
}

void RouteCache::Touch(std::uint32_t key, Entry& entry, std::uint16_t bytes) {
  ++entry.frequency;
  entry.mean_bytes += kSizeAlpha * (static_cast<double>(bytes) - entry.mean_bytes);
  lru_.erase(entry.lru_pos);
  lru_.push_front(key);
  entry.lru_pos = lru_.begin();
}

void RouteCache::Admit(std::uint32_t key, std::uint16_t bytes) {
  if (entries_.size() >= capacity_) EvictOne();
  lru_.push_front(key);
  Entry entry;
  entry.lru_pos = lru_.begin();
  entry.frequency = 1;
  entry.mean_bytes = static_cast<double>(bytes);
  entries_.emplace(key, entry);
}

void RouteCache::EvictOne() {
  switch (policy_) {
    case CachePolicy::kLru:
    case CachePolicy::kFrequencyPreferential: {
      const std::uint32_t victim = lru_.back();
      lru_.pop_back();
      entries_.erase(victim);
      break;
    }
    case CachePolicy::kLfu: {
      auto victim = entries_.begin();
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->second.frequency < victim->second.frequency) victim = it;
      }
      lru_.erase(victim->second.lru_pos);
      entries_.erase(victim);
      break;
    }
    case CachePolicy::kSmallPacketPreferential: {
      // Examine the last kVictimCandidates LRU entries; evict the one whose
      // flow carries the largest packets (web-like), keeping game routes.
      auto candidate = lru_.rbegin();
      std::uint32_t victim = *candidate;
      double victim_bytes = entries_.at(victim).mean_bytes;
      for (int i = 1; i < kVictimCandidates && std::next(candidate) != lru_.rend(); ++i) {
        ++candidate;
        const double mean = entries_.at(*candidate).mean_bytes;
        if (mean > victim_bytes) {
          victim = *candidate;
          victim_bytes = mean;
        }
      }
      lru_.erase(entries_.at(victim).lru_pos);
      entries_.erase(victim);
      break;
    }
  }
}

void RouteCache::Clear() {
  entries_.clear();
  lru_.clear();
  ghost_.clear();
  hits_ = 0;
  misses_ = 0;
  access_counter_ = 0;
}

}  // namespace gametrace::router
