// Finite drop-tail FIFO with occupancy accounting.
//
// This is the shared buffer inside the NAT-device model; its size is the
// knob that determines how much of a 50 ms broadcast burst survives. It
// holds row ids into the device's packet store, not packets: the ring is a
// few bytes per slot and grows on demand up to the capacity, so a deep
// buffer costs nothing until traffic fills it.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "stats/running_stats.h"

namespace gametrace::router {

class FifoQueue {
 public:
  explicit FifoQueue(std::size_t capacity);

  // False (and a drop count) when the queue is full.
  bool TryPush(std::uint32_t row) {
    occupancy_.Add(static_cast<double>(size_));
    if (full()) {
      ++drops_;
      if (metric_drops_ != nullptr) metric_drops_->Add();
      return false;
    }
    if (size_ == ring_.size()) Grow();
    std::size_t tail = head_ + size_;
    if (tail >= ring_.size()) tail -= ring_.size();
    ring_[tail] = row;
    ++size_;
    ++pushes_;
    if (metric_pushes_ != nullptr) metric_pushes_->Add();
    if (size_ > max_occupancy_) RaiseHighWater();
    return true;
  }

  [[nodiscard]] std::optional<std::uint32_t> Pop() {
    if (size_ == 0) return std::nullopt;
    const std::uint32_t row = ring_[head_];
    if (++head_ == ring_.size()) head_ = 0;
    --size_;
    return row;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool full() const noexcept { return size_ >= capacity_; }

  [[nodiscard]] std::uint64_t pushes() const noexcept { return pushes_; }
  [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }
  [[nodiscard]] std::size_t max_occupancy() const noexcept { return max_occupancy_; }
  [[nodiscard]] const stats::RunningStats& occupancy_at_push() const noexcept {
    return occupancy_;
  }

  // Mirrors this queue's accounting into `registry` as "<prefix>.pushes" /
  // "<prefix>.drops" counters and a "<prefix>.high_water" kMax gauge.
  // The registry must outlive the queue; existing counts are carried over
  // so binding after traffic has flowed loses nothing.
  void BindMetrics(obs::MetricsRegistry& registry, std::string_view prefix);

 private:
  void Grow();
  void RaiseHighWater();

  std::size_t capacity_;
  std::vector<std::uint32_t> ring_;  // size() grows by doubling, never past capacity_
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t pushes_ = 0;
  std::uint64_t drops_ = 0;
  std::size_t max_occupancy_ = 0;
  stats::RunningStats occupancy_;
  obs::Counter* metric_pushes_ = nullptr;
  obs::Counter* metric_drops_ = nullptr;
  obs::Gauge* metric_high_water_ = nullptr;
};

}  // namespace gametrace::router
