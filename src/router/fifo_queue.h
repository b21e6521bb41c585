// Finite drop-tail FIFO of row ids.
//
// This is the shared buffer inside the NAT-device model; its size is the
// knob that determines how much of a 50 ms broadcast burst survives. It
// holds row ids into the device's packet store, not packets: the ring is a
// few bytes per slot and grows on demand up to the capacity, so a deep
// buffer costs nothing until traffic fills it. The device counts what
// enters and what is dropped (DeviceStats); the queue counts nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace gametrace::router {

class FifoQueue {
 public:
  explicit FifoQueue(std::size_t capacity);

  // False when the queue is full: the row is not queued.
  bool TryPush(std::uint32_t row) {
    if (full()) return false;
    if (size_ == ring_.size()) Grow();
    std::size_t tail = head_ + size_;
    if (tail >= ring_.size()) tail -= ring_.size();
    ring_[tail] = row;
    ++size_;
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

 private:
  void Grow();

  std::size_t capacity_;
  std::vector<std::uint32_t> ring_;  // size() grows by doubling, never past capacity_
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace gametrace::router
