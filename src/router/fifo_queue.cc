#include "router/fifo_queue.h"

#include <algorithm>

#include "core/check.h"

namespace gametrace::router {

FifoQueue::FifoQueue(std::size_t capacity) : capacity_(capacity) {
  GT_CHECK_NE(capacity, 0u) << "FifoQueue: capacity must be positive";
}

void FifoQueue::Grow() {
  const std::size_t grown = std::min(capacity_, std::max<std::size_t>(8, 2 * ring_.size()));
  std::vector<std::uint32_t> ring(grown);
  for (std::size_t i = 0; i < size_; ++i) ring[i] = ring_[(head_ + i) % ring_.size()];
  ring_ = std::move(ring);
  head_ = 0;
}

}  // namespace gametrace::router
