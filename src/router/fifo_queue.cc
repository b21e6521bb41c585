#include "router/fifo_queue.h"

#include <algorithm>
#include <string>

#include "core/check.h"

namespace gametrace::router {

FifoQueue::FifoQueue(std::size_t capacity) : capacity_(capacity) {
  GT_CHECK_NE(capacity, 0) << "FifoQueue: capacity must be positive";
}

void FifoQueue::BindMetrics(obs::MetricsRegistry& registry, std::string_view prefix) {
  const std::string base(prefix);
  metric_pushes_ = &registry.counter(base + ".pushes");
  metric_drops_ = &registry.counter(base + ".drops");
  metric_high_water_ = &registry.gauge(base + ".high_water", obs::Gauge::MergeMode::kMax);
  // Carry over anything counted before the binding existed.
  metric_pushes_->Add(pushes_);
  metric_drops_->Add(drops_);
  metric_high_water_->SetMax(static_cast<double>(max_occupancy_));
}

void FifoQueue::Grow() {
  const std::size_t grown = std::min(capacity_, std::max<std::size_t>(8, 2 * ring_.size()));
  std::vector<std::uint32_t> ring(grown);
  for (std::size_t i = 0; i < size_; ++i) ring[i] = ring_[(head_ + i) % ring_.size()];
  ring_ = std::move(ring);
  head_ = 0;
}

void FifoQueue::RaiseHighWater() {
  max_occupancy_ = size_;
  if (metric_high_water_ != nullptr) metric_high_water_->SetMax(static_cast<double>(size_));
  GT_DCHECK_LE(size_, capacity_) << "FifoQueue: occupancy exceeds capacity";
}

}  // namespace gametrace::router
