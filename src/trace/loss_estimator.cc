#include "trace/loss_estimator.h"

#include <algorithm>

namespace gametrace::trace {

void SeqGapLossEstimator::OnColumns(const net::PacketBatch& batch) {
  for (std::size_t i = 0; i < batch.count; ++i) Observe(batch.RecordAt(i));
}

void SeqGapLossEstimator::Observe(const net::PacketRecord& record) {
  if (record.seq == 0) {
    ++unsequenced_;  // connectionless control traffic carries no sequence
    return;
  }
  FlowState& flow = flows_[Key(record)];
  if (flow.received == 0) {
    flow.min_seq = record.seq;
    flow.max_seq = record.seq;
  } else {
    flow.min_seq = std::min(flow.min_seq, record.seq);
    flow.max_seq = std::max(flow.max_seq, record.seq);
  }
  ++flow.received;
}

SeqGapLossEstimator::DirectionEstimate SeqGapLossEstimator::Estimate(
    net::Direction direction) const {
  DirectionEstimate estimate;
  // gt-lint: allow(nondet-iteration) commutative integer sums; visit order cannot affect the fold
  for (const auto& [key, flow] : flows_) {
    if (static_cast<net::Direction>(key & 1) != direction) continue;
    ++estimate.flows;
    estimate.received += flow.received;
    estimate.expected += static_cast<std::uint64_t>(flow.max_seq - flow.min_seq) + 1;
  }
  return estimate;
}

}  // namespace gametrace::trace
