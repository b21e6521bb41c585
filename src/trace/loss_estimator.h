// Sequence-gap loss estimation from an endpoint trace.
//
// The measurement-study workhorse: given only the packets that *arrived*
// (e.g. a capture behind a lossy NAT), per-flow netchannel sequence gaps
// reveal how many packets never made it - without any access to the
// device. Validated against NatDevice ground truth in the tests.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "net/packet.h"
#include "trace/capture.h"

namespace gametrace::trace {

class SeqGapLossEstimator final : public CaptureSink {
 public:
  struct DirectionEstimate {
    std::uint64_t received = 0;  // sequenced packets observed
    std::uint64_t expected = 0;  // sum over flows of (max_seq - min_seq + 1)
    std::uint64_t flows = 0;

    [[nodiscard]] std::uint64_t lost() const noexcept {
      return expected > received ? expected - received : 0;
    }
    [[nodiscard]] double loss_rate() const noexcept {
      return expected > 0 ? static_cast<double>(lost()) / static_cast<double>(expected) : 0.0;
    }
  };

  void OnColumns(const net::PacketBatch& batch) override;

  // Aggregated estimates (finalised lazily; cheap to call repeatedly).
  [[nodiscard]] DirectionEstimate Estimate(net::Direction direction) const;

  [[nodiscard]] std::uint64_t unsequenced_packets() const noexcept { return unsequenced_; }

 private:
  void Observe(const net::PacketRecord& record);

  struct FlowState {
    std::uint32_t min_seq = 0;
    std::uint32_t max_seq = 0;
    std::uint64_t received = 0;
  };

  static std::uint64_t Key(const net::PacketRecord& r) noexcept {
    return (std::uint64_t{r.client_ip.value()} << 17) | (std::uint64_t{r.client_port} << 1) |
           static_cast<std::uint64_t>(r.direction);
  }

  std::unordered_map<std::uint64_t, FlowState> flows_;
  std::uint64_t unsequenced_ = 0;
};

}  // namespace gametrace::trace
