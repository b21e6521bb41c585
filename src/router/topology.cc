#include "router/topology.h"

#include <algorithm>
#include <stdexcept>

#include "core/check.h"

namespace gametrace::router {

DeviceChain::DeviceChain(sim::Simulator& simulator, const Config& config)
    : simulator_(&simulator), link_delay_(config.link_delay), injector_(*this) {
  GT_CHECK(!config.hops.empty()) << "DeviceChain: need at least one hop";
  GT_CHECK_GE(config.link_delay, 0.0) << "DeviceChain: negative link delay";
  devices_.reserve(config.hops.size());
  for (std::size_t i = 0; i < config.hops.size(); ++i) {
    devices_.push_back(std::make_unique<NatDevice>(simulator, config.hops[i]));
    devices_.back()->SetDeliverCallback(
        [this, i](const net::PacketRecord& record, Segment) { Forward(record, i); });
  }
}

void DeviceChain::Start() {
  for (auto& device : devices_) device->Start();
}

void DeviceChain::InjectorSink::OnColumns(const net::PacketBatch& batch) {
  auto& chain = *chain_;
  const auto out = static_cast<std::uint8_t>(net::Direction::kServerToClient);
  for (std::size_t i = 0; i < batch.count; ++i) {
    if (batch.directions[i] == out) {
      ++chain.end_to_end_.sent_out;
    } else {
      ++chain.end_to_end_.sent_in;
    }
  }
  NatDevice& first = *chain.devices_.front();
  NatDevice& last = *chain.devices_.back();
  if (&first == &last) {
    // One device sees both directions in the batch's own row order.
    first.injector().OnColumns(batch);
    return;
  }
  outbound_.Clear();
  inbound_.Clear();
  for (std::size_t i = 0; i < batch.count; ++i) {
    (batch.directions[i] == out ? outbound_ : inbound_).PushFrom(batch, i);
  }
  if (!outbound_.empty()) first.injector().OnColumns(outbound_.View());
  if (!inbound_.empty()) last.injector().OnColumns(inbound_.View());
}

void DeviceChain::Forward(const net::PacketRecord& record, std::size_t from_hop) {
  const bool outbound = record.direction == net::Direction::kServerToClient;
  const bool is_last = outbound ? from_hop + 1 == devices_.size() : from_hop == 0;
  if (is_last) {
    FinalDelivery(record);
    return;
  }
  NatDevice* next =
      outbound ? devices_[from_hop + 1].get() : devices_[from_hop - 1].get();
  simulator_->After(link_delay_, [next, record] { next->OnArrival(record); });
}

void DeviceChain::FinalDelivery(const net::PacketRecord& record) {
  const double delay = simulator_->Now() - record.timestamp;
  if (record.direction == net::Direction::kServerToClient) {
    ++end_to_end_.delivered_out;
    end_to_end_.delay_out.Add(delay);
  } else {
    ++end_to_end_.delivered_in;
    end_to_end_.delay_in.Add(delay);
  }
}

}  // namespace gametrace::router
