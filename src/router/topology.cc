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
  for (std::size_t i = 0; i < batch.count; ++i) {
    const net::PacketRecord record = batch.RecordAt(i);
    const bool outbound = record.direction == net::Direction::kServerToClient;
    if (outbound) {
      ++chain.end_to_end_.sent_out;
    } else {
      ++chain.end_to_end_.sent_in;
    }
    NatDevice* edge = outbound ? chain.devices_.front().get() : chain.devices_.back().get();
    const double at = std::max(chain.simulator_->Now(), record.timestamp);
    chain.simulator_->At(at, [edge, record] { edge->OnArrival(record); });
  }
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
