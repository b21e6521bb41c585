// Multi-hop device chains.
//
// The paper's provisioning warning extends past the first box: "even
// mid-range routers or firewalls within several hops of large hosted
// on-line game servers will need to be carefully provisioned to minimize
// both the loss and delay induced by routing extremely small packets."
// DeviceChain strings store-and-forward devices between the server and
// its clients so loss compounding and per-hop delay accumulation can be
// measured directly.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.h"
#include "net/packet_batch.h"
#include "router/nat_device.h"
#include "stats/running_stats.h"
#include "trace/capture.h"

namespace gametrace::router {

class DeviceChain {
 public:
  struct Config {
    std::vector<NatDevice::Config> hops;  // hop 0 is nearest the server
    double link_delay = 0.0005;           // propagation between hops, seconds
  };

  DeviceChain(sim::Simulator& simulator, const Config& config);

  DeviceChain(const DeviceChain&) = delete;
  DeviceChain& operator=(const DeviceChain&) = delete;

  // Starts every hop's internal schedule.
  void Start();

  // Sink that hands each record to the correct edge device's injector
  // (outbound packets enter hop 0, inbound packets enter the last hop),
  // which queues it for the record's own timestamp.
  [[nodiscard]] trace::CaptureSink& injector() noexcept { return injector_; }

  [[nodiscard]] std::size_t hop_count() const noexcept { return devices_.size(); }
  [[nodiscard]] NatDevice& hop(std::size_t i) { return *devices_.at(i); }

  struct EndToEnd {
    std::uint64_t sent_out = 0;
    std::uint64_t sent_in = 0;
    std::uint64_t delivered_out = 0;  // reached the clients
    std::uint64_t delivered_in = 0;   // reached the server
    stats::RunningStats delay_out;    // emission -> final exit, seconds
    stats::RunningStats delay_in;

    [[nodiscard]] double loss_rate_out() const noexcept {
      return sent_out > 0
                 ? 1.0 - static_cast<double>(delivered_out) / static_cast<double>(sent_out)
                 : 0.0;
    }
    [[nodiscard]] double loss_rate_in() const noexcept {
      return sent_in > 0
                 ? 1.0 - static_cast<double>(delivered_in) / static_cast<double>(sent_in)
                 : 0.0;
    }
  };

  [[nodiscard]] const EndToEnd& end_to_end() const noexcept { return end_to_end_; }

 private:
  class InjectorSink final : public trace::CaptureSink {
   public:
    explicit InjectorSink(DeviceChain& chain) : chain_(&chain) {}
    void OnColumns(const net::PacketBatch& batch) override;

   private:
    DeviceChain* chain_;
    // Per-edge slices of a batch when the edges are different devices.
    net::ColumnarBatch outbound_;
    net::ColumnarBatch inbound_;
  };

  void Forward(const net::PacketRecord& record, std::size_t from_hop);
  void FinalDelivery(const net::PacketRecord& record);

  sim::Simulator* simulator_;
  double link_delay_;
  std::vector<std::unique_ptr<NatDevice>> devices_;
  InjectorSink injector_;
  EndToEnd end_to_end_;
};

}  // namespace gametrace::router
