// Model of a COTS NAT/router appliance (the paper's SMC7004AWBR Barricade).
//
// The paper demonstrates that a single game server at ~800 kbps overwhelms
// a device "designed to route at significantly higher rates" because the
// bottleneck is per-packet route lookup (1000-1500 pps), not link speed.
// The model:
//
//   * one forwarding CPU drawing a per-packet service time around
//     1/capacity (LookupEngine);
//   * two shallow input queues - a deeper LAN-side buffer (the server's
//     broadcast bursts arrive back-to-back and are DMA-queued) and a
//     shallow WAN-side receive ring;
//   * strict LAN-first service: a 50 ms broadcast burst monopolises the
//     CPU for ~15 ms, starving the WAN ring - which is why *incoming*
//     packets are lost as "a result of individual server packet bursts"
//     (paper section IV-A) even though the outgoing load is burstier;
//   * episodic livelock: under sustained small-packet overload the device
//     periodically stops servicing the WAN side for O(1 s) (interrupt /
//     housekeeping livelock typical of consumer gear), producing the
//     frequent NAT->server drop-outs of Figure 14(b);
//   * a NAT translation table mapping client endpoints to external ports.
//
// Loss callbacks let an experiment wire the game-freeze feedback loop: the
// server misses client updates and briefly stops broadcasting
// (CsServer::InduceStall), which is what correlates the Figure 15 dropouts
// with incoming loss.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "net/packet.h"
#include "obs/metrics.h"
#include "obs/trace_log.h"
#include "router/device_stats.h"
#include "router/fifo_queue.h"
#include "router/lookup_engine.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "trace/capture.h"

namespace gametrace::router {

class NatDevice {
 public:
  struct Config {
    std::size_t lan_buffer = 24;  // packets, server-side input queue
    std::size_t wan_buffer = 16;  // packets, Internet-side receive ring
    double mean_capacity_pps = 1250.0;  // "listed capacity of 1000-1500 pps"
    double service_jitter = 0.25;

    // Livelock episodes: every ~Exp(episode_mean_interval) the device stops
    // servicing the WAN queue for U(min,max) seconds; for the first
    // full_stall seconds of an episode nothing is serviced at all.
    double episode_mean_interval = 58.0;
    double episode_min_duration = 0.5;
    double episode_max_duration = 1.4;
    double episode_full_stall = 0.50;

    double stats_interval = 1.0;  // bin width of the Fig 14/15 series
    std::uint64_t seed = 7;
  };

  using DeliverFn = std::function<void(const net::PacketRecord&, Segment delivered_on)>;
  using LossFn = std::function<void(const net::PacketRecord&, Segment arrival_segment)>;

  NatDevice(sim::Simulator& simulator, const Config& config);

  NatDevice(const NatDevice&) = delete;
  NatDevice& operator=(const NatDevice&) = delete;

  void SetDeliverCallback(DeliverFn fn) { deliver_ = std::move(fn); }
  void SetLossCallback(LossFn fn) { on_loss_ = std::move(fn); }

  // Must be called once before injecting traffic; starts the livelock
  // schedule.
  void Start();

  // A packet reaches the device at the current simulation time.
  void OnArrival(const net::PacketRecord& record);

  // A sink that schedules OnArrival at each record's own timestamp - the
  // glue between CsServer's emission and the device (also re-orders the
  // within-tick emission skew).
  [[nodiscard]] trace::CaptureSink& injector() noexcept { return injector_; }

  [[nodiscard]] const DeviceStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const FifoQueue& lan_queue() const noexcept { return lan_q_; }
  [[nodiscard]] const FifoQueue& wan_queue() const noexcept { return wan_q_; }
  [[nodiscard]] std::size_t nat_table_size() const noexcept { return nat_table_.size(); }
  [[nodiscard]] bool busy() const noexcept { return busy_; }
  [[nodiscard]] int livelock_episodes() const noexcept { return episodes_; }

 private:
  class InjectorSink final : public trace::CaptureSink {
   public:
    explicit InjectorSink(NatDevice& device) : device_(&device) {}
    void OnColumns(const net::PacketBatch& batch) override;

   private:
    NatDevice* device_;
  };

  void ScheduleNextEpisode();
  void TryBeginService();
  void CompleteService(QueuedPacket packet);
  void Drop(const net::PacketRecord& record, Segment arrival_segment);

  sim::Simulator* simulator_;
  Config config_;
  sim::Rng rng_;
  LookupEngine engine_;
  FifoQueue lan_q_;
  FifoQueue wan_q_;
  DeviceStats stats_;
  InjectorSink injector_;
  DeliverFn deliver_;
  LossFn on_loss_;
  std::unordered_map<std::uint64_t, std::uint16_t> nat_table_;  // endpoint -> external port
  std::uint16_t next_external_port_ = 1024;
  bool busy_ = false;
  bool started_ = false;
  double wan_starved_until_ = 0.0;
  double full_stall_until_ = 0.0;
  int episodes_ = 0;
  std::uint64_t wake_event_ = 0;
  bool wake_pending_ = false;

  // Ambient observability captured at construction: drop/livelock instants
  // go to the trace log ("nat" category), episode counts to the ambient
  // registry. Both null outside a binding.
  obs::TraceLog* trace_ = nullptr;
  obs::Counter* episodes_counter_ = nullptr;
};

}  // namespace gametrace::router
