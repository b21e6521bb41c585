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
//
// The device runs its own queueing in time order instead of scheduling a
// simulator event per arrival and per service completion. Injected rows
// wait in a pending-arrival buffer sorted by (arrival time, injection
// order); a commit step replays arrivals, completions (start + drawn
// service time, the Lindley recursion) and stall wake-ups up to the
// current time whenever the device is touched. A simulator event is armed
// only where an observable can happen: at the earliest pending arrival
// that might be dropped, and - with a deliver callback - at the next
// completion or wake-up. So every loss and delivery callback still runs at
// its own instant. DESIGN.md section "NAT device" has the event rule.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

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

  // Each delivery calls `fn` at its completion instant (Now() equals the
  // completion time), which costs one simulator event per delivery.
  void SetDeliverCallback(DeliverFn fn);
  // Each drop calls `fn` at the dropped packet's arrival instant.
  void SetLossCallback(LossFn fn) { on_loss_ = std::move(fn); }

  // Must be called once before injecting traffic; starts the livelock
  // schedule.
  void Start();

  // A packet reaches the device at the current simulation time. It arrives
  // ahead of device events already due at this instant.
  void OnArrival(const net::PacketRecord& record);

  // A sink that queues each record to arrive at its own timestamp (or now,
  // if that has passed) - the glue between CsServer's emission and the
  // device (also re-orders the within-tick emission skew). Records due at
  // the same instant arrive in injection order.
  [[nodiscard]] trace::CaptureSink& injector() noexcept { return injector_; }

  // Reads bring the device up to the current simulation time first.
  [[nodiscard]] const DeviceStats& stats();
  [[nodiscard]] const FifoQueue& lan_queue();
  [[nodiscard]] const FifoQueue& wan_queue();
  [[nodiscard]] std::size_t nat_table_size();
  [[nodiscard]] int livelock_episodes() const noexcept { return episodes_; }

  // Adds the episode count to `metrics` as nat.livelock_episodes; the
  // segment and queue accounting lives in stats().metrics().
  void PublishCounts(obs::MetricsRegistry& metrics) const;

 private:
  class InjectorSink final : public trace::CaptureSink {
   public:
    explicit InjectorSink(NatDevice& device) : device_(&device) {}
    void OnColumns(const net::PacketBatch& batch) override;

   private:
    NatDevice* device_;
  };

  // Client endpoint -> external port, in a flat open-addressing table keyed
  // by the 48-bit (ip, port) endpoint: SessionTracker's layout (Fibonacci
  // hashing, power-of-two capacity, linear probing). Mappings are never
  // removed, so there are no tombstones.
  class NatTable {
   public:
    // Maps `endpoint` to `port` unless it is mapped already; true if new.
    bool Insert(std::uint64_t endpoint, std::uint16_t port);
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

   private:
    void Rehash(std::size_t capacity);

    std::vector<std::uint64_t> keys_;  // capacity-sized, power of two
    std::vector<std::uint16_t> ports_;
    std::vector<std::uint8_t> used_;
    std::size_t size_ = 0;
  };

  // A packet inside the device, from arrival to departure or drop.
  struct Row {
    double at = 0.0;  // arrival time
    net::PacketRecord record;
  };

  // An injected row that has not arrived yet. `stamp` orders it against
  // other device events due at the same instant.
  struct Pending {
    double at = 0.0;
    std::uint64_t stamp = 0;
    std::uint32_t row = 0;
    bool lan = false;
  };

  // How far a commit at time t reaches.
  enum class Horizon : std::uint8_t {
    // Events strictly before t: the touch itself runs ahead of device
    // events due at t (an injection, an episode).
    kBefore,
    // Events at t too, stopping at the first one a callback would observe
    // (a read; that event has its own armed event).
    kAt,
    // Every event at or before t (the armed event firing at t).
    kThrough,
  };

  static constexpr double kNever = std::numeric_limits<double>::infinity();

  void Inject(const net::PacketBatch& batch);
  // Brings the device up to Now(), then re-arms (a read, the armed event).
  // Every other touch commits, changes the device, then re-arms.
  void Touch(Horizon horizon);
  void AdvanceTo(double t, Horizon horizon);
  void Rearm();

  std::uint32_t AcquireRow(double at, const net::PacketRecord& record);
  void Arrive(std::uint32_t row);
  void TryBeginService(double now);
  void Complete();
  void Drop(std::uint32_t row, Segment arrival_segment);
  void ScheduleNextEpisode();

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
  NatTable nat_table_;
  std::uint16_t next_external_port_ = 1024;
  bool started_ = false;
  double wan_starved_until_ = 0.0;
  double full_stall_until_ = 0.0;
  int episodes_ = 0;

  // Packet store: the queues and the pending buffer hold row ids.
  std::vector<Row> rows_;
  std::vector<std::uint32_t> free_rows_;
  // Sorted by (at, stamp); entries before pending_head_ have arrived.
  std::vector<Pending> pending_;
  std::size_t pending_head_ = 0;
  std::uint64_t next_stamp_ = 0;

  // The service in progress.
  bool busy_ = false;
  std::uint32_t in_service_ = 0;
  double completion_at_ = kNever;
  std::uint64_t completion_stamp_ = 0;
  // The stall wake-up. It is latched: a new episode that moves the stall
  // ends leaves a pending wake-up at its old time.
  double wake_at_ = kNever;
  std::uint64_t wake_stamp_ = 0;

  // The one armed simulator event (kNever: none).
  double armed_at_ = kNever;
  std::uint64_t armed_id_ = 0;
  // Set while a commit runs: a callback that touches the device sees the
  // state of the event that called it.
  bool committing_ = false;

  // The ambient trace log captured at construction (null outside a
  // binding): drop/livelock instants go there ("nat" category).
  obs::TraceLog* trace_ = nullptr;
};

}  // namespace gametrace::router
