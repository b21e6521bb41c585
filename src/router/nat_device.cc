#include "router/nat_device.h"

#include <algorithm>

#include "obs/obs.h"
#include "obs/trace_log.h"
#include "sim/random.h"

namespace gametrace::router {

NatDevice::NatDevice(sim::Simulator& simulator, const Config& config)
    : simulator_(&simulator),
      config_(config),
      rng_(config.seed),
      engine_(config.mean_capacity_pps, config.service_jitter, rng_.Split()),
      lan_q_(config.lan_buffer),
      wan_q_(config.wan_buffer),
      stats_(config.stats_interval),
      injector_(*this),
      trace_(obs::Current().trace) {
  // The queue instruments live next to the segment counters, so one
  // metrics export describes the whole device.
  lan_q_.BindMetrics(stats_.metrics(), "nat.lan_q");
  wan_q_.BindMetrics(stats_.metrics(), "nat.wan_q");
  if (obs::MetricsRegistry* ambient = obs::Current().metrics; ambient != nullptr) {
    episodes_counter_ = &ambient->counter("nat.livelock_episodes");
  }
}

void NatDevice::InjectorSink::OnColumns(const net::PacketBatch& batch) {
  for (std::size_t i = 0; i < batch.count; ++i) {
    const net::PacketRecord record = batch.RecordAt(i);
    const double at = std::max(device_->simulator_->Now(), record.timestamp);
    device_->simulator_->At(at, [device = device_, record] { device->OnArrival(record); });
  }
}

void NatDevice::Start() {
  if (started_) return;
  started_ = true;
  ScheduleNextEpisode();
}

void NatDevice::ScheduleNextEpisode() {
  if (config_.episode_mean_interval <= 0.0) return;  // livelock disabled
  const double gap = sim::Exponential(rng_, config_.episode_mean_interval);
  simulator_->After(gap, [this] {
    ++episodes_;
    if (episodes_counter_ != nullptr) episodes_counter_->Add();
    const double now = simulator_->Now();
    if (trace_ != nullptr) trace_->Instant("livelock_episode", "nat", now);
    wan_starved_until_ = now + sim::Uniform(rng_, config_.episode_min_duration,
                                            config_.episode_max_duration);
    full_stall_until_ = now + config_.episode_full_stall;
    ScheduleNextEpisode();
  });
}

void NatDevice::OnArrival(const net::PacketRecord& record) {
  const double now = simulator_->Now();
  const bool from_lan = record.direction == net::Direction::kServerToClient;
  const Segment arrival = from_lan ? Segment::kServerToNat : Segment::kClientsToNat;
  stats_.Count(arrival, now);

  if (!from_lan) {
    // NAT translation state for the client endpoint.
    const std::uint64_t key =
        (std::uint64_t{record.client_ip.value()} << 16) | record.client_port;
    if (nat_table_.emplace(key, next_external_port_).second) ++next_external_port_;
  }

  FifoQueue& queue = from_lan ? lan_q_ : wan_q_;
  QueuedPacket packet{record, from_lan ? NatPort::kLan : NatPort::kWan, now};
  if (!queue.TryPush(std::move(packet))) {
    Drop(record, arrival);
    return;
  }
  TryBeginService();
}

void NatDevice::TryBeginService() {
  if (busy_) return;
  const double now = simulator_->Now();

  // Total livelock: the CPU does nothing until the stall ends.
  if (now < full_stall_until_) {
    if (!wake_pending_) {
      wake_pending_ = true;
      wake_event_ = simulator_->At(full_stall_until_, [this] {
        wake_pending_ = false;
        TryBeginService();
      });
    }
    return;
  }

  // Strict LAN-first service; the WAN ring additionally starves during a
  // livelock episode.
  std::optional<QueuedPacket> packet = lan_q_.Pop();
  if (!packet && now >= wan_starved_until_) packet = wan_q_.Pop();
  if (!packet) {
    // If the WAN queue holds packets but is starved, wake up when the
    // episode ends so they are not stuck forever.
    if (!wan_q_.empty() && !wake_pending_) {
      wake_pending_ = true;
      wake_event_ = simulator_->At(wan_starved_until_, [this] {
        wake_pending_ = false;
        TryBeginService();
      });
    }
    return;
  }

  busy_ = true;
  const double service = engine_.DrawServiceTime();
  simulator_->After(service, [this, pkt = std::move(*packet)]() mutable {
    CompleteService(std::move(pkt));
  });
}

void NatDevice::CompleteService(QueuedPacket packet) {
  const double now = simulator_->Now();
  busy_ = false;
  stats_.RecordDelay(now - packet.enqueued_at);
  const Segment out = packet.in_port == NatPort::kLan ? Segment::kNatToClients
                                                      : Segment::kNatToServer;
  stats_.Count(out, now);
  if (deliver_) deliver_(packet.record, out);
  TryBeginService();
}

void NatDevice::Drop(const net::PacketRecord& record, Segment arrival_segment) {
  stats_.CountDrop(arrival_segment, simulator_->Now());
  if (trace_ != nullptr) {
    trace_->Instant(arrival_segment == Segment::kClientsToNat ? "nat_drop_incoming"
                                                              : "nat_drop_outgoing",
                    "nat", simulator_->Now());
  }
  if (on_loss_) on_loss_(record, arrival_segment);
}

}  // namespace gametrace::router
