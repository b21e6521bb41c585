#include "router/nat_device.h"

#include <algorithm>
#include <utility>

#include "core/check.h"
#include "obs/ledger.h"
#include "obs/obs.h"
#include "obs/trace_log.h"
#include "sim/random.h"

namespace gametrace::router {

namespace {

// Device events due at the same instant run in the order they were
// scheduled: the stamp order.
bool Earlier(double t, std::uint64_t stamp, double u, std::uint64_t other) noexcept {
  return t < u || (t == u && stamp < other);
}

bool FromLan(const net::PacketRecord& record) noexcept {
  return record.direction == net::Direction::kServerToClient;
}

}  // namespace

// ---- NAT table ---------------------------------------------------------

bool NatDevice::NatTable::Insert(std::uint64_t endpoint, std::uint16_t port) {
  if ((size_ + 1) * 10 >= keys_.size() * 7) Rehash(std::max<std::size_t>(64, keys_.size() * 2));
  const std::size_t mask = keys_.size() - 1;
  // Fibonacci hashing: the top bits of key * 2^64/phi, masked to capacity.
  std::size_t i = static_cast<std::size_t>((endpoint * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
  while (used_[i] != 0) {
    if (keys_[i] == endpoint) return false;
    i = (i + 1) & mask;
  }
  keys_[i] = endpoint;
  ports_[i] = port;
  used_[i] = 1;
  ++size_;
  return true;
}

void NatDevice::NatTable::Rehash(std::size_t capacity) {
  std::vector<std::uint64_t> old_keys = std::move(keys_);
  std::vector<std::uint16_t> old_ports = std::move(ports_);
  std::vector<std::uint8_t> old_used = std::move(used_);
  keys_.assign(capacity, 0);
  ports_.assign(capacity, 0);
  used_.assign(capacity, 0);
  const std::size_t mask = capacity - 1;
  for (std::size_t j = 0; j < old_keys.size(); ++j) {
    if (old_used[j] == 0) continue;
    std::size_t i = static_cast<std::size_t>((old_keys[j] * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
    while (used_[i] != 0) i = (i + 1) & mask;
    keys_[i] = old_keys[j];
    ports_[i] = old_ports[j];
    used_[i] = 1;
  }
}

// ---- Device --------------------------------------------------------------

NatDevice::NatDevice(sim::Simulator& simulator, const Config& config)
    : simulator_(&simulator),
      config_(config),
      rng_(config.seed),
      engine_(config.mean_capacity_pps, config.service_jitter, rng_.Split()),
      lan_q_(config.lan_buffer),
      wan_q_(config.wan_buffer),
      stats_(config.stats_interval),
      injector_(*this),
      trace_(obs::Current().trace) {}

void NatDevice::PublishCounts(obs::MetricsRegistry& metrics) const {
  stats_.PublishCounts(metrics);
  metrics.counter("nat.livelock_episodes").Add(static_cast<std::uint64_t>(episodes_));
}

void NatDevice::SetDeliverCallback(DeliverFn fn) {
  AdvanceTo(simulator_->Now(), Horizon::kBefore);
  deliver_ = std::move(fn);
  Rearm();
}

void NatDevice::CatchUp() { Touch(Horizon::kAt); }

const DeviceStats& NatDevice::stats() {
  CatchUp();
  return stats_;
}

std::size_t NatDevice::nat_table_size() {
  CatchUp();
  return nat_table_.size();
}

void NatDevice::InjectorSink::OnColumns(const net::PacketBatch& batch) { device_->Inject(batch); }

void NatDevice::Start() {
  if (started_) return;
  started_ = true;
  ScheduleNextEpisode();
}

void NatDevice::ScheduleNextEpisode() {
  if (config_.episode_mean_interval <= 0.0) return;  // livelock disabled
  const double gap = sim::Exponential(rng_, config_.episode_mean_interval);
  simulator_->After(gap, [this] {
    const obs::LayerScope scope(obs::Layer::kRouterNat);
    const double now = simulator_->Now();
    AdvanceTo(now, Horizon::kBefore);
    ++episodes_;
    if (trace_ != nullptr) trace_->Instant("livelock_episode", "nat", now);
    wan_starved_until_ = now + sim::Uniform(rng_, config_.episode_min_duration,
                                            config_.episode_max_duration);
    full_stall_until_ = now + config_.episode_full_stall;
    ScheduleNextEpisode();
    Rearm();
  });
}

void NatDevice::OnArrival(const net::PacketRecord& record) {
  const obs::LayerScope scope(obs::Layer::kRouterNat);
  const double now = simulator_->Now();
  AdvanceTo(now, Horizon::kBefore);
  Arrive(AcquireRow(now, record));
  Rearm();
}

void NatDevice::Inject(const net::PacketBatch& batch) {
  const obs::LayerScope scope(obs::Layer::kRouterNat);
  const double now = simulator_->Now();
  AdvanceTo(now, Horizon::kBefore);
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(pending_head_));
  pending_head_ = 0;
  for (std::size_t i = 0; i < batch.count; ++i) {
    const net::PacketRecord record = batch.RecordAt(i);
    const double at = std::max(now, record.timestamp);
    const Pending entry{.at = at,
                        .stamp = next_stamp_++,
                        .row = AcquireRow(at, record),
                        .lan = FromLan(record)};
    // Insertion into the sorted buffer: a tick batch is nearly sorted
    // already (the burst is, client sends interleave), and a row due at
    // the same instant as an earlier one stays behind it.
    std::size_t j = pending_.size();
    pending_.push_back(entry);
    while (j > 0 && pending_[j - 1].at > at) {
      pending_[j] = pending_[j - 1];
      --j;
    }
    pending_[j] = entry;
  }
  Rearm();
}

void NatDevice::Touch(Horizon horizon) {
  const obs::LayerScope scope(obs::Layer::kRouterNat);
  AdvanceTo(simulator_->Now(), horizon);
  Rearm();
}

void NatDevice::AdvanceTo(double t, Horizon horizon) {
  if (committing_) return;
  committing_ = true;
  struct Reset {
    bool* flag;
    ~Reset() { *flag = false; }
  } reset{&committing_};

  enum class Kind : std::uint8_t { kArrival, kCompletion, kWake };
  for (;;) {
    Kind kind = Kind::kArrival;
    double at = kNever;
    std::uint64_t stamp = 0;
    if (pending_head_ < pending_.size()) {
      at = pending_[pending_head_].at;
      stamp = pending_[pending_head_].stamp;
    }
    if (busy_ && Earlier(completion_at_, completion_stamp_, at, stamp)) {
      kind = Kind::kCompletion;
      at = completion_at_;
      stamp = completion_stamp_;
    }
    if (Earlier(wake_at_, wake_stamp_, at, stamp)) {
      kind = Kind::kWake;
      at = wake_at_;
    }
    if (at > t || at == kNever) break;
    if (at == t && horizon == Horizon::kBefore) break;
    if (at == t && horizon == Horizon::kAt) {
      // A drop or a delivery callback is observable: leave it to the
      // armed event at this instant.
      const bool observable =
          kind == Kind::kArrival
              ? (pending_[pending_head_].lan ? lan_q_ : wan_q_).full()
              : kind == Kind::kCompletion && deliver_ != nullptr;
      if (observable) break;
    }
    switch (kind) {
      case Kind::kArrival: {
        const std::uint32_t row = pending_[pending_head_].row;
        if (++pending_head_ == pending_.size()) {
          pending_.clear();
          pending_head_ = 0;
        }
        Arrive(row);
        break;
      }
      case Kind::kCompletion:
        Complete();
        break;
      case Kind::kWake:
        wake_at_ = kNever;
        TryBeginService(at);
        break;
    }
  }
}

void NatDevice::Rearm() {
  if (committing_) return;
  // The earliest pending arrival that might be dropped. Occupancy only
  // falls between arrivals, so an arrival whose queue holds fewer than
  // capacity packets even if every earlier pending arrival to it is
  // accepted and none is served is sure to be accepted.
  double target = kNever;
  std::size_t occupancy[2] = {wan_q_.size(), lan_q_.size()};
  const std::size_t capacity[2] = {wan_q_.capacity(), lan_q_.capacity()};
  for (std::size_t i = pending_head_; i < pending_.size(); ++i) {
    const int q = pending_[i].lan ? 1 : 0;
    if (occupancy[q] >= capacity[q]) {
      target = pending_[i].at;
      break;
    }
    ++occupancy[q];
  }
  // A delivery callback observes every completion; the next one is known
  // once service starts, which happens at the next arrival or wake-up.
  if (deliver_) {
    if (busy_) {
      target = std::min(target, completion_at_);
    } else if (pending_head_ < pending_.size()) {
      target = std::min(target, pending_[pending_head_].at);
    }
    target = std::min(target, wake_at_);
  }
  if (armed_at_ == target) return;
  if (armed_at_ != kNever) simulator_->Cancel(armed_id_);
  armed_at_ = target;
  if (target == kNever) return;
  armed_id_ = simulator_->At(target, [this] {
    armed_at_ = kNever;
    Touch(Horizon::kThrough);
  });
}

std::uint32_t NatDevice::AcquireRow(double at, const net::PacketRecord& record) {
  if (free_rows_.empty()) {
    rows_.push_back(Row{.at = at, .record = record});
    return static_cast<std::uint32_t>(rows_.size() - 1);
  }
  const std::uint32_t row = free_rows_.back();
  free_rows_.pop_back();
  rows_[row] = Row{.at = at, .record = record};
  return row;
}

void NatDevice::Arrive(std::uint32_t row) {
  const Row& packet = rows_[row];
  const bool from_lan = FromLan(packet.record);
  const Segment arrival = from_lan ? Segment::kServerToNat : Segment::kClientsToNat;
  stats_.Count(arrival, packet.at);

  if (!from_lan) {
    // NAT translation state for the client endpoint.
    const std::uint64_t key =
        (std::uint64_t{packet.record.client_ip.value()} << 16) | packet.record.client_port;
    if (nat_table_.Insert(key, next_external_port_)) ++next_external_port_;
  }

  FifoQueue& queue = from_lan ? lan_q_ : wan_q_;
  if (!queue.TryPush(row)) {
    Drop(row, arrival);
    return;
  }
  stats_.RecordOccupancy(arrival, queue.size());
  TryBeginService(packet.at);
}

void NatDevice::TryBeginService(double now) {
  if (busy_) return;

  // Total livelock: the CPU does nothing until the stall ends.
  if (now < full_stall_until_) {
    if (wake_at_ == kNever) {
      wake_at_ = full_stall_until_;
      wake_stamp_ = next_stamp_++;
    }
    return;
  }

  // Strict LAN-first service; the WAN ring additionally starves during a
  // livelock episode.
  std::optional<std::uint32_t> row = lan_q_.Pop();
  if (!row && now >= wan_starved_until_) row = wan_q_.Pop();
  if (!row) {
    // If the WAN queue holds packets but is starved, wake up when the
    // episode ends so they are not stuck forever.
    if (!wan_q_.empty() && wake_at_ == kNever) {
      wake_at_ = wan_starved_until_;
      wake_stamp_ = next_stamp_++;
    }
    return;
  }

  busy_ = true;
  in_service_ = *row;
  completion_at_ = now + engine_.DrawServiceTime();
  completion_stamp_ = next_stamp_++;
}

void NatDevice::Complete() {
  const double now = completion_at_;
  const std::uint32_t row = in_service_;
  busy_ = false;
  completion_at_ = kNever;
  stats_.RecordDelay(now - rows_[row].at);
  const net::PacketRecord record = rows_[row].record;
  const Segment out = FromLan(record) ? Segment::kNatToClients : Segment::kNatToServer;
  stats_.Count(out, now);
  free_rows_.push_back(row);
  if (deliver_) {
    GT_DCHECK_EQ(now, simulator_->Now()) << "NatDevice: delivery away from its own instant";
    deliver_(record, out);
  }
  TryBeginService(now);
}

void NatDevice::Drop(std::uint32_t row, Segment arrival_segment) {
  const double at = rows_[row].at;
  GT_CHECK_EQ(at, simulator_->Now()) << "NatDevice: drop processed away from its own instant";
  stats_.CountDrop(arrival_segment);
  if (trace_ != nullptr) {
    trace_->Instant(arrival_segment == Segment::kClientsToNat ? "nat_drop_incoming"
                                                              : "nat_drop_outgoing",
                    "nat", at);
  }
  const net::PacketRecord record = rows_[row].record;
  free_rows_.push_back(row);
  if (on_loss_) on_loss_(record, arrival_segment);
}

}  // namespace gametrace::router
