#include "core/traffic_model.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "sim/random.h"

#include "core/check.h"

namespace gametrace::core {

namespace {
constexpr double kSizeMax = 520.0;
constexpr std::size_t kSizeBins = 520;
}  // namespace

TrafficModelFitter::TrafficModelFitter(double reorder_horizon)
    : horizon_(reorder_horizon),
      sizes_in_(0.0, kSizeMax, kSizeBins),
      sizes_out_(0.0, kSizeMax, kSizeBins) {
  GT_CHECK(reorder_horizon >= 0.0) << "TrafficModelFitter: negative reorder horizon";
}

void TrafficModelFitter::DirectionState::Release(double up_to) {
  while (!pending.empty() && pending.top() <= up_to) {
    const double t = pending.top();
    pending.pop();
    if (last >= 0.0) gaps.Add(t - last);
    last = t;
  }
}

void TrafficModelFitter::DirectionState::Drain() {
  Release(std::numeric_limits<double>::infinity());
}

void TrafficModelFitter::OnColumns(const net::PacketBatch& batch) {
  for (std::size_t i = 0; i < batch.count; ++i) Observe(batch.RecordAt(i));
}

void TrafficModelFitter::Observe(const net::PacketRecord& record) {
  if (first_time_ < 0.0) first_time_ = record.timestamp;
  last_time_ = std::max(last_time_, record.timestamp);
  DirectionState& state =
      record.direction == net::Direction::kClientToServer ? in_ : out_;
  state.pending.push(record.timestamp);
  // Everything older than the disorder horizon is safely ordered.
  state.Release(record.timestamp - horizon_);
  if (record.direction == net::Direction::kClientToServer) {
    sizes_in_.Add(record.app_bytes);
  } else {
    sizes_out_.Add(record.app_bytes);
  }
}

TrafficModel TrafficModelFitter::Fit() {
  in_.Drain();
  out_.Drain();
  GT_CHECK(in_.gaps.count() >= 2 && out_.gaps.count() >= 2)
      << "TrafficModelFitter::Fit: not enough packets";
  TrafficModel model;
  model.fitted_over_seconds = last_time_ - first_time_;

  model.inbound.interarrival_mean = in_.gaps.mean();
  model.inbound.interarrival_cv = in_.gaps.cv();
  model.inbound.packet_rate = in_.gaps.mean() > 0.0 ? 1.0 / in_.gaps.mean() : 0.0;
  model.inbound.sizes = stats::EmpiricalDistribution::FromHistogram(sizes_in_);

  model.outbound.interarrival_mean = out_.gaps.mean();
  model.outbound.interarrival_cv = out_.gaps.cv();
  model.outbound.packet_rate = out_.gaps.mean() > 0.0 ? 1.0 / out_.gaps.mean() : 0.0;
  model.outbound.sizes = stats::EmpiricalDistribution::FromHistogram(sizes_out_);
  return model;
}

TrafficModelGenerator::TrafficModelGenerator(TrafficModel model, std::uint64_t seed)
    : model_(std::move(model)), rng_(seed) {
  GT_CHECK(model_.inbound.interarrival_mean > 0.0 && model_.outbound.interarrival_mean > 0.0)
      << "TrafficModelGenerator: non-positive interarrival mean";
}

std::uint64_t TrafficModelGenerator::Generate(double duration, trace::CaptureSink& sink) {
  // Synthetic endpoints: one aggregate "client side" address per direction.
  const net::Ipv4Address synthetic_client(10, 99, 0, 1);

  std::uint64_t emitted = 0;
  const auto run_direction = [&](const DirectionModel& dm, net::Direction dir) {
    double t = rng_.NextDouble() * dm.interarrival_mean;  // random phase
    while (t < duration) {
      net::PacketRecord record;
      record.timestamp = t;
      record.client_ip = synthetic_client;
      record.client_port = 27005;
      record.direction = dir;
      record.kind = net::PacketKind::kGameUpdate;
      record.app_bytes = static_cast<std::uint16_t>(dm.sizes.Sample(rng_));
      sink.OnPacket(record);
      ++emitted;
      const double gap =
          dm.interarrival_cv < 1e-6
              ? dm.interarrival_mean
              : sim::LognormalFromMoments(rng_, dm.interarrival_mean,
                                          dm.interarrival_cv * dm.interarrival_mean);
      t += std::max(1e-9, gap);
    }
  };
  run_direction(model_.inbound, net::Direction::kClientToServer);
  run_direction(model_.outbound, net::Direction::kServerToClient);
  return emitted;
}

}  // namespace gametrace::core
