#include "trace/summary.h"

#include <algorithm>
#include <stdexcept>

#include "core/check.h"

namespace gametrace::trace {

TraceSummary::TraceSummary(std::uint32_t wire_overhead_bytes) : overhead_(wire_overhead_bytes) {}

void TraceSummary::OnColumns(const net::PacketBatch& batch) {
  Pass pass(*this, batch);
  for (std::size_t i = 0; i < batch.count; ++i) {
    pass.Add(batch.directions[i], batch.app_bytes[i], batch.kinds[i], batch.client_ips[i]);
  }
  pass.Commit();
}

void TraceSummary::AddHandshake(std::uint8_t kind, std::uint32_t client_ip) {
  switch (static_cast<net::PacketKind>(kind)) {
    case net::PacketKind::kConnectRequest:
      ++attempts_;
      attempting_clients_.insert(client_ip);
      break;
    case net::PacketKind::kConnectAccept:
      ++established_;
      establishing_clients_.insert(client_ip);
      break;
    default:
      ++refused_;
      break;
  }
}

void TraceSummary::Merge(const TraceSummary& other) {
  GT_CHECK_EQ(other.overhead_, overhead_) << "TraceSummary::Merge: wire-overhead mismatch";
  packets_in_ += other.packets_in_;
  packets_out_ += other.packets_out_;
  app_bytes_in_ += other.app_bytes_in_;
  app_bytes_out_ += other.app_bytes_out_;
  size_in_.Merge(other.size_in_);
  size_out_.Merge(other.size_out_);
  attempts_ += other.attempts_;
  established_ += other.established_;
  refused_ += other.refused_;
  // gt-lint: allow(nondet-iteration) set-union insert; the resulting set is order-independent
  attempting_clients_.insert(other.attempting_clients_.begin(),
                             other.attempting_clients_.end());
  // gt-lint: allow(nondet-iteration) set-union insert; the resulting set is order-independent
  establishing_clients_.insert(other.establishing_clients_.begin(),
                               other.establishing_clients_.end());
  if (other.first_time_ >= 0.0) {
    first_time_ = first_time_ < 0.0 ? other.first_time_
                                    : std::min(first_time_, other.first_time_);
    last_time_ = std::max(last_time_, other.last_time_);
  }
  duration_override_ = std::max(duration_override_, other.duration_override_);
}

std::uint64_t TraceSummary::wire_bytes_in() const noexcept {
  return app_bytes_in_ + packets_in_ * overhead_;
}

std::uint64_t TraceSummary::wire_bytes_out() const noexcept {
  return app_bytes_out_ + packets_out_ * overhead_;
}

std::uint64_t TraceSummary::wire_bytes_total() const noexcept {
  return wire_bytes_in() + wire_bytes_out();
}

double TraceSummary::duration() const noexcept {
  if (duration_override_ > 0.0) return duration_override_;
  if (first_time_ < 0.0) return 0.0;
  return last_time_ - first_time_;
}

double TraceSummary::mean_packet_load() const noexcept {
  const double d = duration();
  return d > 0.0 ? static_cast<double>(total_packets()) / d : 0.0;
}

double TraceSummary::mean_packet_load_in() const noexcept {
  const double d = duration();
  return d > 0.0 ? static_cast<double>(packets_in_) / d : 0.0;
}

double TraceSummary::mean_packet_load_out() const noexcept {
  const double d = duration();
  return d > 0.0 ? static_cast<double>(packets_out_) / d : 0.0;
}

double TraceSummary::mean_bandwidth_bps() const noexcept {
  return net::BitsPerSecond(static_cast<double>(wire_bytes_total()), duration());
}

double TraceSummary::mean_bandwidth_in_bps() const noexcept {
  return net::BitsPerSecond(static_cast<double>(wire_bytes_in()), duration());
}

double TraceSummary::mean_bandwidth_out_bps() const noexcept {
  return net::BitsPerSecond(static_cast<double>(wire_bytes_out()), duration());
}

double TraceSummary::mean_packet_size() const noexcept {
  const std::uint64_t n = total_packets();
  return n > 0 ? static_cast<double>(app_bytes_total()) / static_cast<double>(n) : 0.0;
}

double TraceSummary::mean_packet_size_in() const noexcept { return size_in_.mean(); }

double TraceSummary::mean_packet_size_out() const noexcept { return size_out_.mean(); }

}  // namespace gametrace::trace
