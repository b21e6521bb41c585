#include "trace/aggregator.h"

#include <sstream>

#include "core/check.h"
#include "obs/ledger.h"
#include "trace/trace_format.h"

namespace gametrace::trace {

LoadAggregator::LoadAggregator(double interval, double start_time,
                               std::uint32_t wire_overhead_bytes)
    : overhead_(wire_overhead_bytes),
      pkts_in_(start_time, interval),
      pkts_out_(start_time, interval),
      bytes_in_(start_time, interval),
      bytes_out_(start_time, interval) {}

void LoadAggregator::CheckSpan(double t) const {
  const double start = pkts_in_.start_time();
  if (t - start <= kMaxSpanSeconds) return;
  std::ostringstream msg;
  msg.precision(17);
  msg << "LoadAggregator: timestamp " << t << " s is beyond the span cap of "
      << kMaxSpanSeconds << " s past the series start " << start
      << " s (rebase wall-clock timestamps to the capture start)";
  throw TraceError(msg.str());
}

void LoadAggregator::AddSample(double t, bool inbound, double wire) {
  if (inbound) {
    pkts_in_.Add(t, 1.0);
    bytes_in_.Add(t, wire);
  } else {
    pkts_out_.Add(t, 1.0);
    bytes_out_.Add(t, wire);
  }
}

void LoadAggregator::OnColumns(const net::PacketBatch& batch) {
  const obs::LayerScope scope(obs::Layer::kCoreCharacterizeLoad);
  // A tick burst is a long run of same-direction packets whose timestamps
  // land in the same bin; aggregate each run and pay two series updates per
  // run instead of two per packet. Bin membership is decided by the same
  // BinIndex a per-packet Add uses, and counts/wire bytes are integral, so
  // the run sums are bit-identical to the per-packet loop.
  const double start = pkts_in_.start_time();
  const double* ts = batch.timestamps;
  const std::uint8_t* dirs = batch.directions;
  const std::uint16_t* sizes = batch.app_bytes;
  constexpr auto kIn = static_cast<std::uint8_t>(net::Direction::kClientToServer);
  std::size_t i = 0;
  const std::size_t n = batch.count;
  while (i < n) {
    if (ts[i] < start) {  // before-start samples only bump dropped_
      AddSample(ts[i], dirs[i] == kIn, static_cast<double>(net::WireBytes(sizes[i], overhead_)));
      ++i;
      continue;
    }
    const std::uint8_t dir = dirs[i];
    const double t = ts[i];
    const std::size_t bin = pkts_in_.BinIndex(t);
    double count = 1.0;
    double wire = static_cast<double>(net::WireBytes(sizes[i], overhead_));
    ++i;
    // Extend the run while direction and bin hold: exactly one BinIndex
    // division per record.
    while (i < n && dirs[i] == dir && ts[i] >= start && pkts_in_.BinIndex(ts[i]) == bin) {
      count += 1.0;
      wire += static_cast<double>(net::WireBytes(sizes[i], overhead_));
      ++i;
    }
    stats::TimeSeries& pkts = dir == kIn ? pkts_in_ : pkts_out_;
    stats::TimeSeries& bytes = dir == kIn ? bytes_in_ : bytes_out_;
    if (bin >= pkts.size()) CheckSpan(t);  // the series grow to `bin`
    pkts.AddAtBin(bin, count);
    bytes.AddAtBin(bin, wire);
  }
}

void LoadAggregator::ExtendTo(double t_end) {
  CheckSpan(t_end);
  pkts_in_.ExtendTo(t_end);
  pkts_out_.ExtendTo(t_end);
  bytes_in_.ExtendTo(t_end);
  bytes_out_.ExtendTo(t_end);
}

void LoadAggregator::Merge(const LoadAggregator& other) {
  GT_CHECK_EQ(other.overhead_, overhead_) << "LoadAggregator::Merge: wire-overhead mismatch";
  pkts_in_.Merge(other.pkts_in_);
  pkts_out_.Merge(other.pkts_out_);
  bytes_in_.Merge(other.bytes_in_);
  bytes_out_.Merge(other.bytes_out_);
}

stats::TimeSeries LoadAggregator::packets_total() const { return pkts_in_.Plus(pkts_out_); }

stats::TimeSeries LoadAggregator::wire_bytes_total() const { return bytes_in_.Plus(bytes_out_); }

stats::TimeSeries LoadAggregator::packet_rate_total() const { return packets_total().Rate(); }

stats::TimeSeries LoadAggregator::packet_rate_in() const { return pkts_in_.Rate(); }

stats::TimeSeries LoadAggregator::packet_rate_out() const { return pkts_out_.Rate(); }

stats::TimeSeries LoadAggregator::bandwidth_total_bps() const {
  return wire_bytes_total().Rate().Scaled(8.0);
}

stats::TimeSeries LoadAggregator::bandwidth_in_bps() const { return bytes_in_.Rate().Scaled(8.0); }

stats::TimeSeries LoadAggregator::bandwidth_out_bps() const {
  return bytes_out_.Rate().Scaled(8.0);
}

}  // namespace gametrace::trace
