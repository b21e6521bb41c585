// Composable stream filters: forward a subset of packets to a wrapped sink.
#pragma once

#include <functional>

#include "net/packet.h"
#include "trace/capture.h"

namespace gametrace::trace {

// Forwards packets matching an arbitrary predicate.
class FilterSink final : public CaptureSink {
 public:
  using Predicate = std::function<bool(const net::PacketRecord&)>;

  // `next` is borrowed and must outlive the filter.
  FilterSink(Predicate predicate, CaptureSink& next);

  // Compacts the passing rows column-wise into a reused scratch (order
  // preserved) and forwards them as one batch; an all-dropped batch is not
  // forwarded.
  void OnColumns(const net::PacketBatch& batch) override;

  [[nodiscard]] std::uint64_t passed() const noexcept { return passed_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  Predicate predicate_;
  CaptureSink* next_;
  std::uint64_t passed_ = 0;
  std::uint64_t dropped_ = 0;
  net::ColumnarBatch column_scratch_;
};

// Common predicates.
[[nodiscard]] FilterSink::Predicate DirectionIs(net::Direction d);
[[nodiscard]] FilterSink::Predicate KindIs(net::PacketKind k);
[[nodiscard]] FilterSink::Predicate TimeWindow(double t_begin, double t_end);
[[nodiscard]] FilterSink::Predicate ClientIs(net::Ipv4Address ip);
[[nodiscard]] FilterSink::Predicate And(FilterSink::Predicate a, FilterSink::Predicate b);

}  // namespace gametrace::trace
