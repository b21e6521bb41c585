#include "trace/filter.h"

#include <stdexcept>
#include <utility>

#include "core/check.h"

namespace gametrace::trace {

FilterSink::FilterSink(Predicate predicate, CaptureSink& next)
    : predicate_(std::move(predicate)), next_(&next) {
  GT_CHECK(predicate_) << "FilterSink: empty predicate";
}

void FilterSink::OnColumns(const net::PacketBatch& batch) {
  // The predicate sees full records (it is an arbitrary std::function over
  // PacketRecord), so each candidate is reconstructed from the columns; the
  // survivors are compacted column-wise.
  column_scratch_.Clear();
  const std::size_t n = batch.count;
  for (std::size_t i = 0; i < n; ++i) {
    if (predicate_(batch.RecordAt(i))) {
      column_scratch_.PushFrom(batch, i);
    } else {
      ++dropped_;
    }
  }
  passed_ += column_scratch_.size();
  if (!column_scratch_.empty()) next_->OnColumns(column_scratch_.View());
}

FilterSink::Predicate DirectionIs(net::Direction d) {
  return [d](const net::PacketRecord& r) { return r.direction == d; };
}

FilterSink::Predicate KindIs(net::PacketKind k) {
  return [k](const net::PacketRecord& r) { return r.kind == k; };
}

FilterSink::Predicate TimeWindow(double t_begin, double t_end) {
  return [t_begin, t_end](const net::PacketRecord& r) {
    return r.timestamp >= t_begin && r.timestamp < t_end;
  };
}

FilterSink::Predicate ClientIs(net::Ipv4Address ip) {
  return [ip](const net::PacketRecord& r) { return r.client_ip == ip; };
}

FilterSink::Predicate And(FilterSink::Predicate a, FilterSink::Predicate b) {
  return [a = std::move(a), b = std::move(b)](const net::PacketRecord& r) {
    return a(r) && b(r);
  };
}

}  // namespace gametrace::trace
