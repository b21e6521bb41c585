// libFuzzer smoke harness for the .gtr trace-format parser.
//
// The reader must either parse the bytes or raise TraceError; anything else
// (crash, sanitizer report, contract violation) is a finding. Each input is
// read twice: record by record through Next(), and in chunks through
// Drain() into a Characterizer, whose fused pass indexes per-direction
// tables by the decoded direction byte. Build via the `fuzz` CMake preset;
// CI runs this for 30 s per push from the committed seed corpus in
// tests/fuzz/corpus/trace.
#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "core/characterizer.h"
#include "net/packet_batch.h"
#include "trace/capture.h"
#include "trace/trace_format.h"

namespace {

using gametrace::trace::TraceReader;

// Forwards only the rows stamped in [0, 600) s, compacted into one batch.
// The Characterizer sizes its minute series by the trace's time span, so an
// unwindowed trace spanning up to 2^32 s would allocate gigabytes.
class TenMinuteWindow final : public gametrace::trace::CaptureSink {
 public:
  explicit TenMinuteWindow(gametrace::trace::CaptureSink& next) : next_(&next) {}

  void OnColumns(const gametrace::net::PacketBatch& batch) override {
    kept_.Clear();
    for (std::size_t i = 0; i < batch.count; ++i) {
      if (batch.timestamps[i] < 600.0) kept_.PushFrom(batch, i);
    }
    if (!kept_.empty()) next_->OnColumns(kept_.View());
  }

 private:
  gametrace::trace::CaptureSink* next_;
  gametrace::net::ColumnarBatch kept_;
};

std::unique_ptr<std::istringstream> Stream(const std::uint8_t* data, std::size_t size) {
  return std::make_unique<std::istringstream>(
      std::string(reinterpret_cast<const char*>(data), size));
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  try {
    TraceReader reader(Stream(data, size));
    while (reader.Next()) {
    }
  } catch (const gametrace::trace::TraceError&) {
    // Expected rejection of malformed input.
  }
  try {
    TraceReader reader(Stream(data, size));
    // Timestamps are windowed to ten minutes (the reader already rejects
    // any outside [0, 2^32)); sizes, directions, kinds and endpoints pass
    // unfiltered.
    gametrace::core::CharacterizationOptions options;
    options.vt_window = 60.0;
    gametrace::core::Characterizer characterizer(options);
    TenMinuteWindow window(characterizer);
    (void)reader.Drain(window);
    (void)characterizer.Finish();
  } catch (const gametrace::trace::TraceError&) {
  }
  return 0;
}
