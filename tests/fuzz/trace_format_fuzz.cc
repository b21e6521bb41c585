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
#include "trace/filter.h"
#include "trace/trace_format.h"

namespace {

using gametrace::trace::TraceReader;

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
    // The analysis sizes its time series by the trace's time span, so
    // arbitrary timestamps are windowed to ten minutes first (this also
    // drops NaN); sizes, directions, kinds and endpoints pass unfiltered.
    gametrace::core::CharacterizationOptions options;
    options.vt_window = 60.0;
    gametrace::core::Characterizer characterizer(options);
    gametrace::trace::FilterSink window(gametrace::trace::TimeWindow(0.0, 600.0), characterizer);
    (void)reader.Drain(window);
    (void)characterizer.Finish();
  } catch (const gametrace::trace::TraceError&) {
  }
  return 0;
}
