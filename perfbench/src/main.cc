// gt_perfbench: runs one benchmark workload and prints its metrics.
//
//   gt_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--work-dir <dir>] [--spans-out <file>]
//                [--git-sha <sha>] [--git-dirty <0|1|unknown>]
//
// Standard output ends with two JSON lines: the provenance manifest with
// every check's outcome, then the result object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones, with --trace 1 the per-layer ones. A traced run
// also writes its span ledger to --spans-out. perfbench/run.py builds this
// binary and is the usual way to run it.
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "obs/metrics.h"
#include "obs/obs.h"
#include "workloads.h"

namespace {

namespace gt = gametrace;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

struct Args {
  perfbench::RunOptions run;
  std::string spans_out;
  std::string git_sha = "unknown";
  std::string git_dirty = "unknown";
};

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "gt_perfbench: " << error << "\n"
            << "usage: gt_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " [--work-dir <dir>] [--spans-out <file>] [--git-sha <sha>]"
               " [--git-dirty <flag>]\n";
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.run.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.run.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.run.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.run.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.run.work_dir = value;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--git-dirty") {
      args.git_dirty = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (args.run.seconds <= 0.0) Usage("--seconds must be positive");
  return args;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      unsigned regs[4] = {};
      __get_cpuid(0x80000002u + leaf, &regs[0], &regs[1], &regs[2], &regs[3]);
      std::memcpy(brand + 16 * leaf, regs, sizeof(regs));
    }
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

void Field(std::string& out, const char* key, const std::string& value) {
  gt::obs::AppendJsonString(out, key);
  out += ':';
  gt::obs::AppendJsonString(out, value);
  out += ',';
}

std::string Manifest(const Args& args, const perfbench::RunOutcome& outcome) {
  std::string out = "{";
  Field(out, "git_sha", args.git_sha);
  Field(out, "git_dirty", args.git_dirty);
  Field(out, "build_type", PERFBENCH_BUILD_TYPE);
  Field(out, "compiler", PERFBENCH_COMPILER);
  Field(out, "cxx_flags", PERFBENCH_CXX_FLAGS);
  Field(out, "cpu_model", CpuModel());
  out += "\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) + ",";
  Field(out, "workload", args.run.workload);
  out += "\"seed\":" + std::to_string(args.run.seed) + ",";
  out += "\"seconds\":";
  gt::obs::AppendJsonNumber(out, args.run.seconds);
  out += ",\"trace\":";
  out += args.run.trace ? "1" : "0";
  out += ",\"params\":" + outcome.params_json + ",\"rep_wall_ms\":[";
  for (std::size_t i = 0; i < outcome.rep_wall_ms.size(); ++i) {
    if (i > 0) out += ',';
    gt::obs::AppendJsonNumber(out, outcome.rep_wall_ms[i]);
  }
  out += "]}";
  return out;
}

std::string Checks(const perfbench::RunOutcome& outcome) {
  std::string out = "[";
  for (const perfbench::Check& check : outcome.checks.checks()) {
    if (out.size() > 1) out += ',';
    out += "{";
    Field(out, "name", check.name);
    Field(out, "detail", check.detail);
    out += std::string("\"pass\":") + (check.pass ? "true" : "false") + "}";
  }
  return out + "]";
}

std::string Spans(const perfbench::SpanLog& ledger) {
  const std::vector<std::int64_t> self = ledger.SelfTimes();
  std::string out = "[";
  for (std::size_t i = 0; i < ledger.spans().size(); ++i) {
    const perfbench::Span& span = ledger.spans()[i];
    if (i > 0) out += ",\n";
    out += "{";
    Field(out, "name", span.name);
    out += "\"parent\":" + std::to_string(span.parent) +
           ",\"calls\":" + std::to_string(span.calls) +
           ",\"total_ns\":" + std::to_string(span.total_ns) +
           ",\"self_ns\":" + std::to_string(self[i]) + "}";
  }
  return out + "]";
}

std::string Result(const perfbench::RunOutcome& outcome, bool trace) {
  const auto& specs = trace ? perfbench::PerLayerMetrics() : perfbench::EndToEndMetrics();
  std::string out = "{\"correct\":";
  out += outcome.checks.all_pass() && outcome.failed == 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(outcome.attempted);
  out += ",\"failed\":" + std::to_string(outcome.failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const perfbench::MetricSpec& spec : specs) {
    if (!first) out += ',';
    first = false;
    const auto it = outcome.metrics.find(spec.name);
    gt::obs::AppendJsonString(out, spec.name);
    out += ":{\"value\":";
    gt::obs::AppendJsonNumber(out, it != outcome.metrics.end() ? it->second : 0.0);
    out += ",\"unit\":";
    gt::obs::AppendJsonString(out, spec.unit);
    out += '}';
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  // No stderr heartbeat from the library's long runs.
  const gt::obs::ScopedObsBinding quiet({.heartbeat = false});
  perfbench::RunOutcome outcome;
  try {
    outcome = perfbench::RunWorkload(args.run);
  } catch (const std::exception& e) {
    std::cerr << "gt_perfbench: " << args.run.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  for (const perfbench::Check& check : outcome.checks.checks()) {
    if (!check.pass) {
      std::cerr << "gt_perfbench: check failed: " << check.name << " (" << check.detail << ")\n";
    }
  }
  const std::string manifest = Manifest(args, outcome);
  if (args.run.trace && !args.spans_out.empty()) {
    std::ofstream spans(args.spans_out);
    spans << "{\"manifest\":" << manifest << ",\n\"spans\":" << Spans(outcome.ledger) << "}\n";
    if (!spans) {
      std::cerr << "gt_perfbench: cannot write " << args.spans_out << "\n";
      return 1;
    }
  }
  std::cout << "{\"manifest\":" << manifest << ",\"checks\":" << Checks(outcome) << "}\n"
            << Result(outcome, args.run.trace) << std::endl;
  return 0;
}
