// ExportSession tests: flag/env parsing, the create-parents-and-fail-loudly
// contract of OpenOutputFile, and the end-to-end write path (all five
// output files, idempotent Finish, inactive sessions binding nothing).
#include "obs/exporter.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/sched_report.h"
#include "obs/trace_log.h"

#include "json_reader.h"

namespace gametrace::obs {
namespace {

using gametrace::testing::JsonReader;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// A fresh directory per test so parent-creation assertions start clean.
std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "exporter_test/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(ExportOptions, TryParseFlagConsumesTheSharedFlags) {
  ExportOptions options;
  EXPECT_TRUE(options.TryParseFlag("--metrics-out=m.json"));
  EXPECT_TRUE(options.TryParseFlag("--trace-out=t.json"));
  EXPECT_TRUE(options.TryParseFlag("--flight-out=f.jsonl"));
  EXPECT_TRUE(options.TryParseFlag("--alerts-out=a.jsonl"));
  EXPECT_TRUE(options.TryParseFlag("--prom-out=p.txt"));
  EXPECT_TRUE(options.TryParseFlag("--sched-metrics-out=sm.json"));
  EXPECT_TRUE(options.TryParseFlag("--sched-report-out=sr.json"));
  EXPECT_TRUE(options.TryParseFlag("--sched-trace-out=st.json"));
  EXPECT_TRUE(options.TryParseFlag("--flight-dump=d.json"));
  EXPECT_TRUE(options.TryParseFlag("--flight-sample=30"));

  EXPECT_EQ(options.metrics_path, "m.json");
  EXPECT_EQ(options.trace_path, "t.json");
  EXPECT_EQ(options.flight_path, "f.jsonl");
  EXPECT_EQ(options.alerts_path, "a.jsonl");
  EXPECT_EQ(options.prom_path, "p.txt");
  EXPECT_EQ(options.sched_metrics_path, "sm.json");
  EXPECT_EQ(options.sched_report_path, "sr.json");
  EXPECT_EQ(options.sched_trace_path, "st.json");
  EXPECT_EQ(options.dump_path, "d.json");
  EXPECT_EQ(options.sample_period_seconds, 30.0);
}

TEST(ExportOptions, SchedulerFlagsActivateAndEnvFills) {
  ExportOptions options;
  EXPECT_FALSE(options.TryParseFlag("--sched-metrics-out="));  // empty value rejected
  EXPECT_FALSE(options.any_output());
  ASSERT_TRUE(options.TryParseFlag("--sched-report-out=r.json"));
  EXPECT_TRUE(options.any_output());  // a sched output alone activates the session

  ::setenv("GAMETRACE_SCHED_METRICS_OUT", "env_sched_metrics.json", 1);
  ::setenv("GAMETRACE_SCHED_TRACE_OUT", "env_sched_trace.json", 1);
  ::setenv("GAMETRACE_SCHED_REPORT_OUT", "env_sched_report.json", 1);
  options.ApplyEnvDefaults();
  EXPECT_EQ(options.sched_metrics_path, "env_sched_metrics.json");
  EXPECT_EQ(options.sched_trace_path, "env_sched_trace.json");
  EXPECT_EQ(options.sched_report_path, "r.json");  // the flag wins over the env
  ::unsetenv("GAMETRACE_SCHED_METRICS_OUT");
  ::unsetenv("GAMETRACE_SCHED_TRACE_OUT");
  ::unsetenv("GAMETRACE_SCHED_REPORT_OUT");
}

TEST(ExportSession, RecordSchedulerWritesTheDiagnosticChannel) {
  const std::string dir = FreshDir("sched");
  ExportOptions options;
  options.sched_metrics_path = dir + "/sched_metrics.json";
  options.sched_report_path = dir + "/sched_report.json";
  options.sched_trace_path = dir + "/sched_trace.json";
  options.prom_path = dir + "/metrics.prom";

  ExportSession session(std::move(options));
  ASSERT_TRUE(session.active());
  EXPECT_FALSE(session.has_scheduler());

  MetricsRegistry sched;
  sched.counter("fleet.worker.0.units_run").Add(4);
  std::vector<SchedWorkerSample> samples(1);
  samples[0].span_ns = 1000;
  samples[0].work_ns = 900;
  const SchedReport report = BuildSchedReport(samples, {});
  TraceLog trace(/*pid=*/0);
  trace.Complete("worker 0", "worker", 0.0, 1e-6);
  session.RecordScheduler(sched, report, trace);
  EXPECT_TRUE(session.has_scheduler());

  EXPECT_EQ(session.Finish(), 0);
  const auto metrics = JsonReader::Parse(ReadFile(dir + "/sched_metrics.json"));
  EXPECT_EQ(metrics.at("counters").at("fleet.worker.0.units_run").number, 4.0);
  const auto parsed_report = JsonReader::Parse(ReadFile(dir + "/sched_report.json"));
  EXPECT_EQ(parsed_report.at("workers").number, 1.0);
  const auto timeline = JsonReader::Parse(ReadFile(dir + "/sched_trace.json"));
  EXPECT_EQ(timeline.at("traceEvents").items.size(), 1u);

  // The scheduler registry rides the Prometheus text as labeled families.
  const std::string prom = ReadFile(dir + "/metrics.prom");
  EXPECT_NE(prom.find("gametrace_fleet_units_run{worker=\"0\"} 4"), std::string::npos) << prom;
}

TEST(ExportSession, SchedFilesAreWrittenEvenWithoutARecordCall) {
  // A requested path is a promise: the file exists (empty surfaces) even
  // when the workload never ran a fleet, so tooling can rely on it.
  const std::string dir = FreshDir("sched_empty");
  ExportOptions options;
  options.sched_report_path = dir + "/sched_report.json";
  ExportSession session(std::move(options));
  ASSERT_TRUE(session.active());
  EXPECT_EQ(session.Finish(), 0);
  EXPECT_TRUE(std::filesystem::exists(dir + "/sched_report.json"));
}

TEST(ExportOptions, TryParseFlagRejectsWhatItCannotUse) {
  ExportOptions options;
  // Unrelated arguments pass through to the front-end's own parsing.
  EXPECT_FALSE(options.TryParseFlag("generate"));
  EXPECT_FALSE(options.TryParseFlag("--seed=42"));
  // Empty or unusable values fail the parse instead of arming an output
  // with nowhere to go.
  EXPECT_FALSE(options.TryParseFlag("--metrics-out="));
  EXPECT_FALSE(options.TryParseFlag("--flight-sample="));
  EXPECT_FALSE(options.TryParseFlag("--flight-sample=abc"));
  EXPECT_FALSE(options.TryParseFlag("--flight-sample=-5"));
  EXPECT_FALSE(options.TryParseFlag("--flight-sample=0"));

  EXPECT_TRUE(options.metrics_path.empty());
  EXPECT_EQ(options.sample_period_seconds, 60.0);
  EXPECT_FALSE(options.any_output());
}

TEST(ExportOptions, AnyOutputIgnoresTheDumpPath) {
  ExportOptions options;
  EXPECT_FALSE(options.any_output());
  options.dump_path = "elsewhere.json";
  EXPECT_FALSE(options.any_output());  // the dump alone activates nothing
  options.prom_path = "p.txt";
  EXPECT_TRUE(options.any_output());
}

TEST(ExportOptions, EnvDefaultsFillOnlyUnsetFields) {
  ::setenv("GAMETRACE_METRICS_OUT", "env_metrics.json", 1);
  ::setenv("GAMETRACE_FLIGHT_SAMPLE", "15", 1);
  ::setenv("GAMETRACE_FLIGHT_DUMP", "env_dump.json", 1);

  ExportOptions options;
  ASSERT_TRUE(options.TryParseFlag("--metrics-out=flag_metrics.json"));
  options.ApplyEnvDefaults();
  // The flag wins; untouched fields pick up the environment.
  EXPECT_EQ(options.metrics_path, "flag_metrics.json");
  EXPECT_EQ(options.sample_period_seconds, 15.0);
  EXPECT_EQ(options.dump_path, "env_dump.json");
  EXPECT_TRUE(options.trace_path.empty());  // no env, no flag

  ::unsetenv("GAMETRACE_METRICS_OUT");
  ::unsetenv("GAMETRACE_FLIGHT_SAMPLE");
  ::unsetenv("GAMETRACE_FLIGHT_DUMP");
}

TEST(OpenOutputFile, CreatesMissingParentDirectories) {
  const std::string dir = FreshDir("parents");
  const std::string path = dir + "/a/b/metrics.json";
  std::ofstream out;
  ASSERT_TRUE(OpenOutputFile(path, out));
  out << "ok";
  out.close();
  EXPECT_EQ(ReadFile(path), "ok");
}

TEST(OpenOutputFile, FailsLoudlyWithThePathInTheMessage) {
  const std::string dir = FreshDir("blocked");
  std::filesystem::create_directories(dir);
  // A regular file where a directory is needed makes create_directories
  // fail deterministically.
  const std::string blocker = dir + "/blocker";
  std::ofstream(blocker) << "in the way";
  const std::string path = blocker + "/sub/out.json";

  std::ofstream out;
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(OpenOutputFile(path, out));
  const std::string message = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(message.find("[gametrace] error: cannot write"), std::string::npos) << message;
  EXPECT_NE(message.find(path), std::string::npos)
      << "error must name the path: " << message;
}

TEST(ExportSession, NoRequestedOutputMeansNoBinding) {
  ExportSession session((ExportOptions()));
  EXPECT_FALSE(session.active());
  EXPECT_EQ(Current().metrics, nullptr);
  EXPECT_EQ(Current().recorder, nullptr);
  EXPECT_EQ(session.Finish(), 0);
}

TEST(ExportSession, WritesEveryRequestedFileAndIsIdempotent) {
  const std::string dir = FreshDir("full");
  ExportOptions options;
  options.metrics_path = dir + "/nested/metrics.json";
  options.trace_path = dir + "/trace.json";
  options.flight_path = dir + "/flight.jsonl";
  options.alerts_path = dir + "/alerts.jsonl";
  options.prom_path = dir + "/metrics.prom";
  options.dump_path = dir + "/flight_dump.json";

  ExportSession session(std::move(options));
  ASSERT_TRUE(session.active());
  // The session binds the ambient context to its own instruments...
  ASSERT_EQ(Current().metrics, &session.metrics());
  ASSERT_EQ(Current().recorder, &session.recorder());
  ASSERT_NE(Current().watchdog, nullptr);
  ASSERT_NE(Current().prom_path, nullptr);

  // ...which a workload observes through Current(), here simulated by one
  // counter bump and one flight sample.
  Current().metrics->counter("server.packets_emitted").Add(99);
  session.recorder().Sample(60.0, session.metrics());

  EXPECT_EQ(session.Finish(), 0);
  EXPECT_EQ(Current().metrics, nullptr);  // unbound after Finish

  const auto metrics = JsonReader::Parse(ReadFile(dir + "/nested/metrics.json"));
  EXPECT_EQ(metrics.at("counters").at("server.packets_emitted").number, 99.0);
  (void)JsonReader::Parse(ReadFile(dir + "/trace.json"));  // valid JSON

  const std::string flight = ReadFile(dir + "/flight.jsonl");
  const auto snapshot = JsonReader::Parse(flight.substr(0, flight.find('\n')));
  EXPECT_EQ(snapshot.at("t").number, 60.0);
  EXPECT_EQ(snapshot.at("metrics").at("counters").at("server.packets_emitted").number, 99.0);

  const std::string prom = ReadFile(dir + "/metrics.prom");
  EXPECT_NE(prom.find("gametrace_server_packets_emitted 99"), std::string::npos);

  // A quiet run alerts nothing but still leaves the (empty) alerts file.
  EXPECT_EQ(ReadFile(dir + "/alerts.jsonl"), "");

  // Finish is idempotent; a second call must not rewrite or fail.
  std::filesystem::remove(dir + "/metrics.prom");
  EXPECT_EQ(session.Finish(), 0);
  EXPECT_FALSE(std::filesystem::exists(dir + "/metrics.prom"));
}

TEST(ExportSession, FinishReportsUnwritableOutputs) {
  const std::string dir = FreshDir("unwritable");
  std::filesystem::create_directories(dir);
  const std::string blocker = dir + "/blocker";
  std::ofstream(blocker) << "in the way";

  const std::string metrics_path = blocker + "/sub/metrics.json";
  ExportOptions options;
  options.metrics_path = metrics_path;
  ExportSession session(std::move(options));
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(session.Finish(), 1);
  const std::string message = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(message.find(metrics_path), std::string::npos) << message;
}

TEST(ExportSession, ArgvConstructorSkipsUnrelatedArguments) {
  const std::string dir = FreshDir("argv");
  const std::string metrics_flag = "--metrics-out=" + dir + "/m.json";
  const char* argv[] = {"bench", "positional", metrics_flag.c_str(), "--other=x"};
  ExportSession session(4, const_cast<char**>(argv));
  ASSERT_TRUE(session.active());
  EXPECT_EQ(session.Finish(), 0);
  EXPECT_TRUE(std::filesystem::exists(dir + "/m.json"));
}

}  // namespace
}  // namespace gametrace::obs
