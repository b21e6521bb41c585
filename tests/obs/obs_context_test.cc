#include "obs/obs.h"

#include <gtest/gtest.h>

#include <thread>

#include "obs/metrics.h"
#include "obs/trace_log.h"

namespace gametrace::obs {
namespace {

TEST(ObsContext, DefaultContextIsAllNull) {
  const ObsContext& ctx = Current();
  EXPECT_EQ(ctx.metrics, nullptr);
  EXPECT_EQ(ctx.trace, nullptr);
  EXPECT_TRUE(ctx.heartbeat);
}

TEST(ObsContext, BindingInstallsAndRestores) {
  MetricsRegistry metrics;
  TraceLog trace(/*pid=*/5);
  {
    const ScopedObsBinding bind({.metrics = &metrics, .trace = &trace, .heartbeat = false});
    EXPECT_EQ(Current().metrics, &metrics);
    EXPECT_EQ(Current().trace, &trace);
    EXPECT_FALSE(Current().heartbeat);
  }
  EXPECT_EQ(Current().metrics, nullptr);
  EXPECT_EQ(Current().trace, nullptr);
}

TEST(ObsContext, BindingsNest) {
  MetricsRegistry outer_metrics;
  MetricsRegistry inner_metrics;
  const ScopedObsBinding outer({.metrics = &outer_metrics, .heartbeat = true});
  {
    const ScopedObsBinding inner({.metrics = &inner_metrics, .heartbeat = false});
    EXPECT_EQ(Current().metrics, &inner_metrics);
    EXPECT_FALSE(Current().heartbeat);
  }
  EXPECT_EQ(Current().metrics, &outer_metrics);
  EXPECT_TRUE(Current().heartbeat);
}

TEST(ObsContext, BindingIsThreadLocal) {
  MetricsRegistry metrics;
  const ScopedObsBinding bind({.metrics = &metrics});
  MetricsRegistry* seen = &metrics;
  std::thread worker([&seen] { seen = Current().metrics; });
  worker.join();
  // A fresh thread starts with the all-null default, not this binding.
  EXPECT_EQ(seen, nullptr);
}

}  // namespace
}  // namespace gametrace::obs
