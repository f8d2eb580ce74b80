// Hardware-counter layer: one-time availability probe, deterministic stub
// behaviour when collection is off, synthetic-delta metric accumulation
// (counters only; readers derive the ratios), and RAII span attribution
// against live counters where the host provides any.

#include "obs/perf_counters.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace atmx {
namespace {

using obs::MetricsRegistry;
using obs::PerfCounterId;
using obs::PerfDelta;
using obs::PerfSnapshot;
using obs::TraceRecorder;

// Restores the collection switch even when a test fails mid-way.
struct CollectionGuard {
  ~CollectionGuard() { obs::SetPerfCollectionEnabled(true); }
};

std::uint64_t CounterValue(const std::string& name) {
  return MetricsRegistry::Global().GetCounter(name).Value();
}

double GaugeValue(const std::string& name) {
  return MetricsRegistry::Global().GetGauge(name).Value();
}

TEST(PerfCountersTest, ProbePublishesAvailabilityGauges) {
  const bool available = obs::PerfCountersAvailable();
  EXPECT_EQ(GaugeValue("perf.available"), available ? 1.0 : 0.0);
  // hw_available implies available.
  if (GaugeValue("perf.hw_available") != 0.0) {
    EXPECT_TRUE(available);
  }
  // The probe is idempotent.
  EXPECT_EQ(obs::PerfCountersAvailable(), available);
}

TEST(PerfCountersTest, CounterNamesAreStable) {
  EXPECT_STREQ(obs::PerfCounterName(PerfCounterId::kCycles), "cycles");
  EXPECT_STREQ(obs::PerfCounterName(PerfCounterId::kInstructions),
               "instructions");
  EXPECT_STREQ(obs::PerfCounterName(PerfCounterId::kLlcLoads), "llc_loads");
  EXPECT_STREQ(obs::PerfCounterName(PerfCounterId::kLlcMisses),
               "llc_misses");
  EXPECT_STREQ(obs::PerfCounterName(PerfCounterId::kDtlbMisses),
               "dtlb_misses");
  EXPECT_STREQ(obs::PerfCounterName(PerfCounterId::kTaskClockNs),
               "task_clock_ns");
}

TEST(PerfCountersTest, StubModeIsDeterministic) {
  CollectionGuard guard;
  obs::SetPerfCollectionEnabled(false);
  EXPECT_FALSE(obs::PerfCollectionActive());
  EXPECT_EQ(obs::ThreadPerfCounters(), nullptr);

  const PerfSnapshot snap = obs::PerfBeginSnapshot();
  EXPECT_FALSE(snap.valid);
  EXPECT_EQ(snap.present, 0u);
  for (double v : snap.scaled) EXPECT_EQ(v, 0.0);

  const PerfDelta delta = obs::PerfDeltaSince(snap);
  EXPECT_FALSE(delta.valid);
  EXPECT_EQ(delta.present, 0u);
  for (std::uint64_t v : delta.value) EXPECT_EQ(v, 0u);

  // Invalid deltas are dropped everywhere downstream.
  std::vector<obs::TraceArg> args;
  obs::AppendPerfArgs(delta, &args);
  EXPECT_TRUE(args.empty());
  const std::uint64_t before = CounterValue("kernel.stub_test.cycles");
  obs::AccumulatePerfMetrics("kernel.stub_test", delta);
  EXPECT_EQ(CounterValue("kernel.stub_test.cycles"), before);
}

TEST(PerfCountersTest, DeltaAccessors) {
  PerfDelta delta;
  delta.valid = true;
  delta.present = obs::PerfCounterBit(PerfCounterId::kCycles) |
                  obs::PerfCounterBit(PerfCounterId::kTaskClockNs);
  delta.value[static_cast<std::size_t>(PerfCounterId::kCycles)] = 42;
  EXPECT_TRUE(delta.has(PerfCounterId::kCycles));
  EXPECT_TRUE(delta.has(PerfCounterId::kTaskClockNs));
  EXPECT_FALSE(delta.has(PerfCounterId::kLlcMisses));
  EXPECT_EQ(delta[PerfCounterId::kCycles], 42u);
  EXPECT_EQ(delta[PerfCounterId::kTaskClockNs], 0u);
}

TEST(PerfCountersTest, AccumulateDerivesRateGauges) {
  // Synthetic deltas keep the accumulation deterministic regardless of
  // host counter availability. Unique prefix: registry counters start at
  // zero.
  PerfDelta delta;
  delta.valid = true;
  delta.present = obs::PerfCounterBit(PerfCounterId::kCycles) |
                  obs::PerfCounterBit(PerfCounterId::kInstructions) |
                  obs::PerfCounterBit(PerfCounterId::kLlcLoads) |
                  obs::PerfCounterBit(PerfCounterId::kLlcMisses);
  delta.value[static_cast<std::size_t>(PerfCounterId::kCycles)] = 2000;
  delta.value[static_cast<std::size_t>(PerfCounterId::kInstructions)] = 4000;
  delta.value[static_cast<std::size_t>(PerfCounterId::kLlcLoads)] = 1000;
  delta.value[static_cast<std::size_t>(PerfCounterId::kLlcMisses)] = 250;

  obs::AccumulatePerfMetrics("kernel.rate_test", delta);
  delta.value[static_cast<std::size_t>(PerfCounterId::kLlcMisses)] = 750;
  delta.value[static_cast<std::size_t>(PerfCounterId::kInstructions)] = 0;
  obs::AccumulatePerfMetrics("kernel.rate_test", delta);

  // Each present slot accumulates into its own counter; absent slots
  // register nothing.
  EXPECT_EQ(CounterValue("kernel.rate_test.cycles"), 4000u);
  EXPECT_EQ(CounterValue("kernel.rate_test.instructions"), 4000u);
  EXPECT_EQ(CounterValue("kernel.rate_test.llc_loads"), 2000u);
  EXPECT_EQ(CounterValue("kernel.rate_test.llc_misses"), 1000u);

  // IPC and the LLC miss rate are the reader's division of those
  // counters: the layer registers no derived gauge.
  std::size_t registered = 0;
  for (const obs::MetricSample& sample :
       MetricsRegistry::Global().Snapshot()) {
    if (sample.name.rfind("kernel.rate_test.", 0) != 0) continue;
    ++registered;
    EXPECT_EQ(sample.type, obs::MetricSample::Type::kCounter) << sample.name;
    EXPECT_NE(sample.name, "kernel.rate_test.llc_miss_rate");
    EXPECT_NE(sample.name, "kernel.rate_test.ipc");
  }
  EXPECT_EQ(registered, 4u);
}

TEST(PerfCountersTest, ScopedSpanDegradesToPlainTimingSpan) {
  CollectionGuard guard;
  obs::SetPerfCollectionEnabled(false);
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.Enable();
  {
    obs::ScopedPerfSpan span("test", "degraded_span", "kernel.degraded",
                             {{"tag", 7}});
  }
  recorder.Disable();
  bool found = false;
  for (const obs::TraceEvent& event : recorder.Snapshot()) {
    if (std::string(event.name) != "degraded_span") continue;
    found = true;
    EXPECT_NE(event.args_json.find("\"tag\":7"), std::string::npos);
    // No counter keys sneak into the stub path.
    EXPECT_EQ(event.args_json.find("task_clock_ns"), std::string::npos);
    EXPECT_EQ(event.args_json.find("cycles"), std::string::npos);
  }
  EXPECT_TRUE(found);
  recorder.Clear();
  EXPECT_EQ(CounterValue("kernel.degraded.cycles"), 0u);
  EXPECT_EQ(CounterValue("kernel.degraded.task_clock_ns"), 0u);
}

TEST(PerfCountersTest, LiveCountersAttributeToSpans) {
  if (!obs::PerfCountersAvailable()) {
    GTEST_SKIP() << "perf_event_open unavailable on this host";
  }
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.Enable();
  volatile double sink = 0.0;
  {
    obs::ScopedPerfSpan outer("test", "live_outer", "kernel.live_outer");
    {
      obs::ScopedPerfSpan inner("test", "live_inner", "kernel.live_inner");
      for (int i = 0; i < 2000000; ++i) {
        sink = sink + static_cast<double>(i) * 0.5;
      }
    }
  }
  recorder.Disable();
  (void)sink;

  // The metric side: both prefixes accumulated something, and the outer
  // span (which encloses the inner) is at least as large.
  const std::uint64_t inner_clock =
      CounterValue("kernel.live_inner.task_clock_ns");
  const std::uint64_t outer_clock =
      CounterValue("kernel.live_outer.task_clock_ns");
  EXPECT_GT(inner_clock, 0u);
  EXPECT_GE(outer_clock, inner_clock);

  // The trace side: the span carries at least one counter arg.
  bool inner_found = false;
  for (const obs::TraceEvent& event : recorder.Snapshot()) {
    if (std::string(event.name) != "live_inner") continue;
    inner_found = true;
    EXPECT_NE(event.args_json.find("task_clock_ns"), std::string::npos);
  }
  EXPECT_TRUE(inner_found);
  recorder.Clear();
}

TEST(PerfCountersTest, LiveSnapshotDeltaRoundTrip) {
  if (!obs::PerfCountersAvailable()) {
    GTEST_SKIP() << "perf_event_open unavailable on this host";
  }
  const PerfSnapshot begin = obs::PerfBeginSnapshot();
  ASSERT_TRUE(begin.valid);
  ASSERT_NE(begin.present, 0u);
  volatile double sink = 0.0;
  for (int i = 0; i < 1000000; ++i) sink = sink + static_cast<double>(i);
  (void)sink;
  const PerfDelta delta = obs::PerfDeltaSince(begin);
  ASSERT_TRUE(delta.valid);
  EXPECT_EQ(delta.present, begin.present);
  // Every absent slot stays zero.
  for (int i = 0; i < obs::kNumPerfCounters; ++i) {
    const auto id = static_cast<PerfCounterId>(i);
    if (!delta.has(id)) {
      EXPECT_EQ(delta[id], 0u);
    }
  }
}

}  // namespace
}  // namespace atmx
