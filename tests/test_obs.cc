// Observability layer: metrics-registry semantics, histogram bucketing,
// trace recording + JSON well-formedness, the audit ledger as decision
// stream (retention, decision table), and the invariant that "kernel"
// trace spans and ledger repr records match the per-variant invocation
// counters of a real ATMULT execution.

#include "obs/obs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "estimate/density_estimator.h"
#include "gen/synthetic.h"
#include "kernels/kernel_dispatch.h"
#include "obs/audit_ledger.h"
#include "obs/json_util.h"
#include "ops/atmult.h"
#include "ops/explain.h"
#include "tests/test_util.h"
#include "tile/partitioner.h"

namespace atmx {
namespace {

using atmx::testing::RandomCoo;
using obs::AuditLedger;
using obs::AuditLedgerDoc;
using obs::MetricsRegistry;
using obs::TraceRecorder;

AtmConfig TestConfig() {
  AtmConfig config;
  config.b_atomic = 16;
  config.llc_bytes = 1 << 20;
  config.num_sockets = 2;
  config.cores_per_socket = 2;
  return config;
}

// --- Metrics registry. ----------------------------------------------------

TEST(MetricsTest, CounterAccumulates) {
  obs::Counter& c = MetricsRegistry::Global().GetCounter("test.counter.a");
  c.Reset();
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(MetricsTest, GaugeKeepsLastValue) {
  obs::Gauge& g = MetricsRegistry::Global().GetGauge("test.gauge.a");
  g.Set(1.5);
  g.Set(-2.25);
  EXPECT_DOUBLE_EQ(g.Value(), -2.25);
}

TEST(MetricsTest, RegistryReturnsSameInstance) {
  obs::Counter& a = MetricsRegistry::Global().GetCounter("test.counter.same");
  obs::Counter& b = MetricsRegistry::Global().GetCounter("test.counter.same");
  EXPECT_EQ(&a, &b);
}

TEST(MetricsTest, HistogramBucketing) {
  obs::Histogram& h = MetricsRegistry::Global().GetHistogram(
      "test.hist.buckets", {1.0, 10.0, 100.0});
  h.Reset();
  h.Observe(0.5);    // <= 1.0
  h.Observe(1.0);    // <= 1.0 (inclusive upper bound)
  h.Observe(5.0);    // <= 10.0
  h.Observe(1000.0); // overflow
  const std::vector<std::uint64_t> buckets = h.BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 0u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(h.TotalCount(), 4u);
  EXPECT_DOUBLE_EQ(h.Sum(), 1006.5);
  EXPECT_DOUBLE_EQ(h.Mean(), 1006.5 / 4.0);
}

TEST(MetricsTest, MacrosUpdateRegistry) {
  MetricsRegistry::Global().GetCounter("test.macro.counter").Reset();
  ATMX_COUNTER_INC("test.macro.counter");
  ATMX_COUNTER_ADD("test.macro.counter", 9);
  EXPECT_EQ(
      MetricsRegistry::Global().GetCounter("test.macro.counter").Value(),
      10u);
  ATMX_GAUGE_SET("test.macro.gauge", 3.5);
  EXPECT_DOUBLE_EQ(
      MetricsRegistry::Global().GetGauge("test.macro.gauge").Value(), 3.5);
  ATMX_HISTOGRAM_OBSERVE_WITH("test.macro.hist", 0.02, 0.01, 0.1, 1.0);
  EXPECT_EQ(
      MetricsRegistry::Global().GetHistogram("test.macro.hist").TotalCount(),
      1u);
}

TEST(MetricsTest, SnapshotIsSortedAndJsonWellFormed) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.snap.b").Add(2);
  reg.GetCounter("test.snap.a").Add(1);
  reg.GetGauge("test.snap.g").Set(0.5);
  const std::vector<obs::MetricSample> samples = reg.Snapshot();
  ASSERT_GE(samples.size(), 3u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LT(samples[i - 1].name, samples[i].name);
  }
  std::string error;
  EXPECT_TRUE(obs::JsonWellFormed(reg.ToJson(), &error)) << error;
  EXPECT_FALSE(reg.ToTable().empty());
}

TEST(MetricsTest, ConcurrentUpdatesDontLose) {
  obs::Counter& c =
      MetricsRegistry::Global().GetCounter("test.counter.threads");
  c.Reset();
  obs::Histogram& h = MetricsRegistry::Global().GetHistogram(
      "test.hist.threads", {0.5});
  h.Reset();
  constexpr int kThreads = 4;
  constexpr int kIter = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIter; ++i) {
        c.Increment();
        h.Observe(1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), static_cast<std::uint64_t>(kThreads) * kIter);
  EXPECT_EQ(h.TotalCount(), static_cast<std::uint64_t>(kThreads) * kIter);
  EXPECT_DOUBLE_EQ(h.Sum(), static_cast<double>(kThreads) * kIter);
}

// --- Trace recorder. ------------------------------------------------------

TEST(TraceTest, DisabledRecordsNothing) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Disable();
  rec.Clear();
  { ATMX_TRACE_SPAN("test", "disabled_span"); }
  rec.RecordInstant("test", "disabled_instant");
  EXPECT_EQ(rec.EventCount(), 0u);
}

TEST(TraceTest, SpansProduceWellFormedJson) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Clear();
  rec.Enable();
  {
    ATMX_TRACE_SPAN_ARGS("test", "outer", {"ti", 3}, {"rho", 0.25},
                         {"kind", "dense"});
    ATMX_TRACE_SPAN("test", "inner");
  }
  ATMX_TRACE_INSTANT("test", "marker \"quoted\"\n");
  rec.Disable();
  EXPECT_EQ(rec.EventCount(), 3u);

  const std::string json = rec.ToJson();
  std::string error;
  EXPECT_TRUE(obs::JsonWellFormed(json, &error)) << error;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // The name's quote and newline are escaped inside the JSON string (a
  // raw control character in a string would fail JsonWellFormed above).
  EXPECT_NE(json.find("marker \\\"quoted\\\""), std::string::npos);
  rec.Clear();
}

TEST(TraceTest, SnapshotSortedByStartAndClearable) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Clear();
  rec.Enable();
  for (int i = 0; i < 5; ++i) {
    ATMX_TRACE_SPAN("test", "ordered");
  }
  rec.Disable();
  const std::vector<obs::TraceEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);
  }
  rec.Clear();
  EXPECT_EQ(rec.EventCount(), 0u);
}

TEST(TraceTest, ThreadedRecordingKeepsAllEvents) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Clear();
  rec.Enable();
  constexpr int kThreads = 4;
  constexpr int kSpans = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) {
        ATMX_TRACE_SPAN("test", "mt_span");
      }
    });
  }
  for (auto& t : threads) t.join();
  rec.Disable();
  EXPECT_EQ(rec.EventCount(),
            static_cast<std::size_t>(kThreads) * kSpans);
  std::string error;
  EXPECT_TRUE(obs::JsonWellFormed(rec.ToJson(), &error)) << error;
  rec.Clear();
}

// --- JSON validator sanity. -----------------------------------------------

TEST(JsonUtilTest, AcceptsValidRejectsInvalid) {
  std::string error;
  EXPECT_TRUE(obs::JsonWellFormed("{\"a\":[1,2.5,-3e2,true,null,\"s\"]}",
                                  &error))
      << error;
  EXPECT_TRUE(obs::ParseJson("{\"a\":\"\\u00e9\"}").ok());
  // Both entry points run the same parser: every input is checked
  // through each of them.
  const std::string too_deep = std::string(300, '[') + std::string(300, ']');
  for (const std::string& bad :
       {std::string("{\"a\":}"), std::string("[1,2,]"),
        std::string("{} trailing"), std::string("\"\\u12g4\""),
        std::string("\"a\tb\""), too_deep, std::string("[1] [2]")}) {
    error.clear();
    EXPECT_FALSE(obs::JsonWellFormed(bad, &error)) << bad;
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(obs::ParseJson(bad).ok()) << bad;
  }
  EXPECT_TRUE(obs::JsonWellFormed(std::string(256, '[') +
                                  std::string(256, ']')));
  EXPECT_EQ(obs::EscapeJson("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

// --- Audit ledger as the decision stream. --------------------------------

TEST(AuditLedgerTest, DisabledByDefaultAndRecords) {
  AuditLedger& ledger = AuditLedger::Global();
  EXPECT_FALSE(ledger.enabled());
  ledger.Clear();
  const AtmConfig config = TestConfig();
  const ATMatrix a = PartitionToAtm(RandomCoo(64, 64, 400, 5), config);
  AtMult op(config);
  (void)op.Multiply(a, a);
  EXPECT_TRUE(ledger.Snapshot().empty());

  // Stored sparse x sparse, chosen dense x sparse -> dense: A converts.
  ReprAuditRecord rec;
  rec.op = ledger.NextOpId();
  rec.ti = 1;
  rec.tj = 2;
  rec.kernel = static_cast<int>(KernelType::kDSD);
  ledger.RecordRepr(rec);
  // The same choice served by a cached conversion is not a conversion.
  rec.a_cached = true;
  ledger.RecordRepr(rec);
  const AuditLedgerDoc doc = ledger.Snapshot();
  ASSERT_EQ(doc.repr.size(), 2u);
  EXPECT_EQ(doc.repr[0].ti, 1);
  EXPECT_EQ(doc.repr[0].tj, 2);
  EXPECT_EQ(doc.repr[0].kernel, static_cast<int>(KernelType::kDSD));
  EXPECT_TRUE(doc.repr[0].a_converted());
  EXPECT_FALSE(doc.repr[0].b_converted());
  EXPECT_FALSE(doc.repr[1].a_converted());

  std::string error;
  EXPECT_TRUE(obs::JsonWellFormed(ledger.ToJson(), &error)) << error;
  const std::string table = FormatDecisionLog(doc.repr);
  EXPECT_NE(table.find("2 decisions, 1 JIT conversions"), std::string::npos)
      << table;
  ledger.Clear();
}

TEST(AuditLedgerTest, CapDropsOldestKeepsNewest) {
  AuditLedger& ledger = AuditLedger::Global();
  ledger.Clear();
  constexpr std::size_t kCap = AuditLedger::kMaxRecordsPerClass;
  constexpr std::size_t kExtra = 6;
  for (std::size_t i = 0; i < kCap + kExtra; ++i) {
    ReprAuditRecord rec;
    rec.ti = static_cast<index_t>(i);
    ledger.RecordRepr(rec);
  }
  const AuditLedgerDoc doc = ledger.Snapshot();
  ASSERT_EQ(doc.repr.size(), kCap);
  EXPECT_EQ(doc.repr.front().ti, static_cast<index_t>(kExtra));
  EXPECT_EQ(doc.repr.back().ti, static_cast<index_t>(kCap + kExtra - 1));
  EXPECT_EQ(doc.dropped, kExtra);

  // The crash tail: the newest records, oldest first.
  const std::deque<ReprAuditRecord> tail = ledger.NewestRepr(4);
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.front().ti, static_cast<index_t>(kCap + kExtra - 4));
  EXPECT_EQ(tail.back().ti, static_cast<index_t>(kCap + kExtra - 1));
  EXPECT_EQ(ledger.NewestRepr(2 * kCap).size(), kCap);
  ledger.Clear();
}

// --- End-to-end: trace + audit of a real ATMULT. --------------------------

TEST(ObsIntegrationTest, SpanCountMatchesKernelCounters) {
  const AtmConfig base = TestConfig();
  CooMatrix a_coo = GenerateDiagonalDenseBlocks(128, 4, 24, 0.9, 500, 21);
  CooMatrix b_coo = RandomCoo(128, 128, 1200, 22);
  ATMatrix a = PartitionToAtm(a_coo, base);
  ATMatrix b = PartitionToAtm(b_coo, base);

  // The ledger records every prepared pair whether or not the optimizer
  // had an estimate or could convert.
  AtmConfig no_estimate = base;
  no_estimate.density_estimation = false;
  AtmConfig no_conversion = base;
  no_conversion.dynamic_conversion = false;
  for (const AtmConfig& config : {base, no_estimate, no_conversion}) {
    SCOPED_TRACE(::testing::Message()
                 << "density_estimation=" << config.density_estimation
                 << " dynamic_conversion=" << config.dynamic_conversion);
    std::uint64_t before[kNumKernelTypes];
    for (int v = 0; v < kNumKernelTypes; ++v) {
      before[v] = MetricsRegistry::Global()
                      .GetCounter(KernelMetricName(static_cast<KernelType>(v)))
                      .Value();
    }

    TraceRecorder& rec = TraceRecorder::Global();
    rec.Clear();
    rec.Enable();
    AuditLedger& ledger = AuditLedger::Global();
    ledger.Clear();
    ledger.SetEnabled(true);

    AtMult op(config);
    AtMultStats stats;
    ATMatrix c = op.Multiply(a, b, &stats);

    rec.Disable();
    ledger.SetEnabled(false);
    ASSERT_GT(stats.pair_multiplications, 0);
    EXPECT_GT(c.nnz(), 0);

    // Per-operation stats: variant counts sum to the pair count.
    EXPECT_EQ(stats.TotalKernelInvocations(), stats.pair_multiplications);

    // Registry counters advanced by exactly this operation's counts.
    index_t registry_delta = 0;
    for (int v = 0; v < kNumKernelTypes; ++v) {
      const std::uint64_t after =
          MetricsRegistry::Global()
              .GetCounter(KernelMetricName(static_cast<KernelType>(v)))
              .Value();
      EXPECT_EQ(after - before[v],
                static_cast<std::uint64_t>(stats.kernel_invocations[v]))
          << KernelMetricName(static_cast<KernelType>(v));
      registry_delta += static_cast<index_t>(after - before[v]);
    }
    EXPECT_EQ(registry_delta, stats.pair_multiplications);

    // One "kernel"-category span per tile-pair multiplication.
    index_t kernel_spans = 0;
    std::set<std::string> span_names;
    for (const obs::TraceEvent& e : rec.Snapshot()) {
      if (std::string(e.category) == "kernel") {
        ++kernel_spans;
        span_names.insert(e.name);
      }
    }
    EXPECT_EQ(kernel_spans, stats.pair_multiplications);
    for (const std::string& name : span_names) {
      bool known = false;
      for (int v = 0; v < kNumKernelTypes; ++v) {
        if (name == KernelTypeName(static_cast<KernelType>(v))) known = true;
      }
      EXPECT_TRUE(known) << name;
    }

    // The ledger saw every decided pair of this operation.
    const AuditLedgerDoc doc = ledger.Snapshot();
    EXPECT_EQ(static_cast<index_t>(doc.repr.size()),
              stats.pair_multiplications);
    for (const ReprAuditRecord& r : doc.repr) {
      EXPECT_GE(r.rho_a, 0.0);
      EXPECT_GE(r.rho_b, 0.0);
      EXPECT_EQ(r.rho_c_pred >= 0.0, config.density_estimation);
      EXPECT_EQ(r.allow_conversion, config.dynamic_conversion);
    }

    std::string error;
    EXPECT_TRUE(obs::JsonWellFormed(rec.ToJson(), &error)) << error;
    rec.Clear();
    ledger.Clear();
  }
}

// One Multiply adds one observation per result block to
// atmult.estimator.abs_error: |estimate - actual| of the operator's
// up-front estimate, in exactly the buckets the test computes itself.
TEST(ObsIntegrationTest, EstimatorErrorHistogramMatchesBlockErrors) {
  AtmConfig config = TestConfig();
  const ATMatrix a = PartitionToAtm(RandomCoo(160, 96, 1500, 41), config);
  const ATMatrix b = PartitionToAtm(RandomCoo(96, 128, 1200, 42), config);
  const std::vector<double> bounds = {0.001, 0.005, 0.01, 0.05,
                                      0.1,   0.25,  0.5,  1.0};
  obs::Histogram& h =
      MetricsRegistry::Global().GetHistogram("atmult.estimator.abs_error",
                                             bounds);
  ASSERT_EQ(h.bounds(), bounds);
  const std::vector<std::uint64_t> before = h.BucketCounts();
  const std::uint64_t count_before = h.TotalCount();

  const ATMatrix c = AtMult(config).Multiply(a, b);

  const DensityMap estimate =
      EstimateProductDensity(a.density_map(), b.density_map());
  const DensityMap& actual = c.density_map();
  std::vector<std::uint64_t> expected(bounds.size() + 1, 0);
  for (index_t bi = 0; bi < actual.grid_rows(); ++bi) {
    for (index_t bj = 0; bj < actual.grid_cols(); ++bj) {
      const double err = std::abs(estimate.At(bi, bj) - actual.At(bi, bj));
      ++expected[static_cast<std::size_t>(
          std::lower_bound(bounds.begin(), bounds.end(), err) -
          bounds.begin())];
    }
  }
  const std::vector<std::uint64_t> after = h.BucketCounts();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(after[i] - before[i], expected[i]) << "bucket " << i;
  }
  EXPECT_EQ(h.TotalCount() - count_before,
            static_cast<std::uint64_t>(actual.grid_rows() *
                                       actual.grid_cols()));
}

// --- Memory tracker. ------------------------------------------------------

TEST(MemTrackerTest, HighWaterIsMonotonicOverAllocFreeCycles) {
  obs::MemTracker& tracker = obs::MemTracker::Global();
  tracker.ResetForTesting();
  EXPECT_EQ(tracker.current_bytes(), 0u);
  EXPECT_EQ(tracker.high_water_bytes(), 0u);

  tracker.RecordAlloc(1000);
  EXPECT_EQ(tracker.current_bytes(), 1000u);
  EXPECT_EQ(tracker.high_water_bytes(), 1000u);

  tracker.RecordAlloc(500);
  EXPECT_EQ(tracker.high_water_bytes(), 1500u);

  // Freeing lowers current but never the high-water mark.
  tracker.RecordFree(1200);
  EXPECT_EQ(tracker.current_bytes(), 300u);
  EXPECT_EQ(tracker.high_water_bytes(), 1500u);

  tracker.RecordAlloc(400);
  EXPECT_EQ(tracker.current_bytes(), 700u);
  EXPECT_EQ(tracker.high_water_bytes(), 1500u);  // below the old peak

  tracker.RecordAlloc(1000);
  EXPECT_EQ(tracker.high_water_bytes(), 1700u);  // new peak
  tracker.ResetForTesting();
}

TEST(MemTrackerTest, FreeClampsAtZero) {
  obs::MemTracker& tracker = obs::MemTracker::Global();
  tracker.ResetForTesting();
  tracker.RecordAlloc(100);
  tracker.RecordFree(1000);  // over-free must not wrap around
  EXPECT_EQ(tracker.current_bytes(), 0u);
  EXPECT_EQ(tracker.high_water_bytes(), 100u);
  tracker.ResetForTesting();
}

TEST(ObsIntegrationTest, AtmultPublishesMemoryGauges) {
  obs::MemTracker& tracker = obs::MemTracker::Global();
  tracker.ResetForTesting();

  AtmConfig config = TestConfig();
  CooMatrix a_coo = GenerateDiagonalDenseBlocks(128, 4, 24, 0.9, 500, 31);
  ATMatrix a = PartitionToAtm(a_coo, config);
  AtMult op(config);
  ATMatrix c = op.Multiply(a, a);
  ASSERT_GT(c.nnz(), 0);

  // The operation tracked its result tiles: the high-water mark covers at
  // least the result payload, and the op released its contribution at the
  // end (conversion-cache bytes die with the cache).
  EXPECT_GE(tracker.high_water_bytes(), c.MemoryBytes());
  EXPECT_EQ(tracker.current_bytes(), 0u);

  // The water-level projection and the result-size gauge are published,
  // so predicted-vs-actual is observable after every op.
  const double predicted =
      MetricsRegistry::Global()
          .GetGauge("atmult.waterlevel.predicted_bytes")
          .Value();
  const double result_bytes =
      MetricsRegistry::Global().GetGauge("atmult.result_bytes").Value();
  EXPECT_GT(predicted, 0.0);
  EXPECT_DOUBLE_EQ(result_bytes, static_cast<double>(c.MemoryBytes()));
  EXPECT_GT(MetricsRegistry::Global().GetGauge("mem.high_water_bytes").Value(),
            0.0);
  tracker.ResetForTesting();
}

}  // namespace
}  // namespace atmx
