// TSan-targeted stress for the observability layer's lock protocols: the
// MetricsRegistry registration map (mutex-guarded) under concurrent
// first-use registration and snapshotting, the TraceRecorder's
// registry-then-shard two-lock nesting (append vs Snapshot/Clear — the
// exact interleaving the LOCK ORDER comment in obs/trace.h governs), and
// the AuditLedger's capped per-class record store. Assertions are simple
// totals; the point is that ThreadSanitizer sees every edge of each
// protocol under schedules a single-threaded unit test never produces.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/audit_ledger.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace atmx {
namespace {

using obs::AuditLedger;
using obs::MetricsRegistry;
using obs::TraceRecorder;

TEST(ObsRaceStressTest, MetricsRegistrationAndUpdatesVsSnapshot) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  constexpr int kWriters = 4;
  constexpr int kRounds = 300;

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    // Snapshot and the renderers walk all three maps under the registry
    // mutex while writers are concurrently inserting into them.
    while (!stop.load(std::memory_order_relaxed)) {
      (void)registry.Snapshot();
      (void)registry.ToJson();
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const std::string mine =
          "race_test.writer" + std::to_string(w) + ".count";
      for (int round = 0; round < kRounds; ++round) {
        // Shared name: every thread races the first-use registration.
        registry.GetCounter("race_test.shared.count").Increment();
        // Private name re-looked-up each round: map reads under writes.
        registry.GetCounter(mine).Increment();
        registry.GetGauge("race_test.shared.gauge")
            .Set(static_cast<double>(round));
        registry.GetHistogram("race_test.shared.hist")
            .Observe(static_cast<double>(round % 16));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(registry.GetCounter("race_test.shared.count").Value(),
            static_cast<std::uint64_t>(kWriters) * kRounds);
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(registry
                  .GetCounter("race_test.writer" + std::to_string(w) +
                              ".count")
                  .Value(),
              static_cast<std::uint64_t>(kRounds));
  }
  EXPECT_EQ(registry.GetHistogram("race_test.shared.hist").TotalCount(),
            static_cast<std::uint64_t>(kWriters) * kRounds);
}

TEST(ObsRaceStressTest, TraceAppendVsSnapshotAndClear) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.Enable();

  constexpr int kWriters = 4;
  constexpr int kRounds = 400;
  std::atomic<bool> stop{false};

  // Snapshot and Clear take registry_mutex_ and then every shard lock
  // nested inside it; appends take only their own shard lock. This loop
  // races both against fresh-thread buffer registration (each writer's
  // first append) and steady-state appends.
  std::thread sweeper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)recorder.Snapshot();
      (void)recorder.EventCount();
      recorder.Clear();
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        const std::int64_t now = TraceRecorder::NowNanos();
        recorder.RecordComplete("race", "span", now, 10,
                                {{"round", round}});
        recorder.RecordInstant("race", "instant", {{"round", round}});
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  sweeper.join();
  recorder.Disable();
  recorder.Clear();
  EXPECT_EQ(recorder.EventCount(), 0u);

  // The recorder still works single-threaded after the churn.
  recorder.Enable();
  recorder.RecordInstant("race", "after");
  recorder.Disable();
  EXPECT_EQ(recorder.EventCount(), 1u);
  recorder.Clear();
}

TEST(ObsRaceStressTest, HistogramObserveVsTakeSnapshotStaysCoherent) {
  // Observe orders count -> sum -> bucket and TakeSnapshot reads buckets
  // first, so every concurrent snapshot must satisfy count >= Σbuckets —
  // the invariant the cumulative OpenMetrics rendering (+Inf == _count,
  // non-decreasing series) is built on. Check it on every snapshot taken
  // while writers are mid-Observe, not just at quiescence.
  obs::Histogram hist({1.0, 8.0, 64.0});
  constexpr int kWriters = 4;
  constexpr int kRounds = 20000;

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> snapshots_checked{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const obs::Histogram::Snapshot snap = hist.TakeSnapshot();
      std::uint64_t bucket_total = 0;
      for (const std::uint64_t b : snap.buckets) bucket_total += b;
      ASSERT_GE(snap.count, bucket_total);
      ASSERT_EQ(snap.buckets.size(), hist.bounds().size() + 1);
      snapshots_checked.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        hist.Observe(static_cast<double>(round % 100));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_GT(snapshots_checked.load(), 0u);

  // Quiescent totals line up exactly once the races end.
  const obs::Histogram::Snapshot final_snap = hist.TakeSnapshot();
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kWriters) * kRounds;
  EXPECT_EQ(final_snap.count, expected);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : final_snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, expected);
}

TEST(ObsRaceStressTest, AuditLedgerRecordVsSnapshot) {
  AuditLedger& ledger = AuditLedger::Global();
  ledger.Clear();
  ledger.SetEnabled(true);

  // Enough records to pass the per-class cap under contention, so the
  // drop-oldest eviction races the readers too.
  constexpr std::size_t kCap = AuditLedger::kMaxRecordsPerClass;
  constexpr int kWriters = 4;
  constexpr int kRounds = static_cast<int>(kCap / kWriters) + 200;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)ledger.NewestRepr(64);  // the flight-recorder tail
      (void)ledger.Snapshot();
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        ReprAuditRecord record;
        record.op = ledger.NextOpId();
        record.ti = w;
        record.tj = round;
        ledger.RecordRepr(record);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  ledger.SetEnabled(false);

  const obs::AuditLedgerDoc doc = ledger.Snapshot();
  const std::uint64_t total = static_cast<std::uint64_t>(kWriters) * kRounds;
  EXPECT_EQ(doc.repr.size(), kCap);  // stayed capped
  EXPECT_EQ(doc.dropped, total - kCap);
  ledger.Clear();
}

}  // namespace
}  // namespace atmx
