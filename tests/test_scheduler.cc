// Scheduling determinism and steal-protocol accounting (docs/SCHEDULER.md):
// ATMULT results must be bitwise identical no matter which team executes a
// task, every task must run exactly once under forced-steal stress, and the
// steal counters must reconcile with per-team execution counts.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.h"
#include "gen/rmat.h"
#include "ops/atmult.h"
#include "storage/convert.h"
#include "storage/csr_matrix.h"
#include "tile/partitioner.h"
#include "topology/numa_sim.h"
#include "topology/thread_pool.h"

namespace atmx {
namespace {

// Exact (bitwise) equality of two CSR matrices: identical structure and
// identical value bits — not an epsilon comparison.
void ExpectBitwiseEqual(const CsrMatrix& x, const CsrMatrix& y) {
  ASSERT_EQ(x.rows(), y.rows());
  ASSERT_EQ(x.cols(), y.cols());
  ASSERT_EQ(x.nnz(), y.nnz());
  ASSERT_EQ(x.row_ptr(), y.row_ptr());
  ASSERT_EQ(x.col_idx(), y.col_idx());
  for (std::size_t i = 0; i < x.values().size(); ++i) {
    const auto bits = [](value_t v) {
      std::uint64_t b;
      static_assert(sizeof(v) == sizeof(b));
      std::memcpy(&b, &v, sizeof(b));
      return b;
    };
    ASSERT_EQ(bits(x.values()[i]), bits(y.values()[i])) << "value " << i;
  }
}

CooMatrix HubHeavyRmat(index_t dim, index_t nnz, std::uint64_t seed) {
  RmatParams params;
  params.rows = dim;
  params.cols = dim;
  params.nnz = nnz;
  // Graph500-style skew: non-zeros concentrate in the first tile-rows, so
  // a few hub tasks dominate while most queues hold near-empty tasks.
  params.a = 0.57;
  params.b = 0.19;
  params.c = 0.19;
  params.seed = seed;
  return GenerateRmat(params);
}

TEST(SchedulerDeterminismTest, BitwiseIdenticalAcrossStealingAndTeams) {
  const CooMatrix coo = HubHeavyRmat(512, 6000, /*seed=*/7);

  CsrMatrix reference(0, 0);
  bool have_reference = false;
  for (const int teams : {1, 2, 4}) {
    for (const bool stealing : {false, true}) {
      AtmConfig config;
      config.b_atomic = 64;
      config.llc_bytes = 1 << 18;
      config.num_sockets = teams;
      config.cores_per_socket = 2;
      config.work_stealing = stealing;
      ATMatrix atm = PartitionToAtm(coo, config);
      AtMult op(config);
      AtMultStats stats;
      CsrMatrix product = op.Multiply(atm, atm, &stats).ToCsr();
      if (!have_reference) {
        reference = std::move(product);
        have_reference = true;
        continue;
      }
      SCOPED_TRACE("teams=" + std::to_string(teams) +
                   " stealing=" + std::to_string(stealing));
      ExpectBitwiseEqual(reference, product);
    }
  }
}

TEST(SchedulerDeterminismTest, MultiplyAddBitwiseIdenticalWithStealing) {
  const CooMatrix coo = HubHeavyRmat(256, 3000, /*seed=*/11);
  CsrMatrix reference(0, 0);
  bool have_reference = false;
  for (const bool stealing : {false, true}) {
    AtmConfig config;
    config.b_atomic = 32;
    config.llc_bytes = 1 << 16;
    config.num_sockets = 4;
    config.work_stealing = stealing;
    ATMatrix atm = PartitionToAtm(coo, config);
    AtMult op(config);
    CsrMatrix product = op.MultiplyAdd(atm, atm, atm).ToCsr();
    if (!have_reference) {
      reference = std::move(product);
      have_reference = true;
      continue;
    }
    ExpectBitwiseEqual(reference, product);
  }
}

TEST(SchedulerStealTest, ForcedStealRunsEveryTaskOnceAndReconciles) {
  constexpr int kTeams = 4;
  constexpr index_t kTasks = 64;
  TeamScheduler scheduler(kTeams, 1);

  ScheduleOptions options;
  options.work_stealing = true;
  ScheduleStats stats;
  std::vector<std::atomic<int>> runs(kTasks);
  std::mutex mu;
  std::vector<int> executed_by(kTasks, -1);
  scheduler.RunTasks(
      kTasks, [](index_t) { return 0; },  // all tasks homed to team 0
      [&](WorkerTeam& team, index_t task) {
        runs[static_cast<std::size_t>(task)].fetch_add(1);
        {
          std::lock_guard<std::mutex> lock(mu);
          executed_by[static_cast<std::size_t>(task)] = team.team_id();
        }
        // Enough work per task that the idle teams' drivers get scheduled
        // while team 0 is still draining its (artificially loaded) queue.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      },
      options, &stats);

  index_t executed_total = 0;
  for (int t = 0; t < kTeams; ++t) {
    executed_total += stats.executed_per_team[t];
    // Per-team reconciliation: everything a non-home team executed was a
    // steal, and team 0 (the home of every task) never steals.
    if (t == 0) {
      EXPECT_EQ(stats.stolen_per_team[0], 0);
    } else {
      EXPECT_EQ(stats.stolen_per_team[t], stats.executed_per_team[t]);
    }
  }
  EXPECT_EQ(executed_total, kTasks);
  EXPECT_GT(stats.TotalSteals(), 0u);
  for (index_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(runs[static_cast<std::size_t>(t)].load(), 1) << "task " << t;
  }
  // Execution-team record agrees with the per-team counters.
  std::vector<index_t> counted(kTeams, 0);
  for (index_t t = 0; t < kTasks; ++t) {
    ASSERT_GE(executed_by[static_cast<std::size_t>(t)], 0);
    ++counted[static_cast<std::size_t>(
        executed_by[static_cast<std::size_t>(t)])];
  }
  for (int t = 0; t < kTeams; ++t) {
    EXPECT_EQ(counted[static_cast<std::size_t>(t)],
              stats.executed_per_team[t]);
  }
}

TEST(SchedulerStealTest, StealCountersMatchOffHomeExecution) {
  // Randomized homes: total steals must equal the number of tasks whose
  // executing team differs from their home team, per team and in total.
  constexpr int kTeams = 3;
  constexpr index_t kTasks = 120;
  TeamScheduler scheduler(kTeams, 1);
  ScheduleOptions options;
  options.work_stealing = true;
  ScheduleStats stats;
  std::mutex mu;
  std::vector<int> executed_by(kTasks, -1);
  auto home_of = [](index_t task) { return static_cast<int>(task % kTeams); };
  scheduler.RunTasks(
      kTasks, home_of,
      [&](WorkerTeam& team, index_t task) {
        std::lock_guard<std::mutex> lock(mu);
        executed_by[static_cast<std::size_t>(task)] = team.team_id();
      },
      options, &stats);
  std::vector<index_t> off_home(kTeams, 0);
  for (index_t t = 0; t < kTasks; ++t) {
    const int exec = executed_by[static_cast<std::size_t>(t)];
    ASSERT_GE(exec, 0);
    if (exec != home_of(t)) ++off_home[static_cast<std::size_t>(exec)];
  }
  for (int t = 0; t < kTeams; ++t) {
    EXPECT_EQ(off_home[static_cast<std::size_t>(t)],
              stats.stolen_per_team[t])
        << "team " << t;
  }
}

TEST(SchedulerLptTest, SingleTeamDrainsLongestProcessingTimeFirst) {
  // With one team nothing can be stolen, so the execution order is exactly
  // the LPT-sorted home queue: descending cost, ties in submission order.
  TeamScheduler scheduler(1, 1);
  ScheduleOptions options;
  options.work_stealing = true;
  options.cost_of = [](index_t task) {
    return static_cast<double>(task % 5);
  };
  std::vector<index_t> order;
  scheduler.RunTasks(
      10, [](index_t) { return 0; },
      [&](WorkerTeam&, index_t task) { order.push_back(task); },
      options, nullptr);
  const std::vector<index_t> expected = {4, 9, 3, 8, 2, 7, 1, 6, 0, 5};
  EXPECT_EQ(order, expected);
}

TEST(SchedulerLptTest, StaticModeIgnoresCostOrdering) {
  // Paper-faithful static scheduling keeps submission order even when a
  // cost function is supplied.
  TeamScheduler scheduler(1, 1);
  ScheduleOptions options;
  options.work_stealing = false;
  options.cost_of = [](index_t task) { return static_cast<double>(task); };
  std::vector<index_t> order;
  scheduler.RunTasks(
      6, [](index_t) { return 0; },
      [&](WorkerTeam&, index_t task) { order.push_back(task); },
      options, nullptr);
  const std::vector<index_t> expected = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(order, expected);
}

TEST(SchedulerVictimTest, NumaDistanceIsARing) {
  EXPECT_EQ(NumaDistance(0, 0, 4), 0);
  EXPECT_EQ(NumaDistance(0, 1, 4), 1);
  EXPECT_EQ(NumaDistance(0, 2, 4), 2);  // opposite corner: two hops
  EXPECT_EQ(NumaDistance(0, 3, 4), 1);  // ring wraps
  EXPECT_EQ(NumaDistance(1, 0, 2), 1);
  EXPECT_EQ(NumaDistance(5, 2, 8), 3);
}

TEST(SchedulerStatsTest, AtMultReportsStealsAndBusyTimes) {
  const CooMatrix coo = HubHeavyRmat(512, 6000, /*seed=*/21);
  AtmConfig config;
  config.b_atomic = 32;
  config.llc_bytes = 1 << 16;
  config.num_sockets = 4;
  config.work_stealing = true;
  ATMatrix atm = PartitionToAtm(coo, config);
  AtMult op(config);
  AtMultStats stats;
  op.Multiply(atm, atm, &stats);
  ASSERT_EQ(stats.team_busy_seconds.size(), 4u);
  EXPECT_GT(stats.MaxTeamBusySeconds(), 0.0);

  config.work_stealing = false;
  AtMult static_op(config);
  AtMultStats static_stats;
  static_op.Multiply(atm, atm, &static_stats);
  EXPECT_EQ(static_stats.tasks_stolen, 0);
}

}  // namespace
}  // namespace atmx
