// Concurrency properties: AtMult::Multiply is const and must be safe to
// call from several threads at once. Each operation owns its conversion
// caches and stats and borrows a pooled scheduler of its (teams,
// threads-per-team) shape for the length of its graph: a caller reuses an
// idle one, and concurrent callers run side by side on their own. The
// conversion cache must stay consistent under concurrent access from
// worker teams.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gen/synthetic.h"
#include "kernels/sparse_kernels.h"
#include "ops/atmult.h"
#include "ops/chain.h"
#include "ops/executor.h"
#include "ops/optimizer.h"
#include "ops/spmv.h"
#include "storage/convert.h"
#include "tests/test_util.h"
#include "tile/partitioner.h"

namespace atmx {
namespace {

using atmx::testing::BlockDiagonal;
using atmx::testing::ExpectDenseNear;
using atmx::testing::Fnv1a;
using atmx::testing::RandomCoo;

TEST(ConcurrencyTest, ParallelMultiplyCallsOnSharedOperator) {
  AtmConfig config;
  config.b_atomic = 16;
  config.llc_bytes = 1 << 20;
  config.num_sockets = 2;
  config.cores_per_socket = 2;

  CooMatrix a_coo = GenerateDiagonalDenseBlocks(96, 3, 16, 0.9, 300, 1);
  ATMatrix a = PartitionToAtm(a_coo, config);
  CsrMatrix expected = SpGemmCsr(CooToCsr(a_coo), CooToCsr(a_coo));
  DenseMatrix expected_dense = CsrToDense(expected);

  const AtMult op(config);
  constexpr int kCallers = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kCallers; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        ATMatrix c = op.Multiply(a, a);
        if (!c.CheckValid() ||
            MaxAbsDiff(expected_dense, CsrToDense(c.ToCsr())) > 1e-9) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrencyTest, ConversionCacheUnderContention) {
  CooMatrix coo = RandomCoo(32, 32, 200, 2);
  Tile tile = Tile::MakeSparse(0, 0, CooToCsr(coo));
  ConversionCache cache;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<const DenseMatrix*> results(kThreads, nullptr);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { results[t] = &cache.GetDense(5, tile); });
  }
  for (auto& t : threads) t.join();
  // Exactly one conversion; everyone sees the same payload.
  EXPECT_EQ(cache.sparse_to_dense_count(), 1);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[t], results[0]);
  }
  ExpectDenseNear(CooToDense(coo), *results[0]);
}

TEST(ConcurrencyTest, ManyTeamsManyTinyTasks) {
  // Stress the scheduler with far more tasks than tiles are worth:
  // fixed tiling of a small matrix yields a dense task grid.
  AtmConfig config;
  config.b_atomic = 8;
  config.llc_bytes = 1 << 18;
  config.tiling = TilingMode::kFixed;
  config.num_sockets = 4;
  config.cores_per_socket = 2;
  CooMatrix coo = RandomCoo(128, 128, 1500, 3);
  ATMatrix atm = PartitionToAtm(coo, config);
  EXPECT_EQ(atm.num_tiles(), 256);  // 16x16 grid
  AtMult op(config);
  ATMatrix c = op.Multiply(atm, atm);
  CsrMatrix expected = SpGemmCsr(CooToCsr(coo), CooToCsr(coo));
  ExpectDenseNear(CsrToDense(expected), CsrToDense(c.ToCsr()), 1e-9);
}

// Hash of what a caller observes of a result: every tile's geometry,
// representation and non-zeros, and the payload bits.
std::uint64_t HashResult(const ATMatrix& m) {
  Fnv1a h;
  for (const Tile& t : m.tiles()) {
    for (index_t field : {t.row0(), t.col0(), t.rows(), t.cols(), t.nnz()}) {
      h.Add(static_cast<std::uint64_t>(field));
    }
    h.Add(t.is_dense());
  }
  const CsrMatrix csr = m.ToCsr();
  h.AddAll(csr.row_ptr());
  h.AddAll(csr.col_idx());
  h.AddAll(csr.values());
  return h.hash();
}

std::uint64_t HashVector(const std::vector<value_t>& y) {
  Fnv1a h;
  h.AddAll(y);
  return h.hash();
}

// Four callers run Multiply, MultiplyAdd, a fused chain and SpMVParallel
// on two shapes at once, so the pool lends several schedulers of a shape
// and hands them from one caller to the next. A = diag(banded, uniform)
// makes the banded band's dense-planned tiles close as CSR and park their
// accumulators. Every result must be bitwise the one the same call gives
// run alone.
TEST(SharedExecutorTest, ConcurrentCallersMatchSoloRunsBitwise) {
  const CooMatrix coo = BlockDiagonal(GenerateBanded(256, 2, 1.0, 5),
                                      GenerateUniform(256, 256, 1500, 6));
  struct Shape {
    AtmConfig config;
    ATMatrix a;
    ATMatrix c;
    std::vector<value_t> x;
    ChainPlan plan;
  };
  std::vector<Shape> shapes;
  for (auto [teams, threads] : {std::pair{2, 2}, std::pair{1, 3}}) {
    Shape shape;
    shape.config.b_atomic = 32;
    shape.config.llc_bytes = 256 * 1024;
    shape.config.num_sockets = teams;
    shape.config.cores_per_socket = threads;
    shape.config.fused_chains = true;
    shape.a = PartitionToAtm(coo, shape.config);
    shape.c = PartitionToAtm(RandomCoo(512, 512, 2000, 7), shape.config);
    for (index_t i = 0; i < 512; ++i) {
      shape.x.push_back(1.0 + static_cast<value_t>(i % 13) / 8.0);
    }
    shape.plan = PlanChain({&shape.a.density_map(), &shape.a.density_map(),
                            &shape.a.density_map()},
                           CostModel(), shape.config.rho_write);
    shapes.push_back(std::move(shape));
  }
  // Call (shape s, operation o) is calls[s * 4 + o]; each returns the hash
  // of its result.
  std::vector<std::function<std::uint64_t()>> calls;
  for (const Shape& shape : shapes) {
    calls.push_back([&shape] {
      return HashResult(AtMult(shape.config).Multiply(shape.a, shape.a));
    });
    calls.push_back([&shape] {
      return HashResult(
          AtMult(shape.config).MultiplyAdd(shape.c, shape.a, shape.a));
    });
    calls.push_back([&shape] {
      ChainExecStats stats;
      const ATMatrix r = ExecuteChain({&shape.a, &shape.a, &shape.a},
                                      shape.plan, AtMult(shape.config),
                                      &stats);
      return stats.fused ? HashResult(r) : 0;
    });
    calls.push_back([&shape] {
      return HashVector(SpMVParallel(shape.a, shape.x, shape.config));
    });
  }
  std::vector<std::uint64_t> solo;
  for (const auto& call : calls) solo.push_back(call());
  // The chain ran fused (a fallback hashes to 0).
  EXPECT_NE(solo[2], 0u);
  EXPECT_NE(solo[6], 0u);

  constexpr int kCallers = 4;
  constexpr int kRounds = 2;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Each caller starts at a different call, so different operations
        // and shapes overlap.
        for (std::size_t i = 0; i < calls.size(); ++i) {
          const std::size_t k = (i + static_cast<std::size_t>(t) * 3) %
                                calls.size();
          if (calls[k]() != solo[k]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// The first products with a matrix as right operand build its column-band
// slices. Four callers make those first calls at once on a B that has never
// been multiplied: one of them builds the slices and the others wait for
// them, and every result must be bitwise the one a solo run gives.
TEST(ConcurrencyTest, ColdColumnBandSlicesUnderConcurrentCallers) {
  AtmConfig config;
  config.b_atomic = 8;
  config.llc_bytes = 64 * 1024;
  config.num_sockets = 2;
  config.cores_per_socket = 2;
  config.work_stealing = true;
  const CooMatrix coo = GenerateDiagonalDenseBlocks(256, 4, 24, 0.9, 5000, 41);
  const ATMatrix a = PartitionToAtm(coo, config);
  const ATMatrix solo_b = PartitionToAtm(coo, config);
  const AtMult op(config);
  const std::uint64_t solo = HashResult(op.Multiply(a, solo_b));
  const ColBandSlices& solo_slices = solo_b.col_band_slices();
  ASSERT_GT(solo_slices.sliced_tiles(), 0);

  const ATMatrix cold_b = PartitionToAtm(coo, config);
  constexpr int kCallers = 4;
  std::atomic<int> arrived{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      arrived.fetch_add(1);
      while (arrived.load() < kCallers) std::this_thread::yield();
      for (int round = 0; round < 2; ++round) {
        if (HashResult(op.Multiply(a, cold_b)) != solo) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cold_b.col_band_slices().sliced_tiles(),
            solo_slices.sliced_tiles());
  EXPECT_EQ(cold_b.col_band_slices().nnz(), solo_slices.nnz());
}

// Thread ids of this process (the entries of /proc/self/task).
std::set<std::string> ThreadIds() {
  std::set<std::string> ids;
  std::error_code error;
  for (std::filesystem::directory_iterator it("/proc/self/task", error), end;
       !error && it != end; it.increment(error)) {
    ids.insert(it->path().filename().string());
  }
  return ids;
}

// The pooled 2x2 scheduler's teams and drivers outlive a call, and a later
// call runs on them: no thread appears while the later calls run.
TEST(SharedExecutorTest, RepeatedMultiplyStartsNoThread) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task";
  }
  AtmConfig config;
  config.b_atomic = 16;
  config.llc_bytes = 1 << 20;
  config.num_sockets = 2;
  config.cores_per_socket = 2;
  const ATMatrix a = PartitionToAtm(
      GenerateDiagonalDenseBlocks(256, 4, 32, 0.9, 2000, 3), config);
  const AtMult op(config);
  const ATMatrix first = op.Multiply(a, a);  // forms the 2x2 scheduler

  // 0: starting, 1: ready, 2: recording, 3: stop.
  std::atomic<int> phase{0};
  std::set<std::string> seen;
  std::thread monitor([&] {
    phase.store(1);
    for (;;) {
      const int at_start = phase.load();
      if (at_start == 3) break;
      std::set<std::string> ids = ThreadIds();
      if (at_start == 2) seen.insert(ids.begin(), ids.end());
    }
  });
  while (phase.load() != 1) std::this_thread::yield();
  const std::set<std::string> before = ThreadIds();
  // The caller, the monitor, two drivers and one worker per team.
  EXPECT_GE(before.size(), 5u);
  phase.store(2);
  for (int call = 0; call < 3; ++call) {
    EXPECT_EQ(HashResult(op.Multiply(a, a)), HashResult(first));
  }
  phase.store(3);
  monitor.join();
  for (const std::string& id : seen) {
    EXPECT_TRUE(before.count(id) == 1) << "thread " << id << " started";
  }
}

// While a caller holds a scheduler of a shape, a second caller of the shape
// gets another one; a returned scheduler serves the next caller.
TEST(SharedExecutorTest, BusySchedulerIsNotLentTwice) {
  AtmConfig config;
  config.num_sockets = 2;
  config.cores_per_socket = 2;
  TeamScheduler* first = nullptr;
  TeamScheduler* second = nullptr;
  {
    const internal::SchedulerLease a(config);
    const internal::SchedulerLease b(config);
    first = &*a;
    second = &*b;
    EXPECT_NE(first, second);
    EXPECT_EQ(a->num_teams(), 2);
  }
  const internal::SchedulerLease c(config);
  EXPECT_TRUE(&*c == first || &*c == second);
}

// Two callers of one shape run their graphs at the same time: each graph's
// only task waits until the other graph's task has started. If one caller
// waited for the other's graph to finish, the first task would time out.
TEST(SharedExecutorTest, ConcurrentCallersOfOneShapeRunSideBySide) {
  AtmConfig config;
  config.num_sockets = 2;
  config.cores_per_socket = 2;
  std::atomic<int> started{0};
  std::atomic<int> met{0};
  auto caller = [&] {
    internal::SchedulerLease(config)->RunTasks(
        1, [](index_t) { return 0; },
        [&](WorkerTeam&, index_t) {
          started.fetch_add(1);
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(20);
          while (started.load() < 2 &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
          if (started.load() >= 2) met.fetch_add(1);
        });
  };
  std::thread one(caller);
  std::thread two(caller);
  one.join();
  two.join();
  EXPECT_EQ(met.load(), 2);
}

}  // namespace
}  // namespace atmx
