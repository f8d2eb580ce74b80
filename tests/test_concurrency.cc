// Concurrency properties: AtMult::Multiply is const and must be safe to
// call from several threads at once (each operation owns its scheduler,
// conversion cache and stats); the conversion cache must stay consistent
// under concurrent access from worker teams.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "gen/synthetic.h"
#include "kernels/sparse_kernels.h"
#include "ops/atmult.h"
#include "ops/optimizer.h"
#include "storage/convert.h"
#include "tests/test_util.h"
#include "tile/partitioner.h"

namespace atmx {
namespace {

using atmx::testing::ExpectDenseNear;
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

}  // namespace
}  // namespace atmx
