#include "ops/optimizer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "storage/convert.h"
#include "tests/test_util.h"

namespace atmx {
namespace {

MultiplyShape Shape(index_t m, index_t k, index_t n, double ra, double rb,
                    double rc) {
  return {m, k, n, ra, rb, rc};
}

TEST(PairDecisionTest, KeepsRepresentationsWhenConversionDisallowed) {
  CostModel model;
  PairDecision d = DecidePairRepresentations(
      model, Shape(256, 256, 256, 0.9, 0.9, 0.9), /*a_is_dense=*/false,
      /*b_is_dense=*/false, false, false, /*c_dense=*/true,
      /*allow_conversion=*/false);
  EXPECT_FALSE(d.a_dense);
  EXPECT_FALSE(d.b_dense);
  EXPECT_FALSE(d.a_converted);
  EXPECT_FALSE(d.b_converted);
}

TEST(PairDecisionTest, ConvertsDenseishSparseTiles) {
  CostModel model;
  // Operands stored sparse but nearly full: dense kernel wins even after
  // paying the conversion.
  PairDecision d = DecidePairRepresentations(
      model, Shape(512, 512, 512, 0.9, 0.9, 0.9), false, false, false,
      false, true, true);
  EXPECT_TRUE(d.a_dense);
  EXPECT_TRUE(d.b_dense);
  EXPECT_TRUE(d.a_converted);
  EXPECT_TRUE(d.b_converted);
}

TEST(PairDecisionTest, KeepsHypersparseTilesSparse) {
  CostModel model;
  PairDecision d = DecidePairRepresentations(
      model, Shape(512, 512, 512, 0.001, 0.001, 0.001), false, false, false,
      false, false, true);
  EXPECT_FALSE(d.a_dense);
  EXPECT_FALSE(d.b_dense);
}

TEST(PairDecisionTest, CachedConversionTipsTheScale) {
  CostModel model;
  // Density near the turnaround: without a cached conversion the
  // conversion cost keeps the tile sparse; with the conversion already
  // cached the dense kernel is free to win.
  // n wide enough to stay out of the SpMM panel regime (its cheaper
  // sparse x dense rate moves the turnaround, tested separately below).
  const double rho = 0.26;
  const MultiplyShape shape = Shape(128, 128, 512, rho, 1.0, 0.9);
  PairDecision uncached = DecidePairRepresentations(
      model, shape, false, true, false, false, true, true);
  PairDecision cached = DecidePairRepresentations(model, shape, false, true,
                                                  true, false, true, true);
  EXPECT_LE(uncached.projected_cost + 1e-9, 1e18);
  EXPECT_TRUE(cached.a_dense);
  // The cached projected cost can never exceed the uncached one.
  EXPECT_LE(cached.projected_cost, uncached.projected_cost + 1e-9);
}

TEST(PairDecisionTest, PanelRateKeepsSparseAgainstSkinnyDense) {
  CostModel model;
  // Same densities as CachedConversionTipsTheScale, but a tall-skinny
  // dense B (n <= kSpmmMaxPanelCols): the register-strip SpMM panel rate
  // prices the sparse x dense kernel below the dense one up to
  // rho = c_ddd / c_sdd_panel, so A stays sparse even when its dense
  // conversion would be free.
  const MultiplyShape shape = Shape(128, 128, 128, 0.26, 1.0, 0.9);
  PairDecision cached = DecidePairRepresentations(model, shape, false, true,
                                                  true, false, true, true);
  EXPECT_FALSE(cached.a_dense);
  EXPECT_TRUE(cached.b_dense);
}

TEST(PairDecisionTest, DenseOperandCanConvertToSparse) {
  CostModel model;
  // A dense-stored but hypersparse tile against a hypersparse B: the
  // sparse kernel wins by orders of magnitude.
  PairDecision d = DecidePairRepresentations(
      model, Shape(512, 512, 512, 0.001, 0.001, 0.0001), true, false, false,
      false, false, true);
  EXPECT_FALSE(d.a_dense);
  EXPECT_TRUE(d.a_converted);
}

TEST(ConversionCacheTest, ConvertsOnceAndReuses) {
  CooMatrix coo = atmx::testing::RandomCoo(16, 16, 50, 1);
  Tile tile = Tile::MakeSparse(0, 0, CooToCsr(coo));
  ConversionCache cache;
  ConversionCache other_operand;
  const DenseMatrix& first = cache.GetDense(3, tile);
  const DenseMatrix& second = cache.GetDense(3, tile);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(cache.sparse_to_dense_count(), 1);
  EXPECT_TRUE(cache.HasDense(3));
  EXPECT_FALSE(other_operand.HasDense(3));
  EXPECT_FALSE(cache.HasDense(4));
  // Converted payload preserves content.
  atmx::testing::ExpectDenseNear(CooToDense(coo), first);
}

TEST(ConversionCacheTest, DenseToSparseDirection) {
  DenseMatrix dense(8, 8);
  dense.At(3, 4) = 2.0;
  Tile tile = Tile::MakeDense(0, 0, std::move(dense));
  ConversionCache cache;
  const CsrMatrix& sparse = cache.GetSparse(0, tile);
  EXPECT_EQ(sparse.nnz(), 1);
  EXPECT_DOUBLE_EQ(sparse.At(3, 4), 2.0);
  EXPECT_EQ(cache.dense_to_sparse_count(), 1);
  EXPECT_TRUE(cache.HasSparse(0));
}

TEST(ConversionCacheTest, SidesAndIndicesAreIndependentKeys) {
  // One cache per operand side: the same tile index on the other side is a
  // different tile and converts separately.
  CooMatrix coo = atmx::testing::RandomCoo(8, 8, 10, 2);
  Tile tile = Tile::MakeSparse(0, 0, CooToCsr(coo));
  ConversionCache left;
  ConversionCache right;
  left.GetDense(1, tile);
  right.GetDense(1, tile);
  left.GetDense(2, tile);
  EXPECT_EQ(left.sparse_to_dense_count() + right.sparse_to_dense_count(), 3);
}

TEST(ConversionCacheTest, ConversionCountersAreLockProtected) {
  // Regression for the unlocked counter accessors the thread-safety
  // migration surfaced: sparse_to_dense_count()/dense_to_sparse_count()
  // read mutex-guarded fields without taking the mutex, so a caller
  // polling mid-operation raced the converting workers. Under TSan this
  // test reproduces the old report; the totals double as a correctness
  // check either way.
  CooMatrix coo = atmx::testing::RandomCoo(16, 16, 60, 3);
  Tile sparse_tile = Tile::MakeSparse(0, 0, CooToCsr(coo));
  DenseMatrix dense(16, 16);
  dense.At(1, 2) = 1.0;
  Tile dense_tile = Tile::MakeDense(0, 0, std::move(dense));

  ConversionCache cache;
  constexpr int kThreads = 4;
  constexpr index_t kTilesPerThread = 64;
  std::atomic<bool> stop{false};
  std::thread poller([&] {
    // Counters are monotone; a torn or stale read can only manifest as a
    // TSan report or a non-monotone observation.
    index_t last_s2d = 0;
    index_t last_d2s = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const index_t s2d = cache.sparse_to_dense_count();
      const index_t d2s = cache.dense_to_sparse_count();
      EXPECT_GE(s2d, last_s2d);
      EXPECT_GE(d2s, last_d2s);
      last_s2d = s2d;
      last_d2s = d2s;
    }
  });
  std::vector<std::thread> converters;
  for (int t = 0; t < kThreads; ++t) {
    converters.emplace_back([&, t] {
      for (index_t i = 0; i < kTilesPerThread; ++i) {
        const index_t idx = t * kTilesPerThread + i;
        cache.GetDense(idx, sparse_tile);
        cache.GetSparse(idx, dense_tile);
      }
    });
  }
  for (auto& t : converters) t.join();
  stop.store(true, std::memory_order_relaxed);
  poller.join();
  EXPECT_EQ(cache.sparse_to_dense_count(), kThreads * kTilesPerThread);
  EXPECT_EQ(cache.dense_to_sparse_count(), kThreads * kTilesPerThread);
}

}  // namespace
}  // namespace atmx
