#include "estimate/water_level.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>

#include "estimate/density_estimator.h"
#include "gen/synthetic.h"
#include "gen/workloads.h"
#include "obs/obs.h"
#include "ops/atmult.h"
#include "tests/test_util.h"
#include "tile/partitioner.h"

namespace atmx {
namespace {

// 2x2 grid of 16x16 blocks with descending densities.
DensityMap FourBlockMap(double d00, double d01, double d10, double d11) {
  DensityMap map(32, 32, 16);
  map.Set(0, 0, d00);
  map.Set(0, 1, d01);
  map.Set(1, 0, d10);
  map.Set(1, 1, d11);
  return map;
}

// One product's water level at the floor rho_W = 0: EffectiveWriteThreshold
// with its feasibility, and the bytes EstimateMemoryBytes projects at the
// threshold it returns (what ATMULT's predicted-bytes gauge reports).
struct ProductLevel {
  double threshold = 0.0;
  std::size_t projected_bytes = 0;
  bool feasible = false;
};

ProductLevel SolveProductLevel(const DensityMap& map, std::size_t limit) {
  ProductLevel level;
  level.threshold = EffectiveWriteThreshold(map, 0.0, limit, &level.feasible);
  level.projected_bytes = EstimateMemoryBytes(map, level.threshold);
  return level;
}

TEST(WaterLevelTest, UnlimitedMemoryAllowsLowestLevel) {
  DensityMap map = FourBlockMap(0.9, 0.5, 0.2, 0.05);
  const ProductLevel result =
      SolveProductLevel(map, std::numeric_limits<std::size_t>::max());
  EXPECT_TRUE(result.feasible);
  // The level stays at the floor rho_W: every block dense.
  EXPECT_DOUBLE_EQ(result.threshold, 0.0);
  EXPECT_EQ(result.projected_bytes, 4u * 256 * 8);
}

TEST(WaterLevelTest, TightLimitKeepsEverythingSparse) {
  DensityMap map = FourBlockMap(0.3, 0.2, 0.1, 0.05);
  // All-sparse size: (0.65)*256*16 = 2662.4.
  const ProductLevel result = SolveProductLevel(map, 2700);
  EXPECT_TRUE(result.feasible);
  EXPECT_GT(result.threshold, 0.3);  // no block surfaces
  EXPECT_LE(result.projected_bytes, 2700u);
}

TEST(WaterLevelTest, IntermediateLimitSurfacesDensestBlocks) {
  DensityMap map = FourBlockMap(0.9, 0.5, 0.2, 0.05);
  // All-sparse: 1.65*256*16 = 6758. Surfacing 0.9: 6758 + 256*(8-14.4)
  // = 5120. Surfacing 0.5 too: +256*(8-8) = 5120. Surfacing 0.2:
  // +256*(8-3.2) = 6349. Surfacing 0.05: +256*(8-0.8)=8192 -> over 7000.
  const ProductLevel result = SolveProductLevel(map, 7000);
  EXPECT_TRUE(result.feasible);
  EXPECT_DOUBLE_EQ(result.threshold, 0.2);
  EXPECT_LE(result.projected_bytes, 7000u);
}

TEST(WaterLevelTest, InfeasibleAllSparseStillReported) {
  DensityMap map = FourBlockMap(0.3, 0.3, 0.3, 0.3);
  // All sparse: 1.2*256*16 = 4915; dense would be 8192. Limit below both.
  const ProductLevel result = SolveProductLevel(map, 1000);
  EXPECT_FALSE(result.feasible);
}

TEST(WaterLevelTest, DenseBlocksCanRescueInfeasibleSparseLayout) {
  // A nearly-full matrix is *smaller* dense than sparse: rho 0.9 => sparse
  // 14.4 B/cell vs dense 8 B/cell.
  DensityMap map = FourBlockMap(0.95, 0.95, 0.95, 0.95);
  const std::size_t sparse_all =
      static_cast<std::size_t>(4 * 0.95 * 256 * 16);
  const std::size_t dense_all = 4 * 256 * 8;
  const ProductLevel result =
      SolveProductLevel(map, (sparse_all + dense_all) / 2);
  EXPECT_TRUE(result.feasible);
  EXPECT_LE(result.projected_bytes, (sparse_all + dense_all) / 2);
}

TEST(WaterLevelTest, AllEqualDensityFlipsTogether) {
  // Every bar has the same height: the `>=` threshold semantics mean the
  // blocks can only flip dense all at once, never partially. At rho 0.7 a
  // dense flip shrinks a block (0.7 * 16 = 11.2 > 8 B/cell).
  DensityMap map = FourBlockMap(0.7, 0.7, 0.7, 0.7);
  const std::size_t sparse_all =
      static_cast<std::size_t>(4 * 0.7 * 256 * 16);  // 11468
  const std::size_t dense_all = 4 * 256 * 8;         // 8192
  ASSERT_LT(dense_all, sparse_all);
  // Limit admits all-dense but not all-sparse: the committed level must be
  // the full flip — projected_bytes is exactly dense_all, never one of the
  // partial-flip intermediate sums.
  const ProductLevel result = SolveProductLevel(map, 9000);
  EXPECT_TRUE(result.feasible);
  EXPECT_LE(result.threshold, 0.7);
  EXPECT_EQ(result.projected_bytes, dense_all);  // all four flipped

  // With the limit below all-dense too, nothing fits: infeasible, and the
  // reported level is the minimum-memory one (everything dense here).
  const ProductLevel tight = SolveProductLevel(map, dense_all - 1);
  EXPECT_FALSE(tight.feasible);
  EXPECT_EQ(tight.projected_bytes, dense_all);
}

TEST(WaterLevelTest, EmptyDensityMap) {
  DensityMap map(0, 0, 16);
  const ProductLevel result = SolveProductLevel(map, 0);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.projected_bytes, 0u);
  EXPECT_DOUBLE_EQ(result.threshold, 0.0);  // nothing to raise it for
}

TEST(WaterLevelTest, ZeroMemLimitFallsBackToMinimumMemory) {
  DensityMap map = FourBlockMap(0.9, 0.5, 0.2, 0.05);
  const ProductLevel result = SolveProductLevel(map, 0);
  EXPECT_FALSE(result.feasible);
  // The fallback level is the global memory minimum over all levels.
  std::size_t best = std::numeric_limits<std::size_t>::max();
  for (double t : {0.05, 0.2, 0.5, 0.9, 1.0 + 1e-12}) {
    best = std::min(best, EstimateMemoryBytes(map, t));
  }
  EXPECT_EQ(result.projected_bytes, best);
  EXPECT_EQ(result.projected_bytes, EstimateMemoryBytes(map, result.threshold));
}

TEST(WaterLevelTest, ProjectedBytesMatchesEstimateAtCommittedThreshold) {
  // The one-product solve's projection must be exactly EstimateMemoryBytes
  // at the threshold it reports — a single formula both the solver and
  // ATMULT's predicted_bytes gauge agree on — across feasible, tie, and
  // infeasible outcomes.
  const DensityMap maps[] = {
      FourBlockMap(0.9, 0.5, 0.2, 0.05), FourBlockMap(0.3, 0.3, 0.3, 0.3),
      FourBlockMap(0.95, 0.95, 0.95, 0.95), FourBlockMap(0.0, 0.0, 0.0, 0.0)};
  const std::size_t limits[] = {0, 1000, 2700, 7000, 8192,
                                std::numeric_limits<std::size_t>::max()};
  for (const DensityMap& map : maps) {
    for (std::size_t limit : limits) {
      const ChainWaterLevelResult result =
          SolveChainWaterLevel({&map}, {-1}, 0.0, limit);
      EXPECT_EQ(result.projected_peak_bytes,
                EstimateMemoryBytes(map, result.thresholds[0]));
    }
  }
}

#ifdef ATMX_OBS_ENABLED
TEST(WaterLevelTest, PredictionMatchesAtmultResultBytesOnExactWorkload) {
  // Block-diagonal with fully dense blocks and no background noise: the
  // density estimator is exact, so the water-level projection published as
  // atmult.waterlevel.predicted_bytes must agree with the realized result
  // size (atmult.result_bytes) up to the density-map grid granularity.
  AtmConfig config;
  config.b_atomic = 16;
  config.llc_bytes = 1 << 20;
  config.num_sockets = 1;
  config.cores_per_socket = 2;
  CooMatrix a_coo = GenerateDiagonalDenseBlocks(128, 4, 32, 1.0, 0, 17);
  ATMatrix a = PartitionToAtm(a_coo, config);
  AtMult op(config);
  ATMatrix c = op.Multiply(a, a);
  ASSERT_GT(c.nnz(), 0);
  const double predicted = obs::MetricsRegistry::Global()
                               .GetGauge("atmult.waterlevel.predicted_bytes")
                               .Value();
  const double actual = obs::MetricsRegistry::Global()
                            .GetGauge("atmult.result_bytes")
                            .Value();
  ASSERT_GT(predicted, 0.0);
  ASSERT_GT(actual, 0.0);
  // A^2 of a disjoint block-diagonal matrix keeps the same fully-dense
  // block structure, so prediction and result agree to within 10%.
  EXPECT_NEAR(predicted / actual, 1.0, 0.1);
}
#endif  // ATMX_OBS_ENABLED

TEST(EffectiveWriteThresholdTest, KeepsRhoWWhenMemoryAllows) {
  DensityMap map = FourBlockMap(0.9, 0.5, 0.2, 0.05);
  EXPECT_DOUBLE_EQ(
      EffectiveWriteThreshold(map, 0.03,
                              std::numeric_limits<std::size_t>::max()),
      0.03);
}

TEST(EffectiveWriteThresholdTest, RaisedUnderMemoryPressure) {
  DensityMap map = FourBlockMap(0.9, 0.5, 0.2, 0.05);
  const double threshold = EffectiveWriteThreshold(map, 0.03, 7000);
  EXPECT_GT(threshold, 0.03);
  // Complies with the limit.
  EXPECT_LE(EstimateMemoryBytes(map, threshold), 7000u);
}

TEST(EffectiveWriteThresholdTest, ReportsFeasibility) {
  DensityMap map = FourBlockMap(0.9, 0.5, 0.2, 0.05);
  bool feasible = false;
  EffectiveWriteThreshold(map, 0.03, 7000, &feasible);
  EXPECT_TRUE(feasible);

  // All blocks at rho 0.3: the all-sparse layout (the memory minimum for
  // rho < 0.5) needs 4 * 0.3 * 256 * 16 = 4915 bytes — a 4000-byte SLA is
  // unachievable and the threshold clamps above all bars.
  DensityMap sparse = FourBlockMap(0.3, 0.3, 0.3, 0.3);
  const double clamped =
      EffectiveWriteThreshold(sparse, 0.03, 4000, &feasible);
  EXPECT_FALSE(feasible);
  EXPECT_GT(clamped, 1.0);
}

// ---- Chain-scope water level ----
//
// Block arithmetic for FourBlockMap(0.9, 0.5, 0.2, 0.05) (16x16 blocks,
// area 256): dense block = 2048 B, sparse block = rho * 4096 B. All-dense
// (any threshold <= 0.05) = 8192 B; memory minimum (threshold 0.5) =
// 2048 + 2048 + 819.2 + 204.8 = 5120 B.

TEST(ChainWaterLevelTest, GenerousBudgetKeepsRhoWriteEverywhere) {
  DensityMap p0 = FourBlockMap(0.9, 0.5, 0.2, 0.05);
  DensityMap p1 = FourBlockMap(0.9, 0.5, 0.2, 0.05);
  ChainWaterLevelResult result =
      SolveChainWaterLevel({&p0, &p1}, {1, -1}, 0.03, 1 << 20);
  EXPECT_TRUE(result.feasible);
  ASSERT_EQ(result.thresholds.size(), 2u);
  EXPECT_DOUBLE_EQ(result.thresholds[0], 0.03);
  EXPECT_DOUBLE_EQ(result.thresholds[1], 0.03);
  // Both products overlap at step 1: the peak is the all-dense sum.
  EXPECT_EQ(result.projected_peak_bytes, 16384u);
}

TEST(ChainWaterLevelTest, SharedBudgetRaisesOverlappingThresholds) {
  // Product 0 is consumed by product 1, so both are resident at step 1
  // (peak 16384 at the optimal level, over a 12000-byte budget). The
  // solver must raise thresholds — but only as far as the budget demands.
  DensityMap p0 = FourBlockMap(0.9, 0.5, 0.2, 0.05);
  DensityMap p1 = FourBlockMap(0.9, 0.5, 0.2, 0.05);
  ChainWaterLevelResult result =
      SolveChainWaterLevel({&p0, &p1}, {1, -1}, 0.03, 12000);
  EXPECT_TRUE(result.feasible);
  ASSERT_EQ(result.thresholds.size(), 2u);
  EXPECT_GT(result.thresholds[0], 0.03);
  EXPECT_GT(result.thresholds[1], 0.03);
  EXPECT_LE(result.projected_peak_bytes, 12000u);
  EXPECT_EQ(result.peak_step, 1);
}

TEST(ChainWaterLevelTest, DisjointLifetimesDoNotShareTheBudget) {
  // p0 dies feeding p1, p1 dies feeding p2: at most two products overlap
  // at any step, so a budget that holds a pair (but not all three)
  // requires no threshold raise.
  DensityMap p0 = FourBlockMap(0.9, 0.5, 0.2, 0.05);
  DensityMap p1 = FourBlockMap(0.9, 0.5, 0.2, 0.05);
  DensityMap p2 = FourBlockMap(0.9, 0.5, 0.2, 0.05);
  ChainWaterLevelResult pairwise =
      SolveChainWaterLevel({&p0, &p1, &p2}, {1, 2, -1}, 0.03, 16500);
  EXPECT_TRUE(pairwise.feasible);
  for (double t : pairwise.thresholds) EXPECT_DOUBLE_EQ(t, 0.03);
  EXPECT_EQ(pairwise.projected_peak_bytes, 16384u);

  // Same budget, but p0 now lives until the root consumes it: all three
  // overlap at step 2 (24576 all-dense) and thresholds must rise.
  ChainWaterLevelResult overlapped =
      SolveChainWaterLevel({&p0, &p1, &p2}, {2, 2, -1}, 0.03, 16500);
  EXPECT_TRUE(overlapped.feasible);
  EXPECT_LE(overlapped.projected_peak_bytes, 16500u);
  double raised = 0.0;
  for (double t : overlapped.thresholds) raised = std::max(raised, t);
  EXPECT_GT(raised, 0.03);
}

TEST(ChainWaterLevelTest, InfeasibleBudgetClampsToMemoryMinimalFloor) {
  // Two overlapping products bottom out at 2 * 5120 = 10240 bytes; a
  // 6000-byte budget is unachievable at any threshold assignment.
  DensityMap p0 = FourBlockMap(0.9, 0.5, 0.2, 0.05);
  DensityMap p1 = FourBlockMap(0.9, 0.5, 0.2, 0.05);
#if defined(ATMX_OBS_ENABLED)
  const std::uint64_t before = obs::MetricsRegistry::Global()
                                   .GetCounter("waterlevel.infeasible")
                                   .Value();
#endif
  ChainWaterLevelResult result =
      SolveChainWaterLevel({&p0, &p1}, {1, -1}, 0.03, 6000);
  EXPECT_FALSE(result.feasible);
  ASSERT_EQ(result.thresholds.size(), 2u);
  // Clamped to the memory-minimal level (dense exactly where rho >= 0.5).
  EXPECT_DOUBLE_EQ(result.thresholds[0], 0.5);
  EXPECT_DOUBLE_EQ(result.thresholds[1], 0.5);
  EXPECT_EQ(result.projected_peak_bytes, 10240u);
#if defined(ATMX_OBS_ENABLED)
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetCounter("waterlevel.infeasible")
                .Value(),
            before + 1);
#endif
}

TEST(ChainWaterLevelTest, EmptyChainIsTriviallyFeasible) {
  ChainWaterLevelResult result = SolveChainWaterLevel({}, {}, 0.03, 0);
  EXPECT_TRUE(result.feasible);
  EXPECT_TRUE(result.thresholds.empty());
  EXPECT_EQ(result.projected_peak_bytes, 0u);
}

// ---- Bitwise pin on the Table I workloads ----

struct PinnedLevels {
  const char* id;
  std::uint64_t hash;
};

void PrintTo(const PinnedLevels& pin, std::ostream* os) { *os << pin.id; }

class WaterLevelPinTest : public ::testing::TestWithParam<PinnedLevels> {};

// Table I workloads at scale 0.05 (seed 0) under the benches' 1 MiB LLC on
// 2 sockets x 2 cores. One hash covers the bits of the A*A estimate and
// EffectiveWriteThreshold's threshold and feasibility on that estimate and
// on A's own map, over a ladder of limits from 0 to above all-dense at
// rho_W 0.03 and 0. An estimator or water-level change that moves any of
// them changes a product's representation decisions.
TEST_P(WaterLevelPinTest, TableI) {
  const PinnedLevels& pin = GetParam();
  AtmConfig config;
  config.llc_bytes = 1 << 20;
  config.num_sockets = 2;
  config.cores_per_socket = 2;
  const ATMatrix a =
      PartitionToAtm(MakeWorkloadMatrix(pin.id, 0.05, /*seed=*/0), config);
  const DensityMap estimate =
      EstimateProductDensity(a.density_map(), a.density_map());
  atmx::testing::Fnv1a h;
  h.AddAll(estimate.values());
  constexpr int kSteps = 64;
  for (const DensityMap* map : {&estimate, &a.density_map()}) {
    const double dense_all =
        static_cast<double>(EstimateMemoryBytes(*map, 0.0));
    for (int step = 0; step <= kSteps + kSteps / 8; ++step) {
      const auto limit =
          static_cast<std::size_t>(dense_all * step / kSteps);
      for (double rho_w : {0.03, 0.0}) {
        bool feasible = false;
        h.AddValue(EffectiveWriteThreshold(*map, rho_w, limit, &feasible));
        h.Add(feasible);
      }
    }
  }
  EXPECT_EQ(h.hash(), pin.hash)
      << pin.id << ": computed 0x" << std::hex << h.hash();
}

constexpr PinnedLevels kPinnedTableI[] = {
    {"R1", 0x94acf3996bae0d76ULL}, {"R2", 0x8ac35e7c08a8565aULL},
    {"R3", 0x2cd36dab6bdc0e83ULL}, {"R4", 0x0e95304175fc0548ULL},
    {"R5", 0xa8e6fce2884bd51fULL}, {"R6", 0x79cfbee8fcb56380ULL},
    {"R7", 0xc251bd6753de979cULL}, {"R8", 0x507dda5b41a0cffcULL},
    {"R9", 0x9a0bcafbd207d89bULL}, {"G1", 0x34938213fe61cc73ULL},
    {"G2", 0x0e5e5257e627cb86ULL}, {"G3", 0xb483823f3368ec52ULL},
    {"G4", 0x97fc11553546a78bULL}, {"G5", 0x1da55d66da0f4024ULL},
    {"G6", 0xf910e995b0bf279aULL}, {"G7", 0xc4ed955844f26e39ULL},
    {"G8", 0x0b13bb06db994721ULL}, {"G9", 0x4ae559802adc28cdULL},
};

INSTANTIATE_TEST_SUITE_P(, WaterLevelPinTest,
                         ::testing::ValuesIn(kPinnedTableI),
                         [](const auto& info) {
                           return std::string(info.param.id);
                         });

}  // namespace
}  // namespace atmx
