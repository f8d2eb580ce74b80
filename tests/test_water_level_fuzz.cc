// Property fuzz for the water-level method: for random density maps and
// random limits, the solver's answer must match a brute-force scan over
// every candidate threshold — feasible whenever any threshold is, minimal
// memory when none is, and never dominated by a lower feasible level.

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "estimate/density_estimator.h"
#include "estimate/water_level.h"

namespace atmx {
namespace {

DensityMap RandomMap(index_t grid, std::uint64_t seed) {
  DensityMap map(grid * 16, grid * 16, 16);
  Rng rng(seed);
  for (index_t bi = 0; bi < grid; ++bi) {
    for (index_t bj = 0; bj < grid; ++bj) {
      // Mixture: many empty/faint blocks, some mid, some dense.
      const double u = rng.NextDouble();
      double rho;
      if (u < 0.4) {
        rho = 0.0;
      } else if (u < 0.7) {
        rho = rng.NextDouble() * 0.1;
      } else if (u < 0.9) {
        rho = 0.2 + rng.NextDouble() * 0.4;
      } else {
        rho = 0.7 + rng.NextDouble() * 0.3;
      }
      map.Set(bi, bj, rho);
    }
  }
  return map;
}

class WaterLevelFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WaterLevelFuzzTest, MatchesBruteForce) {
  const std::uint64_t seed = GetParam();
  DensityMap map = RandomMap(8, seed);
  Rng rng(seed * 31 + 1);

  // Candidate thresholds: all distinct block densities plus sentinels.
  std::vector<double> candidates = {0.0, 1.0 + 1e-12};
  for (double v : map.values()) candidates.push_back(v);

  for (int round = 0; round < 6; ++round) {
    const std::size_t dense_all = EstimateMemoryBytes(map, 0.0);
    const std::size_t limit = static_cast<std::size_t>(
        rng.NextDouble() * 1.2 * static_cast<double>(dense_all));

    // The per-product water level at the floor rho_W = 0, and the
    // one-product chain solve it is made of.
    bool feasible = false;
    const double threshold =
        EffectiveWriteThreshold(map, 0.0, limit, &feasible);
    const ChainWaterLevelResult chain =
        SolveChainWaterLevel({&map}, {-1}, 0.0, limit);

    // Brute force: lowest feasible threshold, else global minimum memory.
    bool any_feasible = false;
    double best_feasible = 2.0;
    std::size_t min_memory = std::numeric_limits<std::size_t>::max();
    for (double t : candidates) {
      const std::size_t memory = EstimateMemoryBytes(map, t);
      min_memory = std::min(min_memory, memory);
      if (memory <= limit) {
        any_feasible = true;
        best_feasible = std::min(best_feasible, t);
      }
    }

    EXPECT_EQ(feasible, any_feasible) << "limit=" << limit;
    EXPECT_EQ(chain.feasible, any_feasible) << "limit=" << limit;
    EXPECT_EQ(chain.thresholds[0], threshold) << "limit=" << limit;
    if (any_feasible) {
      // The solver's level must be feasible (up to fp accumulation) and
      // as low as brute force's.
      EXPECT_LE(static_cast<double>(EstimateMemoryBytes(map, threshold)),
                static_cast<double>(limit) + 8.0);
      EXPECT_NEAR(threshold, best_feasible, 1e-12);
    } else {
      // Best effort: projected memory equals the global minimum (up to fp
      // accumulation order).
      EXPECT_NEAR(static_cast<double>(EstimateMemoryBytes(map, threshold)),
                  static_cast<double>(min_memory), 8.0);
    }
    // The solver's projection matches the direct evaluation up to
    // floating-point accumulation order (it sums in density order).
    const double direct = static_cast<double>(
        EstimateMemoryBytes(map, chain.thresholds[0]));
    EXPECT_NEAR(static_cast<double>(chain.projected_peak_bytes), direct, 8.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaterLevelFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(EstimatorMonotonicityTest, DenserInputsGiveDenserEstimates) {
  DensityMap thin(64, 64, 16), thick(64, 64, 16);
  for (index_t bi = 0; bi < 4; ++bi) {
    for (index_t bj = 0; bj < 4; ++bj) {
      thin.Set(bi, bj, 0.05);
      thick.Set(bi, bj, 0.20);
    }
  }
  DensityMap c_thin = EstimateProductDensity(thin, thin);
  DensityMap c_thick = EstimateProductDensity(thick, thick);
  for (index_t bi = 0; bi < 4; ++bi) {
    for (index_t bj = 0; bj < 4; ++bj) {
      EXPECT_GT(c_thick.At(bi, bj), c_thin.At(bi, bj));
    }
  }
}

TEST(EstimatorMonotonicityTest, EstimateIsAtMostOne) {
  DensityMap full(64, 64, 16);
  for (index_t bi = 0; bi < 4; ++bi) {
    for (index_t bj = 0; bj < 4; ++bj) full.Set(bi, bj, 0.99);
  }
  DensityMap c = EstimateProductDensity(full, full);
  for (index_t bi = 0; bi < 4; ++bi) {
    for (index_t bj = 0; bj < 4; ++bj) {
      EXPECT_LE(c.At(bi, bj), 1.0);
      EXPECT_GE(c.At(bi, bj), 0.99);
    }
  }
}

}  // namespace
}  // namespace atmx
