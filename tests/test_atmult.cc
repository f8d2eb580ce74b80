// End-to-end correctness of the ATMULT operator across matrix topologies,
// tiling modes, optimization-step configurations (the Fig. 10 ablation
// levels), parallelism settings, and memory limits. Every result is
// validated against the plain Gustavson baseline.

#include "ops/atmult.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <utility>

#include "gen/rmat.h"
#include "gen/synthetic.h"
#include "gen/workloads.h"
#include "kernels/kernel_dispatch.h"
#include "kernels/sparse_kernels.h"
#include "ops/chain.h"
#include "ops/elementwise.h"
#include "ops/explain.h"
#include "storage/convert.h"
#include "tests/test_util.h"
#include "tile/partitioner.h"
#if defined(ATMX_OBS_ENABLED)
#include "obs/metrics.h"
#endif

namespace atmx {
namespace {

using atmx::testing::BlockDiagonal;
using atmx::testing::ExpectAtmNearDense;
using atmx::testing::ExpectDenseNear;
using atmx::testing::RandomCoo;

AtmConfig TestConfig() {
  AtmConfig config;
  config.b_atomic = 16;
  config.llc_bytes = 1 << 20;
  config.num_sockets = 2;
  config.cores_per_socket = 2;
  return config;
}

void ExpectProductMatches(const CooMatrix& a_coo, const CooMatrix& b_coo,
                          const AtmConfig& config,
                          AtMultStats* stats = nullptr) {
  ATMatrix a = PartitionToAtm(a_coo, config);
  ATMatrix b = PartitionToAtm(b_coo, config);
  AtMult op(config);
  ATMatrix c = op.Multiply(a, b, stats);
  EXPECT_TRUE(c.CheckValid());

  CsrMatrix expected = SpGemmCsr(CooToCsr(a_coo), CooToCsr(b_coo));
  ExpectDenseNear(CsrToDense(expected), CsrToDense(c.ToCsr()), 1e-9);
}

TEST(AtMultTest, UniformSparseSelfMultiply) {
  CooMatrix coo = RandomCoo(96, 96, 900, 1);
  ExpectProductMatches(coo, coo, TestConfig());
}

TEST(AtMultTest, RectangularShapes) {
  CooMatrix a = RandomCoo(70, 40, 500, 2);
  CooMatrix b = RandomCoo(40, 110, 600, 3);
  ExpectProductMatches(a, b, TestConfig());
}

TEST(AtMultTest, HeterogeneousTimesUniform) {
  CooMatrix a = GenerateDiagonalDenseBlocks(128, 4, 24, 0.9, 300, 4);
  CooMatrix b = RandomCoo(128, 128, 1000, 5);
  ExpectProductMatches(a, b, TestConfig());
}

TEST(AtMultTest, SparseTimesFullDense) {
  // The paper's conversion stress test (section II-C3): heterogeneous
  // sparse times a full matrix forces tile conversions.
  CooMatrix a = GenerateDiagonalDenseBlocks(96, 3, 16, 0.9, 200, 6);
  CooMatrix b = DenseToCoo(GenerateFullDense(96, 48, 7));
  AtMultStats stats;
  ExpectProductMatches(a, b, TestConfig(), &stats);
  EXPECT_GT(stats.pair_multiplications, 0);
}

TEST(AtMultTest, FullDenseTimesSparse) {
  CooMatrix a = DenseToCoo(GenerateFullDense(48, 96, 8));
  CooMatrix b = GenerateDiagonalDenseBlocks(96, 3, 16, 0.9, 200, 9);
  ExpectProductMatches(a, b, TestConfig());
}

TEST(AtMultTest, EmptyOperand) {
  CooMatrix a(64, 64);
  CooMatrix b = RandomCoo(64, 64, 200, 10);
  AtmConfig config = TestConfig();
  ATMatrix atm_a = PartitionToAtm(a, config);
  ATMatrix atm_b = PartitionToAtm(b, config);
  AtMult op(config);
  ATMatrix c = op.Multiply(atm_a, atm_b);
  EXPECT_EQ(c.nnz(), 0);
  EXPECT_TRUE(c.CheckValid());
}

TEST(AtMultTest, SkewedRmatSelfMultiply) {
  RmatParams params;
  params.rows = params.cols = 128;
  params.nnz = 1500;
  params.a = 0.65;
  params.b = 0.12;
  params.c = 0.12;
  params.seed = 11;
  CooMatrix coo = GenerateRmat(params);
  ExpectProductMatches(coo, coo, TestConfig());
}

// --- Fig. 10 optimization-step configurations, all must be correct. ------

struct StepConfig {
  const char* name;
  TilingMode tiling;
  bool estimation;
  bool mixed;
  bool conversion;
};

class AtMultStepTest : public ::testing::TestWithParam<StepConfig> {};

TEST_P(AtMultStepTest, AllOptimizationLevelsProduceTheSameResult) {
  const StepConfig& step = GetParam();
  AtmConfig config = TestConfig();
  config.tiling = step.tiling;
  config.density_estimation = step.estimation;
  config.mixed_tiles = step.mixed;
  config.dynamic_conversion = step.conversion;

  CooMatrix a = GenerateDiagonalDenseBlocks(96, 3, 20, 0.85, 400, 12);
  ExpectProductMatches(a, a, config);
}

INSTANTIATE_TEST_SUITE_P(
    Steps, AtMultStepTest,
    ::testing::Values(
        StepConfig{"step1_baseline", TilingMode::kNone, false, false, false},
        StepConfig{"step2_fixed_sparse", TilingMode::kFixed, false, false,
                   false},
        StepConfig{"step3_fixed_est", TilingMode::kFixed, true, false, false},
        StepConfig{"step4_fixed_mixed", TilingMode::kFixed, true, true,
                   false},
        StepConfig{"step5_adaptive", TilingMode::kAdaptive, true, true,
                   false},
        StepConfig{"step6_atmult", TilingMode::kAdaptive, true, true, true}),
    [](const ::testing::TestParamInfo<StepConfig>& info) {
      return info.param.name;
    });

// --- Parallelism configurations. -----------------------------------------

struct ParallelCase {
  int teams;
  int threads;
};

class AtMultParallelTest : public ::testing::TestWithParam<ParallelCase> {};

TEST_P(AtMultParallelTest, ResultIndependentOfParallelism) {
  AtmConfig config = TestConfig();
  config.num_sockets = GetParam().teams;
  config.cores_per_socket = GetParam().threads;
  CooMatrix a = GenerateDiagonalDenseBlocks(128, 4, 24, 0.9, 500, 13);
  CooMatrix b = RandomCoo(128, 128, 1200, 14);
  ExpectProductMatches(a, b, config);
}

INSTANTIATE_TEST_SUITE_P(Parallelism, AtMultParallelTest,
                         ::testing::Values(ParallelCase{1, 1},
                                           ParallelCase{1, 4},
                                           ParallelCase{2, 2},
                                           ParallelCase{4, 1},
                                           ParallelCase{3, 3}));

// --- Stats and memory-limit behaviour. -----------------------------------

TEST(AtMultStatsTest, BreakdownIsPopulated) {
  AtmConfig config = TestConfig();
  CooMatrix a = GenerateDiagonalDenseBlocks(128, 4, 24, 0.9, 500, 15);
  ATMatrix atm = PartitionToAtm(a, config);
  AtMult op(config);
  AtMultStats stats;
  ATMatrix c = op.Multiply(atm, atm, &stats);
  EXPECT_GT(stats.total_seconds, 0.0);
  EXPECT_GT(stats.multiply_seconds, 0.0);
  EXPECT_GE(stats.estimate_seconds, 0.0);
  EXPECT_GT(stats.pair_multiplications, 0);
  // Every tile-pair multiplication is counted in exactly one kernel
  // variant, so the per-variant counters sum to the pair count.
  EXPECT_EQ(stats.TotalKernelInvocations(), stats.pair_multiplications);
  EXPECT_EQ(stats.dense_result_tiles + stats.sparse_result_tiles,
            c.num_tiles());
  EXPECT_NE(stats.ToString().find("kernels={"), std::string::npos);
  EXPECT_GE(stats.LocalFraction(), 0.0);
  EXPECT_LE(stats.LocalFraction(), 1.0);
  EXPECT_NE(stats.ToString().find("pairs="), std::string::npos);
}

TEST(AtMultStatsTest, MemoryLimitRaisesWriteThreshold) {
  AtmConfig config = TestConfig();
  CooMatrix a = GenerateDiagonalDenseBlocks(128, 4, 32, 0.95, 600, 16);

  AtMult unlimited(config);
  ATMatrix atm = PartitionToAtm(a, config);
  AtMultStats stats_unlimited;
  ATMatrix c1 = unlimited.Multiply(atm, atm, &stats_unlimited);

  config.result_mem_limit_bytes = c1.MemoryBytes() / 2;
  AtMult limited(config);
  AtMultStats stats_limited;
  ATMatrix c2 = limited.Multiply(atm, atm, &stats_limited);

  EXPECT_GE(stats_limited.effective_write_threshold,
            stats_unlimited.effective_write_threshold);
  // Estimated block densities steer the layout; allow a small estimation
  // slack over the unconstrained size.
  EXPECT_LE(static_cast<double>(c2.MemoryBytes()),
            1.05 * static_cast<double>(c1.MemoryBytes()));
  // Same numeric content regardless of representation.
  ExpectDenseNear(CsrToDense(c1.ToCsr()), CsrToDense(c2.ToCsr()), 1e-9);
}

TEST(AtMultStatsTest, ConversionsHappenForSparseTimesFullDense) {
  AtmConfig config = TestConfig();
  // Small LLC: the sparse memory bound of Eq. (2) keeps the moderately
  // dense blocks as *separate* tiles instead of melting them with the
  // empty background (one big tile would dilute the window density).
  config.llc_bytes = 16 * 1024;
  // Tiles just below the read threshold stay sparse at partitioning time;
  // against a full dense B the optimizer should convert (section IV-D).
  CooMatrix a = GenerateDiagonalDenseBlocks(96, 3, 32, 0.22, 100, 17);
  CooMatrix b = DenseToCoo(GenerateFullDense(96, 96, 18));
  ATMatrix atm_a = PartitionToAtm(a, config);
  ATMatrix atm_b = PartitionToAtm(b, config);
  // Tile windows here are narrow enough for the SpMM panel rate, which
  // (intentionally) keeps A sparse under the default cost model; level the
  // panel rate so this test keeps exercising the JIT conversion machinery.
  CostParams params;
  params.c_sdd_panel = params.c_sdd;
  AtMult op(config, CostModel(params));
  AtMultStats stats;
  ATMatrix c = op.Multiply(atm_a, atm_b, &stats);
  EXPECT_GT(stats.sparse_to_dense_conversions, 0);
  CsrMatrix expected = SpGemmCsr(CooToCsr(a), CooToCsr(b));
  ExpectDenseNear(CsrToDense(expected), CsrToDense(c.ToCsr()), 1e-9);
}

// One team, small LLC: the decision sequence is deterministic and tiles
// are small enough for the optimizer to convert.
AtmConfig ConversionConfig() {
  AtmConfig config = TestConfig();
  config.num_sockets = 1;
  config.llc_bytes = 16 * 1024;
  return config;
}

// Dense diagonal blocks next to tiles just below the read threshold: the
// sparse tiles meet dense partners and the optimizer converts them.
CooMatrix ConversionProneCoo() {
  const CooMatrix blocks =
      GenerateDiagonalDenseBlocks(96, 3, 32, 0.22, 100, 17);
  CooMatrix coo(96, 96);
  for (const CooEntry& e : blocks.entries()) {
    if (e.row >= 32 || e.col < 64) coo.Add(e.row, e.col, e.value);
  }
  // ...plus one full block off the diagonal.
  for (index_t r = 0; r < 32; ++r) {
    for (index_t c = 64; c < 96; ++c) {
      coo.Add(r, c, 1.0 + 0.01 * static_cast<double>(r + c));
    }
  }
  return coo;
}

AtMult ConversionProneOp(const AtmConfig& config) {
  CostParams params;
  params.c_sdd_panel = params.c_sdd;
  return AtMult(config, CostModel(params));
}

// Each operand converts through its own JIT conversion cache: multiplying
// a matrix by itself must make exactly the decisions of multiplying it by
// a copy — a tile converted for the left operand is not "cached" for the
// right one.
TEST(AtMultStatsTest, OperandSidesNeverShareConversions) {
  const AtmConfig config = ConversionConfig();
  const CooMatrix coo = ConversionProneCoo();
  ATMatrix a = PartitionToAtm(coo, config);
  ATMatrix copy_of_a = PartitionToAtm(coo, config);
  const AtMult op = ConversionProneOp(config);

  AtMultStats self_stats;
  AtMultStats copy_stats;
  const ATMatrix self = op.Multiply(a, a, &self_stats);
  const ATMatrix copy = op.Multiply(a, copy_of_a, &copy_stats);
  ASSERT_GT(self_stats.sparse_to_dense_conversions +
                self_stats.dense_to_sparse_conversions,
            0);
  EXPECT_EQ(self_stats.sparse_to_dense_conversions,
            copy_stats.sparse_to_dense_conversions);
  EXPECT_EQ(self_stats.dense_to_sparse_conversions,
            copy_stats.dense_to_sparse_conversions);
  for (int v = 0; v < kNumKernelTypes; ++v) {
    EXPECT_EQ(self_stats.kernel_invocations[v],
              copy_stats.kernel_invocations[v])
        << KernelTypeName(static_cast<KernelType>(v));
  }
  ExpectDenseNear(CsrToDense(self.ToCsr()), CsrToDense(copy.ToCsr()), 0.0);
}

#if defined(ATMX_OBS_ENABLED)
// Dense P, near-threshold sparse X and dense S in a 2 x 2 tile grid:
// task (0, 1) of A * A runs the pair (P, X), which converts X, before
// the pair (X, S), which reads X as its A operand.
CooMatrix SideSwitchingCoo() {
  CooMatrix coo(64, 64);
  for (index_t r = 0; r < 32; ++r) {
    for (index_t c = 0; c < 32; ++c) {
      coo.Add(r, c, 1.0 + 0.01 * static_cast<double>(r + c));
      coo.Add(r + 32, c + 32, 2.0 - 0.01 * static_cast<double>(r + c));
    }
  }
  const CooMatrix x = GenerateDiagonalDenseBlocks(32, 1, 32, 0.22, 0, 5);
  for (const CooEntry& e : x.entries()) coo.Add(e.row, e.col + 32, e.value);
  return coo;
}

// The decision table counts a JIT conversion only where one ran: a
// representation change served by the conversion cache is not one. On
// one team its count is exactly the operator's conversion stats.
TEST(AtMultStatsTest, DecisionTableCountsOnlyFreshConversions) {
  const AtmConfig config = ConversionConfig();
  const ATMatrix a = PartitionToAtm(ConversionProneCoo(), config);
  const AtMult op = ConversionProneOp(config);
  obs::AuditLedger& ledger = obs::AuditLedger::Global();
  ledger.Clear();
  ledger.SetEnabled(true);
  AtMultStats stats;
  (void)op.Multiply(a, a, &stats);
  ledger.SetEnabled(false);
  const index_t conversions =
      stats.sparse_to_dense_conversions + stats.dense_to_sparse_conversions;
  ASSERT_GT(conversions, 0);
  const obs::AuditLedgerDoc doc = ledger.Snapshot();
  const std::string summary = FormatDecisionLog(doc.repr);
  EXPECT_NE(summary.find(std::to_string(doc.repr.size()) + " decisions, " +
                         std::to_string(conversions) + " JIT conversions"),
            std::string::npos)
      << summary;

  // A chain multiplying a source matrix by itself gives both operands one
  // conversion cache: X, converted by one pair of a task on the B side, is
  // no fresh conversion for the later pair reading it on the A side.
  const ATMatrix s = PartitionToAtm(SideSwitchingCoo(), config);
  const std::vector<const ATMatrix*> chain = {&s, &s, &s};
  const ChainPlan plan = PlanChain(
      {&s.density_map(), &s.density_map(), &s.density_map()},
      op.cost_model(), config.rho_write);
  ledger.Clear();
  ledger.SetEnabled(true);
  ChainExecStats chain_stats;
  (void)ExecuteChain(chain, plan, op, &chain_stats);
  ledger.SetEnabled(false);
  const index_t chain_conversions =
      chain_stats.total.sparse_to_dense_conversions +
      chain_stats.total.dense_to_sparse_conversions;
  ASSERT_GT(chain_conversions, 0);
  const std::string chain_summary =
      FormatDecisionLog(ledger.Snapshot().repr);
  EXPECT_NE(chain_summary.find(" decisions, " +
                               std::to_string(chain_conversions) +
                               " JIT conversions"),
            std::string::npos)
      << chain_summary;
  ledger.Clear();
}
#endif

// --- Tile close: a dense-planned tile is re-decided from its realized
// density. ------------------------------------------------------------------

// The banded R8 surrogate is the estimator's outlier. Under the end-to-end
// benchmark's setting (2 x 2 teams, 1 MiB LLC) its 464 x 464 corner tile
// is estimated at 0.083, planned dense, and realizes 0.027: it must close
// as CSR, like every other tile realizing below rho0_W.
TEST(AtMultTest, OverestimatedDenseTilesCloseAsCsr) {
  const CooMatrix coo = MakeWorkloadMatrix("R8", 0.03, 0);
  AtmConfig config;
  config.num_sockets = 2;
  config.cores_per_socket = 2;
  config.llc_bytes = 1 << 20;
  AtMultStats stats;
  const ATMatrix a = PartitionToAtm(coo, config);
  const ATMatrix c = AtMult(config).Multiply(a, a, &stats);
  EXPECT_GE(stats.compressed_result_tiles, 1);
  for (const Tile& t : c.tiles()) {
    if (t.is_dense()) {
      EXPECT_GE(t.Density(), config.rho_write)
          << "dense tile at (" << t.row0() << "," << t.col0() << ")";
    }
  }
  const CsrMatrix csr = CooToCsr(coo);
  ExpectAtmNearDense(CsrToDense(SpGemmCsr(csr, csr)), c);

  const CsrMatrix want = c.ToCsr();
  for (int teams : {1, 4}) {
    config.num_sockets = teams;
    const ATMatrix at = PartitionToAtm(coo, config);
    const CsrMatrix got = AtMult(config).Multiply(at, at).ToCsr();
    EXPECT_EQ(got.row_ptr(), want.row_ptr()) << "teams=" << teams;
    EXPECT_EQ(got.col_idx(), want.col_idx()) << "teams=" << teams;
    EXPECT_EQ(got.values(), want.values()) << "teams=" << teams;
  }
}

// diag(banded, uniform) with two 512 x 512 bands. On one team without work
// stealing tasks run in (ti, tj) order, and A * A has two dense-planned
// 512 x 512 diagonal tiles: the banded band's (estimated 0.036, realized
// 0.018) closes as CSR and parks its accumulator, and the uniform band's
// (0.065) stays dense in that accumulator. Every value must be exactly the
// reference's: nothing the first tile wrote may leak into the second.
TEST(AtMultTest, ParkedAccumulatorIsReusedAllZero) {
  AtmConfig config = TestConfig();
  config.num_sockets = 1;
  config.cores_per_socket = 1;
  config.work_stealing = false;
  config.llc_bytes = 256 * 1024;
  config.b_atomic = 32;
  const CooMatrix a_coo = BlockDiagonal(GenerateBanded(512, 2, 1.0, 5),
                                        GenerateUniform(512, 512, 3000, 6));
  const ATMatrix a = PartitionToAtm(a_coo, config);
  // MultiplyAdd's accumulator has entries in blocks of tile (0, 0) that
  // A * A cannot reach: the close must count and copy those blocks too.
  CooMatrix c_coo(1024, 1024);
  c_coo.Add(0, 500, 1.5);
  c_coo.Add(40, 300, -0.25);
  c_coo.Add(511, 7, 2.0);
  const ATMatrix c_init = PartitionToAtm(c_coo, config);
  const CsrMatrix a_csr = CooToCsr(a_coo);
  const DenseMatrix product = CsrToDense(SpGemmCsr(a_csr, a_csr));
  const AtMult op(config);

  for (const bool add : {false, true}) {
    DenseMatrix expected = product;
    if (add) {
      for (const CooEntry& e : c_coo.entries()) {
        ASSERT_EQ(expected.At(e.row, e.col), 0.0);
        expected.At(e.row, e.col) = e.value;
      }
    }
    AtMultStats stats;
    const ATMatrix c =
        add ? op.MultiplyAdd(c_init, a, a, &stats) : op.Multiply(a, a, &stats);
    ASSERT_EQ(c.num_tiles(), 4) << "add=" << add;
    EXPECT_EQ(stats.compressed_result_tiles, 1) << "add=" << add;
    EXPECT_EQ(stats.dense_result_tiles, 1) << "add=" << add;
    for (const Tile& t : c.tiles()) {
      index_t mismatches = 0;
      for (index_t i = t.row0(); i < t.row_end(); ++i) {
        for (index_t j = t.col0(); j < t.col_end(); ++j) {
          mismatches += t.At(i, j) != expected.At(i, j);
        }
      }
      EXPECT_EQ(mismatches, 0) << "add=" << add << " tile (" << t.row0()
                               << "," << t.col0() << ") "
                               << TileKindName(t.kind());
    }
  }
}

// A dense-planned tile's accumulator is allocated without a zero-fill; the
// tile task's row loop zeroes, seeds, multiplies and counts it in 16-row
// chunks on the team's threads. Debug builds fill the allocation with
// NaNs, so a row the loop misses shows as NaN values and a wrong nnz.
// A = diag(X, Y) with 32-row atomic blocks: the 68-row band is not a
// multiple of 16, and every block spans two chunks. X has an empty block
// row, so A * A's dense-planned tiles over X contain blocks the estimate
// leaves unreached. MultiplyAdd's accumulator fills the (X rows, Y cols)
// region, which makes its tiles dense-planned with seeds but no pair, and
// has runs of entries across chunk and tile boundaries.
TEST(AtMultTest, DenseRowChunksCoverEveryRow) {
  AtmConfig config = TestConfig();
  config.b_atomic = 32;
  config.llc_bytes = 128 * 1024;
  config.work_stealing = true;
  const index_t nx = 256, ny = 68, n = nx + ny;
  const CooMatrix x_full = GenerateUniform(nx, nx, nx * nx / 10, 31);
  CooMatrix x(nx, nx);
  for (const CooEntry& e : x_full.entries()) {
    if (e.row < 32 || e.row >= 64) x.Add(e.row, e.col, e.value);
  }
  const CooMatrix a_coo =
      BlockDiagonal(x, GenerateUniform(ny, ny, ny * ny / 6, 32));
  CooMatrix c_coo(n, n);
  for (index_t i = 0; i < nx; ++i) {
    for (index_t j = nx; j < n; j += 2) c_coo.Add(i, j, 0.5 + i);
  }
  for (index_t i = 10; i < 150; ++i) {
    c_coo.Add(i, 3, -1.0 - i);
    c_coo.Add(i, 150, 0.25 * i);
  }
  for (index_t i = 250; i < n; ++i) c_coo.Add(i, 301, 2.0 * i);
  const CsrMatrix a_csr = CooToCsr(a_coo);
  const DenseMatrix product = CsrToDense(SpGemmCsr(a_csr, a_csr));

  for (const bool add : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "add=" << add);
    DenseMatrix expected = product;
    if (add) {
      for (const CooEntry& e : c_coo.entries()) {
        expected.At(e.row, e.col) += e.value;
      }
    }
    CsrMatrix first;
    for (const int cores : {1, 2, 3}) {
      SCOPED_TRACE(::testing::Message() << "cores_per_socket=" << cores);
      config.cores_per_socket = cores;
      const ATMatrix a = PartitionToAtm(a_coo, config);
      const ATMatrix c_init = PartitionToAtm(c_coo, config);
      const AtMult op(config);
      AtMultStats stats;
      const ATMatrix c = add ? op.MultiplyAdd(c_init, a, a, &stats)
                             : op.Multiply(a, a, &stats);
      EXPECT_EQ(stats.dense_result_tiles, add ? 7 : 5);
      for (const Tile& t : c.tiles()) {
        if (t.is_dense()) {
          EXPECT_EQ(t.nnz(), t.dense().CountNonZeros())
              << "dense tile at (" << t.row0() << "," << t.col0() << ")";
        }
      }
      // A NaN differs from every expected value.
      const CsrMatrix csr = c.ToCsr();
      const DenseMatrix got = CsrToDense(csr);
      index_t mismatches = 0;
      for (index_t i = 0; i < n; ++i) {
        for (index_t j = 0; j < n; ++j) {
          mismatches +=
              !(std::fabs(got.At(i, j) - expected.At(i, j)) <= 1e-9);
        }
      }
      EXPECT_EQ(mismatches, 0);
      if (cores == 1) {
        first = csr;
      } else {
        EXPECT_EQ(csr.row_ptr(), first.row_ptr());
        EXPECT_EQ(csr.col_idx(), first.col_idx());
        EXPECT_EQ(csr.values(), first.values());
      }
    }
  }

#if defined(ATMX_OBS_ENABLED)
  // On one team of two threads, each dense-planned tile with pairs and
  // more than one chunk makes one parallel run, not one per pair.
  config.num_sockets = 1;
  config.cores_per_socket = 2;
  const ATMatrix a = PartitionToAtm(a_coo, config);
  const MultiplyPlan plan = ExplainMultiply(a, a, config);
  std::set<std::pair<index_t, index_t>> chunked_tiles;
  for (const ReprAuditRecord& r : plan.pairs) {
    ASSERT_TRUE(r.c_dense) << "tile (" << r.ti << "," << r.tj << ")";
    if (r.m > 16) chunked_tiles.emplace(r.ti, r.tj);
  }
  ASSERT_LT(chunked_tiles.size(), plan.pairs.size());
  const obs::Counter& runs =
      obs::MetricsRegistry::Global().GetCounter("threadpool.parallel_runs");
  const std::uint64_t before = runs.Value();
  AtMult(config).Multiply(a, a);
  EXPECT_EQ(runs.Value() - before, chunked_tiles.size());
#endif
}

// --- Column-band slices of wide right-operand tiles. ----------------------

// Dense diagonal blocks on a uniform background. At 8-element atomic
// blocks and a 64 KiB LLC the diagonal blocks cut the columns into 20
// narrow bands, and the background melts into sparse tiles that span up to
// ten of them. Seven of those pass the slicing rule; the 32 x 32 tiles
// beside the diagonal blocks span four bands with fewer than 96 entries
// and do not.
CooMatrix WideTileMatrix() {
  return GenerateDiagonalDenseBlocks(256, 4, 24, 0.9, 5000, 41);
}

// [w; u] for a 256 x 256 hypersparse u (32 entries): w's rows make
// dense-target tasks of a product with w, u's rows sparse-target ones.
CooMatrix StackedOverHypersparse(const CooMatrix& w) {
  const CooMatrix u = GenerateUniform(256, 256, 32, 42);
  CooMatrix out(w.rows() + u.rows(), w.cols());
  for (const CooEntry& e : w.entries()) out.Add(e.row, e.col, e.value);
  for (const CooEntry& e : u.entries()) {
    out.Add(w.rows() + e.row, e.col, e.value);
  }
  return out;
}

AtmConfig WideTileConfig(int teams) {
  AtmConfig config;
  config.b_atomic = 8;
  config.llc_bytes = 64 * 1024;
  config.num_sockets = teams;
  config.cores_per_socket = 2;
  config.work_stealing = true;
  config.fused_chains = true;
  return config;
}

index_t ColBandsSpanned(const ATMatrix& m, const Tile& t) {
  const auto& bounds = m.col_bounds();
  return std::lower_bound(bounds.begin(), bounds.end(), t.col_end()) -
         std::lower_bound(bounds.begin(), bounds.end(), t.col0());
}

// Planned pairs of a * b per kernel variant that read a stored-sparse B
// tile's column-band slice.
std::array<index_t, kNumKernelTypes> PairsReadingSlices(
    const ATMatrix& a, const ATMatrix& b, const AtmConfig& config) {
  std::array<index_t, kNumKernelTypes> pairs{};
  for (const ReprAuditRecord& r : ExplainMultiply(a, b, config).pairs) {
    if (r.b_dense()) continue;
    for (const index_t idx : b.TilesInColBand(r.tj)) {
      const Tile& t = b.tiles()[static_cast<std::size_t>(idx)];
      if (t.row0() <= r.k0 && r.k0 < t.row_end() &&
          b.col_band_slices().Find(idx, r.tj) != nullptr) {
        ++pairs[static_cast<std::size_t>(r.kernel)];
      }
    }
  }
  return pairs;
}

void ExpectSameCsr(const CsrMatrix& want, const CsrMatrix& got) {
  EXPECT_EQ(got.row_ptr(), want.row_ptr());
  EXPECT_EQ(got.col_idx(), want.col_idx());
  EXPECT_EQ(got.values(), want.values());
}

// B's wide sparse tiles that pass the slicing rule are read through their
// column-band slices by the dense-target and sparse-target kernels alike.
// Every value must be the Gustavson reference's, and bitwise the same for
// every team count, and in the first calls (which build the slices) and
// the second.
TEST(AtMultTest, WideRightTilesReadColumnBandSlices) {
  const CooMatrix b_coo = WideTileMatrix();
  const CooMatrix a_coo = StackedOverHypersparse(b_coo);
  const CooMatrix c_coo = RandomCoo(512, 256, 1500, 43);
  const CsrMatrix b_csr = CooToCsr(b_coo);
  const CsrMatrix ab = SpGemmCsr(CooToCsr(a_coo), b_csr);
  const DenseMatrix want_product = CsrToDense(ab);
  DenseMatrix want_sum = want_product;
  for (const CooEntry& e : c_coo.entries()) {
    want_sum.At(e.row, e.col) += e.value;
  }
  const DenseMatrix want_chain = CsrToDense(SpGemmCsr(ab, b_csr));

  // Product, MultiplyAdd and fused chain results of the first calls on one
  // team.
  std::array<CsrMatrix, 3> first;
  for (const int teams : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "teams=" << teams);
    const AtmConfig config = WideTileConfig(teams);
    const ATMatrix a = PartitionToAtm(a_coo, config);
    const ATMatrix b = PartitionToAtm(b_coo, config);
    const ATMatrix c_init = PartitionToAtm(c_coo, config);
    const AtMult op(config);
    const ChainPlan plan =
        PlanChain({&a.density_map(), &b.density_map(), &b.density_map()},
                  CostModel(), config.rho_write);
    for (int round = 0; round < 2; ++round) {
      SCOPED_TRACE(::testing::Message() << "round=" << round);
      AtMultStats stats;
      const ATMatrix product = op.Multiply(a, b, &stats);
      EXPECT_GT(stats.kernel_invocations[static_cast<int>(KernelType::kSSD)],
                0);
      EXPECT_GT(stats.kernel_invocations[static_cast<int>(KernelType::kSSS)],
                0);
      ExpectAtmNearDense(want_product, product);
      const ATMatrix sum = op.MultiplyAdd(c_init, a, b);
      ExpectAtmNearDense(want_sum, sum);
      ChainExecStats chain_stats;
      const ATMatrix chain = ExecuteChain({&a, &b, &b}, plan, op, &chain_stats);
      EXPECT_TRUE(chain_stats.fused);
      ExpectAtmNearDense(want_chain, chain);
      const std::array<CsrMatrix, 3> got = {product.ToCsr(), sum.ToCsr(),
                                            chain.ToCsr()};
      for (std::size_t r = 0; r < got.size(); ++r) {
        if (teams == 1 && round == 0) {
          first[r] = got[r];
        } else {
          SCOPED_TRACE(::testing::Message() << "result " << r);
          ExpectSameCsr(first[r], got[r]);
        }
      }
    }

    // B has sliced tiles spanning three or more column bands, and a
    // multi-band sparse tile below the rule, which stays windowed.
    index_t wide_sliced = 0;
    index_t below_rule = 0;
    for (index_t idx = 0; idx < b.num_tiles(); ++idx) {
      const Tile& t = b.tiles()[static_cast<std::size_t>(idx)];
      const index_t bands = ColBandsSpanned(b, t);
      if (t.is_dense() || bands < 2) continue;
      const auto band0 = std::lower_bound(b.col_bounds().begin(),
                                          b.col_bounds().end(), t.col0()) -
                         b.col_bounds().begin();
      const CsrMatrix* slice = b.col_band_slices().Find(idx, band0);
      EXPECT_EQ(slice != nullptr, t.nnz() >= t.rows() * (bands - 1));
      if (slice != nullptr && bands >= 3) ++wide_sliced;
      if (slice == nullptr && t.nnz() > 0) ++below_rule;
    }
    EXPECT_GT(wide_sliced, 0);
    EXPECT_GT(below_rule, 0);
    // Both target paths read slices.
    const auto pairs = PairsReadingSlices(a, b, config);
    EXPECT_GT(pairs[static_cast<std::size_t>(KernelType::kSSD)], 0);
    EXPECT_GT(pairs[static_cast<std::size_t>(KernelType::kSSS)], 0);
  }
}

// Expects `got` to have the pattern of `want` and each value exactly
// `factor` times want's.
void ExpectScaledCsr(const CsrMatrix& want, const CsrMatrix& got,
                     value_t factor) {
  ASSERT_EQ(got.row_ptr(), want.row_ptr());
  ASSERT_EQ(got.col_idx(), want.col_idx());
  index_t mismatches = 0;
  for (std::size_t p = 0; p < want.values().size(); ++p) {
    mismatches += got.values()[p] != factor * want.values()[p];
  }
  EXPECT_EQ(mismatches, 0) << "factor " << factor;
}

// ScaleInPlace edits B's tiles through mutable_tiles(), which drops the
// slices B's first product built: a product still reading them would miss
// the scaling wherever B is read through a slice. Scaling by 2 is exact,
// so the product scales bitwise. A copy shares its original's slices until
// it is edited itself, which leaves the original's alone.
TEST(AtMultTest, ScaleInPlaceDropsColumnBandSlices) {
  const CooMatrix b_coo = WideTileMatrix();
  const AtmConfig config = WideTileConfig(2);
  const ATMatrix a = PartitionToAtm(StackedOverHypersparse(b_coo), config);
  ATMatrix b = PartitionToAtm(b_coo, config);
  const AtMult op(config);
  const CsrMatrix first = op.Multiply(a, b).ToCsr();
  ASSERT_GT(b.col_band_slices().sliced_tiles(), 0);

  ATMatrix copy = b;
  ScaleInPlace(&copy, 2.0);
  ExpectScaledCsr(first, op.Multiply(a, copy).ToCsr(), 2.0);
  ExpectScaledCsr(first, op.Multiply(a, b).ToCsr(), 1.0);

  ScaleInPlace(&b, 2.0);
  ExpectScaledCsr(first, op.Multiply(a, b).ToCsr(), 2.0);
}

TEST(AtMultTest, ChainedMultiplication) {
  // (A*A)*A via AT MATRIX chaining — the result's density map feeds the
  // next estimate.
  AtmConfig config = TestConfig();
  CooMatrix a_coo = RandomCoo(64, 64, 400, 19);
  ATMatrix a = PartitionToAtm(a_coo, config);
  AtMult op(config);
  ATMatrix aa = op.Multiply(a, a);
  ATMatrix aaa = op.Multiply(aa, a);
  CsrMatrix a_csr = CooToCsr(a_coo);
  CsrMatrix expected = SpGemmCsr(SpGemmCsr(a_csr, a_csr), a_csr);
  ExpectDenseNear(CsrToDense(expected), CsrToDense(aaa.ToCsr()), 1e-8);
}

}  // namespace
}  // namespace atmx
