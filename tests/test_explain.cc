#include "ops/explain.h"

#include <gtest/gtest.h>

#include <array>
#include <deque>

#include "gen/synthetic.h"
#include "ops/atmult.h"
#include "storage/convert.h"
#include "tests/test_util.h"
#include "tile/partitioner.h"

namespace atmx {
namespace {

using atmx::testing::BlockDiagonal;
using atmx::testing::RandomCoo;

AtmConfig ExplainConfig() {
  AtmConfig config;
  config.b_atomic = 16;
  config.llc_bytes = 1 << 20;
  config.num_sockets = 2;
  config.cores_per_socket = 2;
  return config;
}

TEST(ExplainTest, PlanMatchesExecutionStats) {
  struct Case {
    CooMatrix coo;
    index_t llc_bytes;
    index_t b_atomic;
    index_t compressed;  // result tiles planned dense, stored as CSR
  };
  // The second input's banded band is over-estimated: one of its tiles is
  // planned dense and closes as CSR.
  const Case cases[] = {
      {GenerateDiagonalDenseBlocks(96, 3, 16, 0.9, 300, 1), 1 << 20, 16, 0},
      {BlockDiagonal(GenerateBanded(512, 2, 1.0, 5),
                     GenerateUniform(512, 512, 3000, 6)),
       256 * 1024, 32, 1},
  };
  for (const Case& c : cases) {
    AtmConfig config = ExplainConfig();
    config.llc_bytes = c.llc_bytes;
    config.b_atomic = c.b_atomic;
    ATMatrix atm = PartitionToAtm(c.coo, config);
    CostModel model;

    MultiplyPlan plan = ExplainMultiply(atm, atm, config, model);
    AtMult op(config, model);
    AtMultStats stats;
    ATMatrix result = op.Multiply(atm, atm, &stats);

    // The plan predicts exactly what execution does. A tile planned dense
    // is re-decided at close and may be stored as CSR (compressed).
    EXPECT_EQ(stats.compressed_result_tiles, c.compressed);
    EXPECT_EQ(static_cast<index_t>(plan.pairs.size()),
              stats.pair_multiplications);
    EXPECT_EQ(plan.dense_target_tiles,
              stats.dense_result_tiles + stats.compressed_result_tiles);
    EXPECT_EQ(plan.sparse_target_tiles,
              stats.sparse_result_tiles - stats.compressed_result_tiles);
    EXPECT_EQ(plan.planned_conversions,
              stats.sparse_to_dense_conversions +
                  stats.dense_to_sparse_conversions);
    EXPECT_DOUBLE_EQ(plan.effective_write_threshold,
                     stats.effective_write_threshold);
    EXPECT_EQ(plan.num_row_bands * plan.num_col_bands, result.num_tiles());
  }
}

TEST(ExplainTest, PredictsConversions) {
  // The conversion scenario from the ATMULT tests: near-threshold sparse
  // tiles against a full dense operand (paper section II-C3).
  AtmConfig config = ExplainConfig();
  config.llc_bytes = 16 * 1024;
  CooMatrix a = GenerateDiagonalDenseBlocks(96, 3, 32, 0.22, 100, 17);
  CooMatrix b = DenseToCoo(GenerateFullDense(96, 96, 18));
  ATMatrix atm_a = PartitionToAtm(a, config);
  ATMatrix atm_b = PartitionToAtm(b, config);
  // Level the tall-skinny panel rate: under the default c_sdd_panel the
  // optimizer correctly keeps A sparse against 96-wide dense windows, but
  // this test exercises the conversion *prediction* machinery.
  CostParams params;
  params.c_sdd_panel = params.c_sdd;
  CostModel model(params);

  MultiplyPlan plan = ExplainMultiply(atm_a, atm_b, config, model);
  EXPECT_GT(plan.planned_conversions, 0);

  AtMult op(config, model);
  AtMultStats stats;
  op.Multiply(atm_a, atm_b, &stats);
  EXPECT_EQ(plan.planned_conversions,
            stats.sparse_to_dense_conversions +
                stats.dense_to_sparse_conversions);
}

// EXPLAIN and execution share one pair planner. On one team with static
// queues tasks execute in the (ti, tj) order EXPLAIN plans them, so the
// plan is the executed decision stream record for record — also without
// dynamic conversion, where every pair is priced at its stored kernel.
TEST(ExplainTest, PlanEqualsExecutedDecisions) {
  CostParams leveled;
  leveled.c_sdd_panel = leveled.c_sdd;
  struct Case {
    CooMatrix a, b;
    index_t llc_bytes;
    CostParams params;
    bool dynamic_conversion;
  };
  const Case cases[] = {
      {GenerateDiagonalDenseBlocks(96, 3, 32, 0.22, 100, 17),
       DenseToCoo(GenerateFullDense(96, 96, 18)), 16 * 1024, leveled, true},
      {GenerateDiagonalDenseBlocks(96, 3, 16, 0.9, 300, 1),
       GenerateDiagonalDenseBlocks(96, 3, 16, 0.9, 300, 1), 1 << 20,
       CostParams(), true},
      {GenerateDiagonalDenseBlocks(96, 3, 32, 0.22, 100, 17),
       DenseToCoo(GenerateFullDense(96, 96, 18)), 16 * 1024, leveled, false},
  };
  for (const Case& c : cases) {
    AtmConfig config = ExplainConfig();
    config.llc_bytes = c.llc_bytes;
    config.num_sockets = 1;
    config.cores_per_socket = 1;
    config.work_stealing = false;
    config.dynamic_conversion = c.dynamic_conversion;
    const ATMatrix atm_a = PartitionToAtm(c.a, config);
    const ATMatrix atm_b = PartitionToAtm(c.b, config);
    const CostModel model(c.params);

    const MultiplyPlan plan = ExplainMultiply(atm_a, atm_b, config, model);
    ASSERT_FALSE(plan.pairs.empty());
#if defined(ATMX_OBS_ENABLED)
    obs::AuditLedger& ledger = obs::AuditLedger::Global();
    ledger.Clear();
    ledger.SetEnabled(true);
#endif
    AtMultStats stats;
    AtMult(config, model).Multiply(atm_a, atm_b, &stats);
    EXPECT_EQ(static_cast<index_t>(plan.pairs.size()),
              stats.pair_multiplications);
    EXPECT_EQ(plan.planned_conversions,
              stats.sparse_to_dense_conversions +
                  stats.dense_to_sparse_conversions);
    std::array<index_t, kNumKernelTypes> kernels{};
    for (const ReprAuditRecord& p : plan.pairs) ++kernels[p.kernel];
    for (int v = 0; v < kNumKernelTypes; ++v) {
      EXPECT_EQ(kernels[v], stats.kernel_invocations[v])
          << KernelTypeName(static_cast<KernelType>(v));
    }
#if defined(ATMX_OBS_ENABLED)
    ledger.SetEnabled(false);
    const std::deque<ReprAuditRecord> executed = ledger.Snapshot().repr;
    ledger.Clear();
    ASSERT_EQ(plan.pairs.size(), executed.size());
    for (std::size_t i = 0; i < executed.size(); ++i) {
      // Execution stamps the op id and the realized tile density.
      ReprAuditRecord planned = plan.pairs[i];
      planned.op = executed[i].op;
      planned.rho_c_actual = executed[i].rho_c_actual;
      EXPECT_TRUE(planned == executed[i])
          << "pair " << i << " C(" << planned.ti << "," << planned.tj
          << ") k[" << planned.k0 << "," << planned.k1 << "): planned "
          << KernelTypeName(static_cast<KernelType>(planned.kernel))
          << " cost " << planned.chosen_cost << ", executed "
          << KernelTypeName(static_cast<KernelType>(executed[i].kernel))
          << " cost " << executed[i].chosen_cost;
    }
#endif
  }
}

TEST(ExplainTest, EstimateFieldsPopulated) {
  AtmConfig config = ExplainConfig();
  CooMatrix coo = RandomCoo(64, 64, 600, 2);
  ATMatrix atm = PartitionToAtm(coo, config);
  MultiplyPlan plan = ExplainMultiply(atm, atm, config);
  EXPECT_GT(plan.estimated_result_nnz, 0.0);
  EXPECT_GT(plan.estimated_result_bytes, 0u);
  EXPECT_GT(plan.total_projected_cost, 0.0);
}

TEST(ExplainTest, ToStringContainsKeySections) {
  AtmConfig config = ExplainConfig();
  CooMatrix coo = GenerateDiagonalDenseBlocks(96, 3, 16, 0.9, 300, 3);
  ATMatrix atm = PartitionToAtm(coo, config);
  MultiplyPlan plan = ExplainMultiply(atm, atm, config);
  const std::string text = plan.ToString(8);
  EXPECT_NE(text.find("MultiplyPlan"), std::string::npos);
  EXPECT_NE(text.find("pair multiplications"), std::string::npos);
  EXPECT_NE(text.find("gemm"), std::string::npos);
  EXPECT_NE(text.find("rho_a"), std::string::npos);
}

TEST(ExplainTest, NoEstimationMeansSparseTargets) {
  AtmConfig config = ExplainConfig();
  config.density_estimation = false;
  CooMatrix coo = RandomCoo(64, 64, 600, 4);
  ATMatrix atm = PartitionToAtm(coo, config);
  MultiplyPlan plan = ExplainMultiply(atm, atm, config);
  EXPECT_EQ(plan.dense_target_tiles, 0);
  EXPECT_EQ(plan.estimated_result_nnz, 0.0);
}

}  // namespace
}  // namespace atmx
