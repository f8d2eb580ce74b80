#include "ops/chain.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <optional>
#include <string>

#include "gen/synthetic.h"
#include "kernels/kernel_dispatch.h"
#include "kernels/sparse_kernels.h"
#include "obs/obs.h"
#include "ops/chain_exec.h"
#include "ops/explain.h"
#include "ops/reference_mult.h"
#include "storage/convert.h"
#include "tests/test_util.h"
#include "tile/partitioner.h"

#ifdef ATMX_OBS_ENABLED
#include "obs/mem_tracker.h"
#endif

namespace atmx {
namespace {

using atmx::testing::BlockDiagonal;
using atmx::testing::ExpectDenseNear;
using atmx::testing::RandomCoo;

AtmConfig ChainConfig() {
  AtmConfig config;
  config.b_atomic = 16;
  config.llc_bytes = 1 << 20;
  return config;
}

TEST(ChainCostTest, ScalesWithExpectedIntermediates) {
  // Denser operands must be predicted costlier.
  CooMatrix thin = RandomCoo(64, 64, 200, 1);
  CooMatrix thick = RandomCoo(64, 64, 2000, 2);
  DensityMap thin_map = DensityMap::FromCoo(thin, 16);
  DensityMap thick_map = DensityMap::FromCoo(thick, 16);
  CostModel model;
  const double cheap = EstimateMultiplyCost(thin_map, thin_map, model, 0.03);
  const double pricey =
      EstimateMultiplyCost(thick_map, thick_map, model, 0.03);
  EXPECT_GT(pricey, cheap * 10);
}

TEST(ChainCostTest, IntermediateCountMatchesAnalyticUniform) {
  // Uniform rho: expected products = nnz_x * nnz_y / k.
  CooMatrix x = RandomCoo(128, 128, 1500, 3);
  DensityMap map = DensityMap::FromCoo(x, 32);
  CostModel model;
  const double cost = EstimateMultiplyCost(map, map, model, 1.1);
  // With rho_write > 1 the write side is all-sparse: cost =
  // c_ssd * products + sparse_write * E[stored]; products dominates and
  // must be within ~30% of nnz^2 / n for a uniform matrix.
  const double products = 1500.0 * 1500.0 / 128.0;
  EXPECT_GT(cost, model.params().c_ssd * products * 0.7);
  EXPECT_LT(cost, model.params().c_ssd * products * 2.5);
}

TEST(ChainPlanTest, SingleMatrixPlan) {
  CooMatrix a = RandomCoo(32, 32, 100, 4);
  DensityMap map = DensityMap::FromCoo(a, 16);
  ChainPlan plan = PlanChain({&map}, CostModel(), 0.03);
  EXPECT_EQ(plan.estimated_cost, 0.0);
  EXPECT_EQ(plan.ToString(), "A0");
}

TEST(ChainPlanTest, PrefersCheapSideFirst) {
  // A (dense-ish n x n) * B (dense-ish n x n) * v (n x 1 thin): the
  // classic case — evaluating B*v first (right-to-left) avoids the huge
  // A*B intermediate.
  const index_t n = 128;
  CooMatrix a_coo = RandomCoo(n, n, 4000, 5);
  CooMatrix b_coo = RandomCoo(n, n, 4000, 6);
  CooMatrix v_coo = RandomCoo(n, 2, 2 * n / 4, 7);
  DensityMap a = DensityMap::FromCoo(a_coo, 16);
  DensityMap b = DensityMap::FromCoo(b_coo, 16);
  DensityMap v = DensityMap::FromCoo(v_coo, 16);

  ChainPlan plan = PlanChain({&a, &b, &v}, CostModel(), 0.03);
  EXPECT_EQ(plan.ToString(), "(A0*(A1*A2))");
  const double naive =
      EstimateLeftToRightCost({&a, &b, &v}, CostModel(), 0.03);
  EXPECT_LT(plan.estimated_cost, naive);
}

TEST(ChainPlanTest, TwoMatrixPlan) {
  CooMatrix a = RandomCoo(32, 48, 150, 20);
  CooMatrix b = RandomCoo(48, 32, 150, 21);
  DensityMap a_map = DensityMap::FromCoo(a, 16);
  DensityMap b_map = DensityMap::FromCoo(b, 16);
  ChainPlan plan = PlanChain({&a_map, &b_map}, CostModel(), 0.03);
  EXPECT_EQ(plan.ToString(), "(A0*A1)");
  EXPECT_EQ(plan.split[0][1], 0);
  EXPECT_GT(plan.estimated_cost, 0.0);
}

TEST(ChainPlanDeathTest, MismatchedBlocksDie) {
  CooMatrix a = RandomCoo(32, 32, 100, 22);
  DensityMap block16 = DensityMap::FromCoo(a, 16);
  DensityMap block8 = DensityMap::FromCoo(a, 8);
  EXPECT_DEATH(PlanChain({&block16, &block8}, CostModel(), 0.03), "block");
}

TEST(ChainPlanDeathTest, IncompatibleShapesDie) {
  CooMatrix a = RandomCoo(32, 48, 100, 23);
  CooMatrix b = RandomCoo(32, 32, 100, 24);  // 48 != 32
  DensityMap a_map = DensityMap::FromCoo(a, 16);
  DensityMap b_map = DensityMap::FromCoo(b, 16);
  EXPECT_DEATH(PlanChain({&a_map, &b_map}, CostModel(), 0.03),
               "cols");
}

TEST(ChainExecuteTest, AllEmptyChainProducesEmptyResult) {
  // Structurally empty operands: the planner and both executors must
  // survive zero-density maps and produce an all-zero result.
  const AtmConfig config = ChainConfig();
  CooMatrix empty(48, 48);
  ATMatrix a = PartitionToAtm(empty, config);
  ATMatrix b = PartitionToAtm(empty, config);
  ATMatrix c = PartitionToAtm(empty, config);
  ChainPlan plan = PlanChain(
      {&a.density_map(), &b.density_map(), &c.density_map()}, CostModel(),
      config.rho_write);
  AtMult op(config);
  ChainExecStats stats;
  ATMatrix result = ExecuteChain({&a, &b, &c}, plan, op, &stats);
  EXPECT_EQ(result.rows(), 48);
  EXPECT_EQ(result.cols(), 48);
  EXPECT_EQ(result.ToCsr().nnz(), 0);
}

TEST(ChainExecuteTest, MatchesReferenceForAnyPlan) {
  const AtmConfig config = ChainConfig();
  CooMatrix a_coo = RandomCoo(40, 56, 350, 8);
  CooMatrix b_coo = RandomCoo(56, 32, 300, 9);
  CooMatrix c_coo = RandomCoo(32, 48, 250, 10);
  ATMatrix a = PartitionToAtm(a_coo, config);
  ATMatrix b = PartitionToAtm(b_coo, config);
  ATMatrix c = PartitionToAtm(c_coo, config);

  ChainPlan plan = PlanChain(
      {&a.density_map(), &b.density_map(), &c.density_map()}, CostModel(),
      config.rho_write);
  AtMult op(config);
  ChainExecStats stats;
  ATMatrix result = ExecuteChain({&a, &b, &c}, plan, op, &stats);
  EXPECT_EQ(result.rows(), 40);
  EXPECT_EQ(result.cols(), 48);
  EXPECT_GT(stats.total.pair_multiplications, 0);

  DenseMatrix expected = ReferenceMultiply(
      ReferenceMultiply(CooToDense(a_coo), CooToDense(b_coo)),
      CooToDense(c_coo));
  ExpectDenseNear(expected, CsrToDense(result.ToCsr()), 1e-9);
}

TEST(ChainExecuteTest, FourMatrixChain) {
  const AtmConfig config = ChainConfig();
  std::vector<CooMatrix> coos;
  coos.push_back(RandomCoo(24, 48, 200, 11));
  coos.push_back(RandomCoo(48, 48, 600, 12));
  coos.push_back(RandomCoo(48, 48, 600, 13));
  coos.push_back(RandomCoo(48, 16, 120, 14));
  std::vector<ATMatrix> atms;
  std::vector<const ATMatrix*> chain;
  std::vector<const DensityMap*> maps;
  for (const CooMatrix& coo : coos) {
    atms.push_back(PartitionToAtm(coo, config));
  }
  for (const ATMatrix& atm : atms) {
    chain.push_back(&atm);
    maps.push_back(&atm.density_map());
  }
  ChainPlan plan = PlanChain(maps, CostModel(), config.rho_write);
  AtMult op(config);
  ATMatrix result = ExecuteChain(chain, plan, op);

  DenseMatrix expected = CooToDense(coos[0]);
  for (std::size_t i = 1; i < coos.size(); ++i) {
    expected = ReferenceMultiply(expected, CooToDense(coos[i]));
  }
  ExpectDenseNear(expected, CsrToDense(result.ToCsr()), 1e-8);
}

// Fused execution must be indistinguishable from product-at-a-time: the
// same per-tile pipeline runs on the same inputs in both modes, so the
// result must match bitwise — structure AND values — for any team count.
TEST(ChainExecuteTest, FusedMatchesUnfusedBitwiseAcrossTeams) {
  std::vector<CooMatrix> coos;
  coos.push_back(RandomCoo(64, 48, 700, 30));
  coos.push_back(RandomCoo(48, 64, 800, 31));
  coos.push_back(RandomCoo(64, 40, 600, 32));
  coos.push_back(RandomCoo(40, 56, 500, 33));

  for (int teams : {1, 2, 4}) {
    AtmConfig config = ChainConfig();
    config.num_sockets = teams;
    config.cores_per_socket = 2;

    std::vector<ATMatrix> atms;
    for (const CooMatrix& coo : coos) {
      atms.push_back(PartitionToAtm(coo, config));
    }
    std::vector<const ATMatrix*> chain;
    std::vector<const DensityMap*> maps;
    for (const ATMatrix& atm : atms) {
      chain.push_back(&atm);
      maps.push_back(&atm.density_map());
    }
    ChainPlan plan = PlanChain(maps, CostModel(), config.rho_write);

    AtmConfig fused_config = config;
    fused_config.fused_chains = true;
    AtmConfig unfused_config = config;
    unfused_config.fused_chains = false;

    ChainExecStats fused_stats;
    ChainExecStats unfused_stats;
    CsrMatrix fused = ExecuteChain(chain, plan, AtMult(fused_config),
                                   &fused_stats)
                          .ToCsr();
    CsrMatrix unfused = ExecuteChain(chain, plan, AtMult(unfused_config),
                                     &unfused_stats)
                            .ToCsr();
    EXPECT_TRUE(fused_stats.fused) << "teams=" << teams;
    EXPECT_GT(fused_stats.fused_tasks, 0) << "teams=" << teams;
    EXPECT_FALSE(unfused_stats.fused) << "teams=" << teams;
    EXPECT_EQ(fused_stats.per_product.size(), unfused_stats.per_product.size())
        << "teams=" << teams;

    ASSERT_EQ(fused.rows(), unfused.rows()) << "teams=" << teams;
    ASSERT_EQ(fused.cols(), unfused.cols()) << "teams=" << teams;
    ASSERT_EQ(fused.nnz(), unfused.nnz()) << "teams=" << teams;
    EXPECT_EQ(fused.row_ptr(), unfused.row_ptr()) << "teams=" << teams;
    EXPECT_EQ(fused.col_idx(), unfused.col_idx()) << "teams=" << teams;
    // Element-wise exact equality (operator== on the vectors would hide
    // which element diverged).
    for (std::size_t i = 0; i < fused.values().size(); ++i) {
      ASSERT_EQ(fused.values()[i], unfused.values()[i])
          << "teams=" << teams << " value index " << i;
    }
  }
}

// A * A * A with A = diag(banded, uniform): the banded band's tile of the
// intermediate A * A is planned dense, realizes below rho0_W and closes as
// CSR, so the consuming product reads a CSR operand, and the fused graph's
// products share the teams' parked accumulators. Fused and
// product-at-a-time execution run the same close and must agree bitwise.
TEST(ChainExecuteTest, CompressedIntermediateFusedMatchesUnfusedBitwise) {
  const CooMatrix coo = BlockDiagonal(GenerateBanded(512, 2, 1.0, 5),
                                      GenerateUniform(512, 512, 3000, 6));
  const CsrMatrix csr = CooToCsr(coo);
  const DenseMatrix expected = CsrToDense(SpGemmCsr(SpGemmCsr(csr, csr), csr));
  for (int teams : {1, 2, 4}) {
    AtmConfig config = ChainConfig();
    config.llc_bytes = 256 * 1024;
    config.b_atomic = 32;
    config.num_sockets = teams;
    const ATMatrix a = PartitionToAtm(coo, config);
    const ChainPlan plan =
        PlanChain({&a.density_map(), &a.density_map(), &a.density_map()},
                  CostModel(), config.rho_write);
    AtmConfig fused_config = config;
    fused_config.fused_chains = true;
    AtmConfig unfused_config = config;
    unfused_config.fused_chains = false;

    ChainExecStats fused_stats;
    ChainExecStats unfused_stats;
    const ATMatrix fused =
        ExecuteChain({&a, &a, &a}, plan, AtMult(fused_config), &fused_stats);
    const ATMatrix unfused = ExecuteChain({&a, &a, &a}, plan,
                                          AtMult(unfused_config),
                                          &unfused_stats);
    EXPECT_TRUE(fused_stats.fused) << "teams=" << teams;
    ASSERT_EQ(fused_stats.per_product.size(), 2u) << "teams=" << teams;
    EXPECT_GE(fused_stats.per_product.front().compressed_result_tiles, 1)
        << "teams=" << teams;
    EXPECT_EQ(fused_stats.total.compressed_result_tiles,
              unfused_stats.total.compressed_result_tiles)
        << "teams=" << teams;
    ExpectDenseNear(expected, CsrToDense(fused.ToCsr()), 1e-9);

    const CsrMatrix f = fused.ToCsr();
    const CsrMatrix u = unfused.ToCsr();
    EXPECT_EQ(f.row_ptr(), u.row_ptr()) << "teams=" << teams;
    EXPECT_EQ(f.col_idx(), u.col_idx()) << "teams=" << teams;
    EXPECT_EQ(f.values(), u.values()) << "teams=" << teams;
  }
}

// Team count must not change fused results either (band-ordered task
// execution is commutative over the deterministic per-tile pipeline).
TEST(ChainExecuteTest, FusedResultIdenticalAcrossTeamCounts) {
  std::vector<CooMatrix> coos;
  coos.push_back(RandomCoo(56, 56, 900, 40));
  coos.push_back(RandomCoo(56, 56, 900, 41));
  coos.push_back(RandomCoo(56, 56, 900, 42));

  std::optional<CsrMatrix> reference;
  for (int teams : {1, 2, 4}) {
    AtmConfig config = ChainConfig();
    config.num_sockets = teams;
    config.fused_chains = true;

    std::vector<ATMatrix> atms;
    for (const CooMatrix& coo : coos) {
      atms.push_back(PartitionToAtm(coo, config));
    }
    std::vector<const ATMatrix*> chain;
    std::vector<const DensityMap*> maps;
    for (const ATMatrix& atm : atms) {
      chain.push_back(&atm);
      maps.push_back(&atm.density_map());
    }
    ChainPlan plan = PlanChain(maps, CostModel(), config.rho_write);
    ChainExecStats stats;
    CsrMatrix result =
        ExecuteChain(chain, plan, AtMult(config), &stats).ToCsr();
    EXPECT_TRUE(stats.fused) << "teams=" << teams;
    if (!reference.has_value()) {
      reference = std::move(result);
      continue;
    }
    EXPECT_EQ(result.row_ptr(), reference->row_ptr()) << "teams=" << teams;
    EXPECT_EQ(result.col_idx(), reference->col_idx()) << "teams=" << teams;
    EXPECT_EQ(result.values(), reference->values()) << "teams=" << teams;
  }
}

// Helper for the budget tests: a 4-matrix chain whose intermediates have
// mixed-density blocks, so the chain-scope water level has real choices.
std::vector<CooMatrix> BudgetChainCoos() {
  // Sparse enough (~5% fill) that intermediate blocks land well below
  // rho 0.5: dense is the performance-optimal representation at rho_write
  // but NOT the memory-minimal one, so a budget genuinely moves the
  // water level instead of clamping at an all-dense floor.
  std::vector<CooMatrix> coos;
  coos.push_back(RandomCoo(96, 64, 350, 50));
  coos.push_back(RandomCoo(64, 96, 350, 51));
  coos.push_back(RandomCoo(96, 48, 260, 52));
  coos.push_back(RandomCoo(48, 80, 220, 53));
  return coos;
}

// A finite memory SLA must no longer silently disable fusion: the
// chain-scope water level plans per-product write thresholds against the
// shared budget, BOTH executors run at those thresholds, and results stay
// bitwise identical at every budget. A budget below the minimum
// achievable footprint downgrades to product-at-a-time with reason
// "budget_infeasible" — and stays bitwise identical even then.
TEST(ChainExecuteTest, FiniteBudgetFusedMatchesUnfusedBitwise) {
  const std::vector<CooMatrix> coos = BudgetChainCoos();

  // Probe the memory-minimal floor: a 1-byte budget is unachievable, and
  // the plan reports the peak of the clamped floor assignment.
  std::size_t floor_bytes = 0;
  {
    AtmConfig probe_config = ChainConfig();
    probe_config.result_mem_limit_bytes = 1;
    std::vector<ATMatrix> atms;
    for (const CooMatrix& coo : coos) {
      atms.push_back(PartitionToAtm(coo, probe_config));
    }
    std::vector<const ATMatrix*> chain;
    std::vector<const DensityMap*> maps;
    for (const ATMatrix& atm : atms) {
      chain.push_back(&atm);
      maps.push_back(&atm.density_map());
    }
    ChainPlan plan =
        PlanChain(maps, CostModel(), probe_config.rho_write);
    AtMult probe_op(probe_config);
    internal::ChainBudgetPlan probe =
        internal::PlanChainBudget(chain, plan, probe_op);
    ASSERT_TRUE(probe.active);
    ASSERT_FALSE(probe.feasible);
    floor_bytes = probe.projected_peak_bytes;
    ASSERT_GT(floor_bytes, 0u);
  }

  struct BudgetCase {
    const char* name;
    std::size_t budget;
    bool expect_fused;
  };
  const BudgetCase cases[] = {
      // Loose: thresholds stay at (or near) the performance optimum.
      {"loose", floor_bytes * 8, true},
      // Tight: barely achievable — thresholds forced to the memory-min
      // levels (+2 absorbs the solver's double->size_t truncation).
      {"tight", floor_bytes + 2, true},
      // Below the floor: no assignment fits; downgrade, don't crash.
      {"infeasible", floor_bytes / 2, false},
  };

  for (int teams : {1, 2, 4}) {
    for (const BudgetCase& bc : cases) {
      AtmConfig config = ChainConfig();
      config.num_sockets = teams;
      config.cores_per_socket = 2;
      config.result_mem_limit_bytes = bc.budget;

      std::vector<ATMatrix> atms;
      for (const CooMatrix& coo : coos) {
        atms.push_back(PartitionToAtm(coo, config));
      }
      std::vector<const ATMatrix*> chain;
      std::vector<const DensityMap*> maps;
      for (const ATMatrix& atm : atms) {
        chain.push_back(&atm);
        maps.push_back(&atm.density_map());
      }
      ChainPlan plan = PlanChain(maps, CostModel(), config.rho_write);

      AtmConfig fused_config = config;
      fused_config.fused_chains = true;
      AtmConfig unfused_config = config;
      unfused_config.fused_chains = false;

      ChainExecStats fused_stats;
      ChainExecStats unfused_stats;
      CsrMatrix fused =
          ExecuteChain(chain, plan, AtMult(fused_config), &fused_stats)
              .ToCsr();
      CsrMatrix unfused =
          ExecuteChain(chain, plan, AtMult(unfused_config), &unfused_stats)
              .ToCsr();
      const std::string tag =
          std::string(bc.name) + " teams=" + std::to_string(teams);

      EXPECT_EQ(fused_stats.fused, bc.expect_fused) << tag;
      EXPECT_EQ(fused_stats.budget_bytes, bc.budget) << tag;
      if (bc.expect_fused) {
        EXPECT_TRUE(fused_stats.budget_feasible) << tag;
        EXPECT_GT(fused_stats.fused_tasks, 0) << tag;
        EXPECT_TRUE(fused_stats.fallback_reason.empty()) << tag;
      } else {
        EXPECT_FALSE(fused_stats.budget_feasible) << tag;
        EXPECT_EQ(fused_stats.fallback_reason, "budget_infeasible") << tag;
      }

      // Both executors committed the same chain-planned thresholds.
      ASSERT_EQ(fused_stats.per_product.size(),
                unfused_stats.per_product.size())
          << tag;
      for (std::size_t p = 0; p < fused_stats.per_product.size(); ++p) {
        EXPECT_EQ(fused_stats.per_product[p].effective_write_threshold,
                  unfused_stats.per_product[p].effective_write_threshold)
            << tag << " product " << p;
      }

      ASSERT_EQ(fused.rows(), unfused.rows()) << tag;
      ASSERT_EQ(fused.cols(), unfused.cols()) << tag;
      ASSERT_EQ(fused.nnz(), unfused.nnz()) << tag;
      EXPECT_EQ(fused.row_ptr(), unfused.row_ptr()) << tag;
      EXPECT_EQ(fused.col_idx(), unfused.col_idx()) << tag;
      for (std::size_t i = 0; i < fused.values().size(); ++i) {
        ASSERT_EQ(fused.values()[i], unfused.values()[i])
            << tag << " value index " << i;
      }
    }
  }
}

// Left-to-right parenthesization (((A0*A1)*A2)*A3): keeps the sparse,
// water-level-movable first intermediate on the peak step, so a budget
// bracketed between the floor and the unconstrained projection genuinely
// binds (the DP-optimal plan can park the movable product off-peak).
ChainPlan LeftToRightPlan(int n) {
  ChainPlan plan;
  plan.split.assign(n, std::vector<int>(n, 0));
  for (int j = 1; j < n; ++j) {
    for (int i = 0; i < j; ++i) plan.split[i][j] = j - 1;
  }
  return plan;
}

// The fused executor's measured resident peak must respect an achievable
// budget up to the estimator's slack: admission control reserves each
// task's projected output before launch, so the realized peak can only
// exceed the budget by what the density estimate under-predicted.
TEST(ChainExecuteTest, FusedBudgetBoundsResidentPeak) {
  const std::vector<CooMatrix> coos = BudgetChainCoos();
  AtmConfig config = ChainConfig();
  config.fused_chains = true;

  std::vector<ATMatrix> atms;
  for (const CooMatrix& coo : coos) {
    atms.push_back(PartitionToAtm(coo, config));
  }
  std::vector<const ATMatrix*> chain;
  std::vector<const DensityMap*> maps;
  for (const ATMatrix& atm : atms) {
    chain.push_back(&atm);
    maps.push_back(&atm.density_map());
  }
  ChainPlan plan = LeftToRightPlan(static_cast<int>(chain.size()));

  // Bracket the budget between the memory-minimal floor (probe with an
  // unachievable 1-byte budget) and the unconstrained projection (probe
  // with a huge one), then aim for the middle: feasible by construction,
  // but binding — the thresholds must actually move.
  AtmConfig floor_config = config;
  floor_config.result_mem_limit_bytes = 1;
  const internal::ChainBudgetPlan floor_plan =
      internal::PlanChainBudget(chain, plan, AtMult(floor_config));
  ASSERT_FALSE(floor_plan.feasible);
  AtmConfig wide_config = config;
  wide_config.result_mem_limit_bytes =
      std::numeric_limits<std::size_t>::max() / 2;
  const internal::ChainBudgetPlan wide_plan =
      internal::PlanChainBudget(chain, plan, AtMult(wide_config));
  ASSERT_TRUE(wide_plan.feasible);
  ASSERT_LT(floor_plan.projected_peak_bytes, wide_plan.projected_peak_bytes)
      << "workload leaves the water level no room to move";

  const std::size_t budget = floor_plan.projected_peak_bytes +
                             (wide_plan.projected_peak_bytes -
                              floor_plan.projected_peak_bytes) /
                                 2;
  config.result_mem_limit_bytes = budget;
  ChainExecStats stats;
  ExecuteChain(chain, plan, AtMult(config), &stats);
  ASSERT_TRUE(stats.budget_feasible);
  ASSERT_TRUE(stats.fused);
  EXPECT_LE(stats.projected_peak_bytes, budget);
  // 25% slack for sparse blocks whose realized nnz exceeds the estimate.
  EXPECT_LE(stats.resident_peak_bytes, budget + budget / 4);
}

// Runs a chain that must decline fusion for `reason`; with the
// observability layer in, the ledger's chain record carries the same
// outcome and the chain table shows it.
void ExpectFallback(const std::vector<const ATMatrix*>& chain,
                    const ChainPlan& plan, const AtMult& op,
                    const std::string& reason) {
#ifdef ATMX_OBS_ENABLED
  obs::AuditLedger& ledger = obs::AuditLedger::Global();
  ledger.Clear();
  ledger.SetEnabled(true);
#endif
  ChainExecStats stats;
  ExecuteChain(chain, plan, op, &stats);
  EXPECT_FALSE(stats.fused);
  EXPECT_EQ(stats.fallback_reason, reason);
#ifdef ATMX_OBS_ENABLED
  ledger.SetEnabled(false);
  const obs::AuditLedgerDoc doc = ledger.Snapshot();
  ASSERT_EQ(doc.chain.size(), 1u);
  const obs::ChainAuditRecord& record = doc.chain.front();
  EXPECT_EQ(record.plan, plan.ToString());
  EXPECT_EQ(record.length, static_cast<index_t>(chain.size()));
  EXPECT_FALSE(record.fused);
  EXPECT_EQ(record.fallback_reason, reason);
  EXPECT_NE(FormatChainDecisions(doc.chain).find("no(" + reason + ")"),
            std::string::npos);
  ledger.Clear();
#endif
}

TEST(ChainExecuteTest, FallbackReasonsAreRecorded) {
  const AtmConfig base = ChainConfig();
  CooMatrix a_coo = RandomCoo(48, 48, 400, 60);
  CooMatrix b_coo = RandomCoo(48, 48, 400, 61);
  CooMatrix c_coo = RandomCoo(48, 48, 400, 62);

  // Two matrices: one product — nothing to fuse.
  {
    ATMatrix a = PartitionToAtm(a_coo, base);
    ATMatrix b = PartitionToAtm(b_coo, base);
    ChainPlan plan = PlanChain({&a.density_map(), &b.density_map()},
                               CostModel(), base.rho_write);
    ExpectFallback({&a, &b}, plan, AtMult(base), "short_chain");
  }

  // Finite budget without density estimation: the chain-scope water
  // level has no maps to plan from.
  {
    AtmConfig config = base;
    config.density_estimation = false;
    config.result_mem_limit_bytes = 1 << 20;
    ATMatrix a = PartitionToAtm(a_coo, config);
    ATMatrix b = PartitionToAtm(b_coo, config);
    ATMatrix c = PartitionToAtm(c_coo, config);
    ChainPlan plan = PlanChain(
        {&a.density_map(), &b.density_map(), &c.density_map()}, CostModel(),
        config.rho_write);
    ExpectFallback({&a, &b, &c}, plan, AtMult(config), "no_estimation");
  }

  // Fusion switched off entirely.
  {
    AtmConfig config = base;
    config.fused_chains = false;
    ATMatrix a = PartitionToAtm(a_coo, config);
    ATMatrix b = PartitionToAtm(b_coo, config);
    ATMatrix c = PartitionToAtm(c_coo, config);
    ChainPlan plan = PlanChain(
        {&a.density_map(), &b.density_map(), &c.density_map()}, CostModel(),
        config.rho_write);
    ExpectFallback({&a, &b, &c}, plan, AtMult(config), "disabled");
  }
}

TEST(ChainExecStatsTest, AccumulateReportsMinimumWriteThreshold) {
  AtMultStats total;
  AtMultStats first;
  first.effective_write_threshold = 0.4;
  AtMultStats second;
  second.effective_write_threshold = 0.1;
  AtMultStats third;
  third.effective_write_threshold = 0.7;
  internal::AccumulateProductStats(first, &total);
  EXPECT_DOUBLE_EQ(total.effective_write_threshold, 0.4);
  internal::AccumulateProductStats(second, &total);
  EXPECT_DOUBLE_EQ(total.effective_write_threshold, 0.1);
  // Later, higher thresholds must not overwrite the binding minimum
  // (the old behavior was last-write-wins).
  internal::AccumulateProductStats(third, &total);
  EXPECT_DOUBLE_EQ(total.effective_write_threshold, 0.1);
}

#ifdef ATMX_OBS_ENABLED
// End-to-end memory SLA check: the process-wide logical high water of a
// budgeted fused chain stays within budget + operand overhead. The
// MemTracker also counts JIT-converted operand copies (outside the
// result budget's scope), so the bound allows for the operands once.
TEST(ChainExecuteTest, FusedBudgetBoundsTrackedHighWater) {
  const std::vector<CooMatrix> coos = BudgetChainCoos();
  AtmConfig config = ChainConfig();
  config.fused_chains = true;

  std::vector<ATMatrix> atms;
  std::size_t operand_bytes = 0;
  for (const CooMatrix& coo : coos) {
    atms.push_back(PartitionToAtm(coo, config));
    operand_bytes += atms.back().MemoryBytes();
  }
  std::vector<const ATMatrix*> chain;
  std::vector<const DensityMap*> maps;
  for (const ATMatrix& atm : atms) {
    chain.push_back(&atm);
    maps.push_back(&atm.density_map());
  }
  ChainPlan plan = LeftToRightPlan(static_cast<int>(chain.size()));

  // Same bracket as FusedBudgetBoundsResidentPeak: midway between the
  // memory-minimal floor and the unconstrained projection.
  AtmConfig floor_config = config;
  floor_config.result_mem_limit_bytes = 1;
  const internal::ChainBudgetPlan floor_plan =
      internal::PlanChainBudget(chain, plan, AtMult(floor_config));
  AtmConfig wide_config = config;
  wide_config.result_mem_limit_bytes =
      std::numeric_limits<std::size_t>::max() / 2;
  const internal::ChainBudgetPlan wide_plan =
      internal::PlanChainBudget(chain, plan, AtMult(wide_config));
  ASSERT_LT(floor_plan.projected_peak_bytes, wide_plan.projected_peak_bytes);
  const std::size_t budget = floor_plan.projected_peak_bytes +
                             (wide_plan.projected_peak_bytes -
                              floor_plan.projected_peak_bytes) /
                                 2;

  config.result_mem_limit_bytes = budget;
  obs::MemTracker::Global().ResetForTesting();
  ChainExecStats stats;
  ExecuteChain(chain, plan, AtMult(config), &stats);
  ASSERT_TRUE(stats.budget_feasible);
  ASSERT_TRUE(stats.fused);
  const std::uint64_t high_water =
      obs::MemTracker::Global().high_water_bytes();
  // Budget governs result tiles; operands may be JIT-converted once, and
  // sparse estimates carry ~25% slack.
  EXPECT_LE(high_water, budget + budget / 4 + operand_bytes);
  EXPECT_GT(high_water, 0u);
}

// Every product of a fused chain is one ATMULT operation for the registry:
// the fused run must advance atmult.pairs and the per-variant kernel
// counters by exactly its own pair count — the same deltas the
// product-at-a-time run publishes.
TEST(ChainExecuteTest, FusedChainPublishesAtmultCounters) {
  struct Deltas {
    std::uint64_t operations = 0;
    std::uint64_t pairs = 0;
    std::uint64_t kernels = 0;
  };
  auto read = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    Deltas d;
    d.operations = registry.GetCounter("atmult.operations").Value();
    d.pairs = registry.GetCounter("atmult.pairs").Value();
    for (int v = 0; v < kNumKernelTypes; ++v) {
      d.kernels +=
          registry.GetCounter(KernelMetricName(static_cast<KernelType>(v)))
              .Value();
    }
    return d;
  };

  std::vector<CooMatrix> coos;
  coos.push_back(RandomCoo(64, 48, 700, 70));
  coos.push_back(RandomCoo(48, 64, 800, 71));
  coos.push_back(RandomCoo(64, 40, 600, 72));
  coos.push_back(RandomCoo(40, 56, 500, 73));
  AtmConfig config = ChainConfig();
  std::vector<ATMatrix> atms;
  for (const CooMatrix& coo : coos) atms.push_back(PartitionToAtm(coo, config));
  std::vector<const ATMatrix*> chain;
  std::vector<const DensityMap*> maps;
  for (const ATMatrix& atm : atms) {
    chain.push_back(&atm);
    maps.push_back(&atm.density_map());
  }
  ChainPlan plan = PlanChain(maps, CostModel(), config.rho_write);

  Deltas fused;
  Deltas unfused;
  ChainExecStats fused_stats;
  ChainExecStats unfused_stats;
  for (const bool fuse : {true, false}) {
    config.fused_chains = fuse;
    const Deltas before = read();
    ExecuteChain(chain, plan, AtMult(config),
                 fuse ? &fused_stats : &unfused_stats);
    const Deltas after = read();
    Deltas& d = fuse ? fused : unfused;
    d.operations = after.operations - before.operations;
    d.pairs = after.pairs - before.pairs;
    d.kernels = after.kernels - before.kernels;
  }
  ASSERT_TRUE(fused_stats.fused);
  ASSERT_FALSE(unfused_stats.fused);
  const auto pairs =
      static_cast<std::uint64_t>(fused_stats.total.pair_multiplications);
  ASSERT_GT(pairs, 0u);
  EXPECT_EQ(fused.pairs, pairs);
  EXPECT_EQ(fused.kernels, pairs);
  EXPECT_EQ(fused.operations, fused_stats.per_product.size());
  EXPECT_EQ(fused.pairs, unfused.pairs);
  EXPECT_EQ(fused.kernels, unfused.kernels);
  EXPECT_EQ(fused.operations, unfused.operations);
}
#endif  // ATMX_OBS_ENABLED

}  // namespace
}  // namespace atmx
