#include "ops/chain.h"

#include <limits>
#include <memory>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "estimate/density_estimator.h"
#include "estimate/water_level.h"
#include "obs/obs.h"
#if defined(ATMX_OBS_ENABLED)
#include "obs/audit_ledger.h"
#endif
#include "ops/chain_exec.h"

namespace atmx {

double EstimateMultiplyCost(const DensityMap& x, const DensityMap& y,
                            const CostModel& model, double rho_write,
                            double write_factor, std::size_t mem_limit_bytes,
                            DensityMap* estimate) {
  ATMX_CHECK_EQ(x.cols(), y.rows());
  ATMX_CHECK_EQ(x.block(), y.block());
  const CostParams& p = model.params();

  // Expected intermediate products: every element of X block-column K
  // pairs with the elements in one specific row of Y block-row K, so
  //   E[products] = sum_K nnzX(col K) * nnzY(row K) / height(K).
  const index_t grid_k = x.grid_cols();
  double products = 0.0;
  for (index_t bk = 0; bk < grid_k; ++bk) {
    double x_col_nnz = 0.0;
    for (index_t bi = 0; bi < x.grid_rows(); ++bi) {
      x_col_nnz += x.At(bi, bk) * static_cast<double>(x.BlockArea(bi, bk));
    }
    double y_row_nnz = 0.0;
    for (index_t bj = 0; bj < y.grid_cols(); ++bj) {
      y_row_nnz += y.At(bk, bj) * static_cast<double>(y.BlockArea(bk, bj));
    }
    products +=
        x_col_nnz * y_row_nnz / static_cast<double>(y.BlockHeight(bk));
  }

  // Write side from the estimated result topology: dense blocks pay the
  // array-touch rate, sparse blocks pay the SPA rate per stored element.
  // A finite memory limit raises the classification threshold to the
  // water level this product's estimate would force, so the DP sees the
  // (costlier) sparse writes the SLA will actually impose.
  DensityMap result = EstimateProductDensity(x, y);
  const double threshold =
      mem_limit_bytes == std::numeric_limits<std::size_t>::max()
          ? rho_write
          : EffectiveWriteThreshold(result, rho_write, mem_limit_bytes);
  double write_cost = 0.0;
  for (index_t bi = 0; bi < result.grid_rows(); ++bi) {
    for (index_t bj = 0; bj < result.grid_cols(); ++bj) {
      const double area =
          static_cast<double>(result.BlockArea(bi, bj));
      const double rho = result.At(bi, bj);
      if (rho >= threshold) {
        write_cost += p.dense_write * area;
      } else {
        write_cost += p.sparse_write * rho * area;
      }
    }
  }
  if (estimate != nullptr) *estimate = std::move(result);
  return p.c_ssd * products + write_factor * write_cost;
}

namespace {

// Write-cost scale for the product (i..j) of an n-matrix chain: fused
// execution discounts every intermediate's materialization (resident
// tiles, written once, consumed cache-hot), but the root product's result
// really is handed to the caller at full cost.
double WriteFactorFor(const ChainCostOptions& options, int i, int j, int n) {
  const bool is_root = i == 0 && j == n - 1;
  return options.fused && !is_root ? options.fused_write_factor : 1.0;
}

void AppendPlanString(const ChainPlan& plan, int i, int j,
                      std::ostringstream* os) {
  if (i == j) {
    *os << 'A' << i;
    return;
  }
  *os << '(';
  AppendPlanString(plan, i, plan.split[i][j], os);
  *os << '*';
  AppendPlanString(plan, plan.split[i][j] + 1, j, os);
  *os << ')';
}

}  // namespace

std::string ChainPlan::ToString() const {
  if (split.empty()) return "()";
  std::ostringstream os;
  AppendPlanString(*this, 0, static_cast<int>(split.size()) - 1, &os);
  return os.str();
}

ChainPlan PlanChain(const std::vector<const DensityMap*>& maps,
                    const CostModel& model, double rho_write,
                    const ChainCostOptions& options) {
  const int n = static_cast<int>(maps.size());
  ATMX_CHECK_GE(n, 1);
  for (int i = 0; i + 1 < n; ++i) {
    ATMX_CHECK_EQ(maps[i]->cols(), maps[i + 1]->rows());
  }

  ChainPlan plan;
  plan.split.assign(n, std::vector<int>(n, -1));
  if (n == 1) return plan;

  // cost[i][j] / map[i][j]: best cost and estimated topology of the
  // product A_i..A_j. Maps are carried along the DP so that downstream
  // products are priced against realistic intermediate topologies.
  std::vector<std::vector<double>> cost(
      n, std::vector<double>(n, std::numeric_limits<double>::infinity()));
  std::vector<std::vector<std::unique_ptr<DensityMap>>> map(n);
  for (int i = 0; i < n; ++i) {
    map[i].resize(n);
    cost[i][i] = 0.0;
  }

  auto map_of = [&](int i, int j) -> const DensityMap& {
    return i == j ? *maps[i] : *map[i][j];
  };

  for (int length = 2; length <= n; ++length) {
    for (int i = 0; i + length - 1 < n; ++i) {
      const int j = i + length - 1;
      const double write_factor = WriteFactorFor(options, i, j, n);
      for (int k = i; k < j; ++k) {
        DensityMap product;
        const double candidate =
            cost[i][k] + cost[k + 1][j] +
            EstimateMultiplyCost(map_of(i, k), map_of(k + 1, j), model,
                                 rho_write, write_factor,
                                 options.result_mem_limit_bytes, &product);
        if (candidate < cost[i][j]) {
          cost[i][j] = candidate;
          plan.split[i][j] = k;
          map[i][j] = std::make_unique<DensityMap>(std::move(product));
        }
      }
    }
  }
  plan.estimated_cost = cost[0][n - 1];
  return plan;
}

double EstimateLeftToRightCost(const std::vector<const DensityMap*>& maps,
                               const CostModel& model, double rho_write,
                               const ChainCostOptions& options) {
  const int n = static_cast<int>(maps.size());
  ATMX_CHECK_GE(n, 1);
  double total = 0.0;
  DensityMap running = *maps[0];
  for (int i = 1; i < n; ++i) {
    DensityMap product;
    total += EstimateMultiplyCost(running, *maps[i], model, rho_write,
                                  WriteFactorFor(options, 0, i, n),
                                  options.result_mem_limit_bytes, &product);
    running = std::move(product);
  }
  return total;
}

#if defined(ATMX_OBS_ENABLED)
namespace {

void RecordChainDecision(const std::vector<const ATMatrix*>& chain,
                         const ChainPlan& plan, const AtMult& op,
                         const ChainExecStats& stats, double total_seconds) {
  obs::AuditLedger& ledger = obs::AuditLedger::Global();
  if (!ledger.enabled()) return;
  double left_to_right_cost = 0.0;
  if (chain.size() >= 2) {
    std::vector<const DensityMap*> maps;
    maps.reserve(chain.size());
    for (const ATMatrix* m : chain) maps.push_back(&m->density_map());
    ChainCostOptions options;
    options.fused = stats.fused;
    left_to_right_cost = EstimateLeftToRightCost(
        maps, op.cost_model(), op.config().rho_write, options);
  }
  ledger.SetCostParams(op.cost_model().params());
  obs::ChainAuditRecord rec;
  rec.op = ledger.NextOpId();
  rec.plan = plan.ToString();
  rec.length = static_cast<index_t>(chain.size());
  rec.planned_cost = plan.estimated_cost;
  rec.alternative_cost = left_to_right_cost;
  rec.fused = stats.fused;
  rec.fallback_reason = stats.fallback_reason;
  rec.fused_tasks = stats.fused_tasks;
  rec.measured_seconds = total_seconds;
  rec.budget_bytes = stats.budget_bytes;
  rec.projected_peak_bytes = stats.projected_peak_bytes;
  rec.resident_peak_bytes = stats.resident_peak_bytes;
  rec.rho_w.reserve(stats.per_product.size());
  rec.products.reserve(stats.per_product.size());
  for (const AtMultStats& p : stats.per_product) {
    rec.rho_w.push_back(p.effective_write_threshold);
    std::ostringstream os;
    os << "pairs=" << p.pair_multiplications
       << " kernels=" << p.TotalKernelInvocations()
       << " conv=" << (p.sparse_to_dense_conversions +
                       p.dense_to_sparse_conversions)
       << " c_tiles(d/sp)=" << p.dense_result_tiles << "/"
       << p.sparse_result_tiles << " rho_w=" << p.effective_write_threshold
       << " multiply=" << p.multiply_seconds << "s";
    rec.products.push_back(os.str());
  }
  ledger.RecordChain(rec);
}

}  // namespace
#endif

ATMatrix ExecuteChain(const std::vector<const ATMatrix*>& chain,
                      const ChainPlan& plan, const AtMult& op,
                      ChainExecStats* stats) {
  ATMX_CHECK_GE(chain.size(), 1u);
  ATMX_CHECK_EQ(chain.size(), plan.split.size());
  ChainExecStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = ChainExecStats();

  WallTimer timer;
  ATMatrix result;
  if (chain.size() == 1) {
    result = *chain[0];  // deep copy: chain inputs are reusable
  } else {
    // One chain-scope memory plan drives BOTH executors: under a finite
    // budget the per-product thresholds it commits are imposed on the
    // fused DAG and the product-at-a-time path alike, which is what keeps
    // the two bitwise identical at every budget.
    const internal::ChainBudgetPlan budget =
        internal::PlanChainBudget(chain, plan, op);
    stats->budget_bytes = budget.active ? budget.budget_bytes : 0;
    stats->projected_peak_bytes = budget.projected_peak_bytes;
    stats->budget_feasible = budget.feasible;
    bool fuse = false;
    if (!op.config().fused_chains) {
      stats->fallback_reason = "disabled";
    } else if (!internal::CanFuseChain(chain, op.config(),
                                       &stats->fallback_reason)) {
      // reason filled by CanFuseChain
    } else if (budget.active && !budget.feasible) {
      // Last-resort downgrade: no threshold assignment fits the budget,
      // so fusion's resident set cannot be bounded — run
      // product-at-a-time at the clamped floor thresholds.
      stats->fallback_reason = "budget_infeasible";
    } else {
      fuse = true;
    }
    result = internal::ExecuteChainNodes(chain, plan, op, budget, fuse, stats);
  }
  const double total_seconds = timer.ElapsedSeconds();
#if defined(ATMX_OBS_ENABLED)
  RecordChainDecision(chain, plan, op, *stats, total_seconds);
#else
  (void)total_seconds;
#endif
  return result;
}

}  // namespace atmx
