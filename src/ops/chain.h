// Sparse matrix-chain multiplication optimizer.
//
// The paper's introduction motivates adaptive physical organization with
// the observation (from the authors' SpMacho work [9]) that a fixed choice
// of evaluation order and storage types hurts sparse matrix *chain*
// multiplications. This module closes that loop: a dynamic-programming
// optimizer that picks the cheapest parenthesization of A1 * A2 * ... * An
// using the density-map estimator to predict every intermediate's topology
// and the kernel cost model to price every candidate product.

#ifndef ATMX_OPS_CHAIN_H_
#define ATMX_OPS_CHAIN_H_

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "estimate/density_map.h"
#include "ops/atmult.h"
#include "tile/at_matrix.h"

namespace atmx {

// Predicted cost (in cost-model work units) of one product X * Y given
// only the operands' density maps: expected intermediate products priced
// at the sparse-kernel rate plus the write cost of the estimated result.
// Cheap enough to evaluate O(n^3) times inside the chain DP.
// `write_factor` scales the write-side term — fused execution keeps an
// intermediate's tiles resident and feeds them straight into the consuming
// product, so their materialization cost is discounted (see
// ChainCostOptions::fused_write_factor). A finite `mem_limit_bytes`
// prices the write side at the water-level threshold that limit forces on
// this product alone — a per-candidate heuristic so the DP prefers plans
// whose intermediates stay cheap under the memory SLA (the chain-scope
// solver commits the final thresholds on the chosen tree). When non-null,
// `*estimate` receives the estimated density map of X * Y the write side
// was priced on, so the chain DP estimates every candidate product once.
double EstimateMultiplyCost(
    const DensityMap& x, const DensityMap& y, const CostModel& model,
    double rho_write, double write_factor = 1.0,
    std::size_t mem_limit_bytes = std::numeric_limits<std::size_t>::max(),
    DensityMap* estimate = nullptr);

// Fusion-aware chain pricing. When `fused` is set, every *intermediate*
// product's write cost is scaled by `fused_write_factor` (< 1: resident
// tiles are written once, cache-hot, and never re-materialized); the root
// product — whose result really is handed to the caller — keeps full
// write cost. This can shift the DP towards plans with larger but
// shorter-lived intermediates.
struct ChainCostOptions {
  bool fused = false;
  double fused_write_factor = 0.35;
  // Memory SLA the executing operator will run under. When finite, every
  // candidate product is priced at its own water-level threshold instead
  // of the raw rho_write (see EstimateMultiplyCost), steering the DP away
  // from parenthesizations whose intermediates would be forced sparse.
  std::size_t result_mem_limit_bytes =
      std::numeric_limits<std::size_t>::max();
};

struct ChainPlan {
  // split[i][j] = k: evaluate (A_i..A_k) * (A_{k+1}..A_j). Valid for
  // j > i; leaves are single matrices.
  std::vector<std::vector<int>> split;
  double estimated_cost = 0.0;

  // Human-readable parenthesization, e.g. "((A0*A1)*A2)".
  std::string ToString() const;
};

// Dynamic-programming plan over the chain's density maps. All maps must
// share the block size, and neighbours must have compatible shapes.
ChainPlan PlanChain(const std::vector<const DensityMap*>& maps,
                    const CostModel& model, double rho_write,
                    const ChainCostOptions& options = {});

// Cost of evaluating the chain strictly left-to-right, for comparison.
double EstimateLeftToRightCost(const std::vector<const DensityMap*>& maps,
                               const CostModel& model, double rho_write,
                               const ChainCostOptions& options = {});

// Execution statistics of one chain: the accumulated operator stats plus
// the per-product breakdown (products in execution = post-order of the
// plan tree, left subtree first; the last entry is the root product) and
// the fused-dataflow quantities.
struct ChainExecStats {
  AtMultStats total;
  std::vector<AtMultStats> per_product;

  bool fused = false;
  // Why fused execution was declined ("" when fused): "disabled",
  // "short_chain", "no_estimation", or "budget_infeasible". Recorded in
  // the audit ledger's chain record and shown by `atmx decisions`.
  std::string fallback_reason;
  // Tile tasks in the fused DAG (0 when executed product-at-a-time).
  index_t fused_tasks = 0;
  // Peak bytes of result tiles simultaneously resident during fused
  // execution — intermediates (dropped after their last consumer) plus
  // the accumulating root result.
  std::uint64_t resident_peak_bytes = 0;
  // Chain-scope memory budget (0 = unbounded): the shared
  // result_mem_limit_bytes the chain-scope water level planned
  // per-product write thresholds against, its projected resident-set
  // peak, and whether any threshold assignment could meet it.
  std::uint64_t budget_bytes = 0;
  std::uint64_t projected_peak_bytes = 0;
  bool budget_feasible = true;
};

// Executes the chain according to the plan using the given operator.
// When the operator's config has `fused_chains` set (and the chain has at
// least two products), the whole chain runs as one tile-granular task DAG
// — see docs/CHAINS.md; otherwise product-at-a-time. A finite
// result_mem_limit_bytes becomes a chain-scope budget: per-product write
// thresholds are planned against the shared limit (charging each
// intermediate for its resident lifetime) and imposed on BOTH executors,
// and the fused DAG admission-gates tile tasks against it — only a
// budget no threshold assignment can meet downgrades the chain to
// product-at-a-time (reason "budget_infeasible" in stats and ledger).
// Both paths produce bitwise-identical results at every budget.
// Intermediate-operand JIT conversions go through one shared
// ConversionCache per distinct source matrix either way, so a matrix
// appearing in several products converts each tile at most once per
// chain. `stats`, if non-null, receives the full breakdown.
ATMatrix ExecuteChain(const std::vector<const ATMatrix*>& chain,
                      const ChainPlan& plan, const AtMult& op,
                      ChainExecStats* stats = nullptr);

}  // namespace atmx

#endif  // ATMX_OPS_CHAIN_H_
