// The product pipeline (docs/CHAINS.md): every ATMULT product runs as a
// node of ONE tile-granular task DAG (RunProductGraph). A standalone
// multiplication is a one-node graph; a fused chain runs its planned
// parenthesization as one graph instead of a sequence of product-at-a-time
// calls. Every (row band, col band) pair of every product is a task; a
// downstream product's task starts the moment the input result-tiles it
// reads are complete — there is no full-matrix barrier between products.
// Intermediate result tiles stay resident only from their producing task
// until their last consuming task finishes (ResidentTileSet), so the peak
// intermediate footprint can stay far below materializing every
// intermediate whole.
//
// Every node runs the identical per-tile pipeline (RunProductTileTask) on
// bitwise-identical inputs — same operand tiles, same band iteration
// order, same density estimates (region by region in a fused chain, up
// front for a standalone product), same write threshold — so fused results
// are bitwise identical to the product-at-a-time reference, a sequence of
// one-node graphs. Under a finite memory budget the chain-scope water
// level (ChainBudgetPlan) plans one threshold per product and imposes it
// on BOTH executors, keeping that identity; the fused DAG additionally
// admission-gates ready tile tasks against the budget (scheduling order
// never affects results).

#ifndef ATMX_OPS_CHAIN_EXEC_H_
#define ATMX_OPS_CHAIN_EXEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "estimate/density_map.h"
#include "ops/chain.h"
#include "tile/at_matrix.h"

namespace atmx {

class ConversionCache;

namespace internal {

// One product of a task graph, C = left * right (+ c_init). Each operand
// is either a finished matrix, multiplied through the JIT conversion cache
// the caller assigns it, or the result of an earlier node of the same
// graph (its tiles stay resident until this node consumed them, and its
// conversions go through a cache of that node's result).
struct ProductNodeSpec {
  const ATMatrix* left = nullptr;  // null when left_node >= 0
  int left_node = -1;
  ConversionCache* left_cache = nullptr;
  const ATMatrix* right = nullptr;  // null when right_node >= 0
  int right_node = -1;
  ConversionCache* right_cache = nullptr;

  // MultiplyAdd's accumulator; requires `estimate` when density
  // estimation is on (the estimate must include it).
  const ATMatrix* c_init = nullptr;
  // Effective write threshold rhoD_W. Negative asks MultiplyNode to solve
  // the operator's own water level; RunProductGraph needs it set.
  double rho_w = -1.0;
  // Result density estimate computed before the graph runs (the
  // standalone operator's up-front estimate). Null: each task estimates
  // its own region from the operands' actual maps once they are final.
  const DensityMap* estimate = nullptr;
  // Planning-time estimate of the result, used for LPT task costs and
  // admission (a ChainBudgetPlan map); required in a multi-node graph.
  // Null: `estimate`.
  const DensityMap* planned_map = nullptr;
  // Audit-ledger op id; 0 draws one per node when the ledger is on.
  std::uint64_t op_id = 0;
};

// Runs `nodes` — in post-order: operands before consumers, the last node
// is the root whose result is returned — as one dependency-scheduled
// tile-task DAG on a pooled TeamScheduler of the config's shape
// (ops/executor.h). A non-zero `budget_bytes` admission-gates ready tasks
// against it (projected output bytes at each node's planned map and
// threshold reserved up front, released as consumers retire tiles; see
// ScheduleOptions::admit). Fills `stats`:
// per_product in node order, total (plus the graph-wide conversions and
// scheduler outcome), resident_peak_bytes and, for multi-node (fused)
// graphs, fused/fused_tasks. Publishes the atmult.* registry counters and
// the density-ledger join of every node. Owns one parked-accumulator slot
// per team (ProductContext::parked), outside the budget, until every task
// has run.
ATMatrix RunProductGraph(const std::vector<ProductNodeSpec>& nodes,
                         const AtMult& op, std::uint64_t budget_bytes,
                         ChainExecStats* stats);

// The ATMULT operator on one product (ops/atmult.cc): the up-front density
// estimate (with `node.c_init` folded in), the water level unless
// `node.rho_w` is preset, and a one-node RunProductGraph. AtMult's public
// methods run it with one private ConversionCache per operand; the
// product-at-a-time chain executor with its per-matrix caches and
// chain-planned thresholds. `stats` is required.
ATMatrix MultiplyNode(const AtMult& op, ProductNodeSpec node,
                      AtMultStats* stats);

// True when the chain is eligible for fused execution: at least two
// products (three matrices), and — when the result-memory budget is
// finite — density estimation enabled, since the chain-scope water level
// plans against estimated intermediate topologies. When declining, fills
// `*reason` (if non-null) with the audit-ledger fallback reason
// ("short_chain", "no_estimation").
bool CanFuseChain(const std::vector<const ATMatrix*>& chain,
                  const AtmConfig& config, std::string* reason = nullptr);

// Chain-scope memory plan: per-product write thresholds solved against the
// shared result_mem_limit_bytes budget, charging each intermediate for its
// resident lifetime (producer through last consumer; see
// SolveChainWaterLevel). Products are indexed in post-order of the plan
// tree — the same order as ChainExecStats::per_product.
struct ChainBudgetPlan {
  // True when a finite budget (with density estimation) drives
  // chain-scope thresholds; false leaves both executors on the
  // performance-optimal rho_write.
  bool active = false;
  // False when even the memory-minimal thresholds miss the budget; the
  // thresholds are then the clamped floor and ExecuteChain downgrades to
  // product-at-a-time execution as a last resort.
  bool feasible = true;
  std::size_t budget_bytes = 0;
  std::size_t projected_peak_bytes = 0;
  std::vector<double> rho_w;              // per product, post-order
  std::vector<DensityMap> planned_maps;   // per product, post-order
};

// Builds the budget plan for the chain: estimates every product's
// topology bottom-up along the plan tree and, when the operator's budget
// is finite, solves the chain-scope water level over the products'
// resident lifetimes. With an unbounded budget (or estimation disabled)
// the plan comes back inactive with only the planned maps filled.
ChainBudgetPlan PlanChainBudget(const std::vector<const ATMatrix*>& chain,
                                const ChainPlan& plan, const AtMult& op);

// Executes the planned chain over the post-order product list that
// PlanChainBudget prices too, with one JIT conversion cache per distinct
// source matrix and a fresh one per intermediate. `fused`: the list runs
// as one product graph (RunProductGraph); when `budget.active`, each
// product writes at its chain-planned threshold and the scheduler
// admission-gates ready tile tasks against the shared budget. Otherwise
// product-at-a-time, the bitwise reference of the fused graph: each
// product runs through MultiplyNode (at its chain-planned threshold when
// `budget.active`) with earlier products' results as its operands, and
// each intermediate is released with its cache right after its consumer
// ran. Preconditions: chain.size() == plan.split.size() >= 2, CanFuseChain()
// when `fused`, and `stats` is non-null (the caller owns reporting).
ATMatrix ExecuteChainNodes(const std::vector<const ATMatrix*>& chain,
                           const ChainPlan& plan, const AtMult& op,
                           const ChainBudgetPlan& budget, bool fused,
                           ChainExecStats* stats);

// Adds one product's operator stats into the chain total (timings,
// counters, kernel invocations, per-team seconds, locality bytes). The
// total's effective_write_threshold becomes the *minimum* across the
// accumulated products — the binding threshold of the chain — with 0.0
// treated as "unset"; per-product values live in
// ChainExecStats::per_product. Shared by the fused and product-at-a-time
// executors.
void AccumulateProductStats(const AtMultStats& s, AtMultStats* total);

}  // namespace internal
}  // namespace atmx

#endif  // ATMX_OPS_CHAIN_EXEC_H_
