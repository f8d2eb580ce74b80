// EXPLAIN for matrix multiplications — the relational-optimizer analogy
// the paper draws (section III-D compares density estimation to join
// cardinality estimation). Produces the *plan* of C = A * B without
// executing it: the estimated result topology, the chosen write
// threshold, and per tile-pair the windows, estimated densities, selected
// kernel, and whether a JIT conversion would fire. The plan comes from the
// same pair planner execution runs (ops/product_task.h) as the same
// decision records the audit ledger stores, and renders through the same
// table (FormatDecisionLog).

#ifndef ATMX_OPS_EXPLAIN_H_
#define ATMX_OPS_EXPLAIN_H_

#include <deque>
#include <string>

#include "common/config.h"
#include "cost/cost_model.h"
#include "ops/optimizer.h"
#include "tile/at_matrix.h"

#if defined(ATMX_OBS_ENABLED)
#include "obs/audit_ledger.h"
#endif

namespace atmx {

struct MultiplyPlan {
  index_t num_row_bands = 0;
  index_t num_col_bands = 0;
  double effective_write_threshold = 0.0;
  double estimated_result_nnz = 0.0;
  std::size_t estimated_result_bytes = 0;
  index_t dense_target_tiles = 0;
  index_t sparse_target_tiles = 0;
  index_t planned_conversions = 0;
  double total_projected_cost = 0.0;
  // One decision record per pair, tasks in (ti, tj) order (op = 0,
  // rho_c_actual = -1). A deque like the ledger's repr class, so one
  // renderer serves both.
  std::deque<ReprAuditRecord> pairs;

  // Multi-line human-readable plan; `max_pairs` rows of pair detail.
  std::string ToString(index_t max_pairs = 24) const;
};

// Plans C = A * B under the given configuration and cost model, mirroring
// every decision AtMult::Multiply would take (estimate, water level,
// target representations, pair kernels, JIT conversions) without running
// any kernel.
MultiplyPlan ExplainMultiply(const ATMatrix& a, const ATMatrix& b,
                             const AtmConfig& config,
                             const CostModel& cost_model = CostModel());

// Renders pair decision records — a plan's before execution, or the
// audit ledger's `repr` records after it — as a column-aligned table,
// `max_rows` rows of pair detail after a summary line. The summary counts
// only fresh JIT conversions (ReprAuditRecord::a_converted/b_converted),
// so on one team it equals the operator's conversion stats.
std::string FormatDecisionLog(const std::deque<ReprAuditRecord>& records,
                              index_t max_rows = 24);

#if defined(ATMX_OBS_ENABLED)
// Renders the ledger's chain records (one per ExecuteChain call: chosen
// parenthesization, planned vs left-to-right cost, fusion outcome or
// fallback reason, resident-tile peak) as a table followed by the
// per-product breakdown of the most recent chain. See docs/CHAINS.md.
std::string FormatChainDecisions(
    const std::deque<obs::ChainAuditRecord>& records, index_t max_rows = 16);
#endif

}  // namespace atmx

#endif  // ATMX_OPS_EXPLAIN_H_
