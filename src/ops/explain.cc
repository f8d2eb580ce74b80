#include "ops/explain.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "common/table_printer.h"
#include "estimate/density_estimator.h"
#include "ops/product_task.h"

namespace atmx {

std::string MultiplyPlan::ToString(index_t max_pairs) const {
  std::ostringstream os;
  os << "MultiplyPlan: " << num_row_bands << " x " << num_col_bands
     << " target tiles (" << dense_target_tiles << " dense, "
     << sparse_target_tiles << " sparse), rho_W="
     << effective_write_threshold << "\n";
  os << "  estimated result: " << static_cast<long long>(estimated_result_nnz)
     << " nnz, ~" << TablePrinter::FmtBytes(estimated_result_bytes) << "\n";
  os << "  " << pairs.size() << " pair multiplications, "
     << planned_conversions << " JIT conversions, projected cost "
     << static_cast<long long>(total_projected_cost) << " units\n";
  os << FormatDecisionLog(pairs, max_pairs);
  return os.str();
}

std::string FormatDecisionLog(const std::deque<ReprAuditRecord>& records,
                              index_t max_rows) {
  std::ostringstream os;
  index_t conversions = 0;
  double stored_cost = 0.0;
  double chosen_cost = 0.0;
  for (const ReprAuditRecord& r : records) {
    conversions += (r.a_converted() ? 1 : 0) + (r.b_converted() ? 1 : 0);
    stored_cost += r.stored_cost;
    chosen_cost += r.chosen_cost;
  }
  os << "Decisions: " << records.size() << " decisions, " << conversions
     << " JIT conversions, cost " << static_cast<long long>(chosen_cost)
     << " units (stored-representation baseline "
     << static_cast<long long>(stored_cost) << ")\n";

  TablePrinter table({"op", "C(ti,tj)", "k range", "rho_a", "rho_b", "rho_c",
                      "rho_W", "kernel", "conv", "cost", "stored"});
  const index_t shown =
      std::min<index_t>(max_rows, static_cast<index_t>(records.size()));
  for (index_t i = 0; i < shown; ++i) {
    const ReprAuditRecord& r = records[i];
    std::string conv;
    if (r.a_converted()) conv += "A";
    if (r.b_converted()) conv += conv.empty() ? "B" : "+B";
    if (conv.empty()) conv = "-";
    table.AddRow({std::to_string(r.op),
                  "(" + std::to_string(r.ti) + "," + std::to_string(r.tj) +
                      ")",
                  "[" + std::to_string(r.k0) + "," + std::to_string(r.k1) +
                      ")",
                  TablePrinter::Fmt(r.rho_a, 4),
                  TablePrinter::Fmt(r.rho_b, 4),
                  r.rho_c_pred < 0.0 ? "-" : TablePrinter::Fmt(r.rho_c_pred, 4),
                  TablePrinter::Fmt(r.rho_w, 4),
                  KernelTypeName(static_cast<KernelType>(r.kernel)), conv,
                  TablePrinter::Fmt(r.chosen_cost, 0),
                  TablePrinter::Fmt(r.stored_cost, 0)});
  }
  os << table.ToString();
  if (shown < static_cast<index_t>(records.size())) {
    os << "  ... " << (records.size() - shown) << " more decisions\n";
  }
  return os.str();
}

#if defined(ATMX_OBS_ENABLED)
std::string FormatChainDecisions(
    const std::deque<obs::ChainAuditRecord>& records, index_t max_rows) {
  std::ostringstream os;
  os << "ChainDecisions: " << records.size() << " chains\n";
  if (records.empty()) return os.str();

  TablePrinter table({"op", "plan", "len", "planned", "left-to-right",
                      "fused", "tasks", "resident peak", "budget", "time"});
  const index_t total = static_cast<index_t>(records.size());
  const index_t shown = std::min<index_t>(max_rows, total);
  // Newest records are the interesting ones; the ledger is oldest-first.
  for (index_t i = total - shown; i < total; ++i) {
    const obs::ChainAuditRecord& r = records[i];
    table.AddRow({std::to_string(r.op), r.plan, std::to_string(r.length),
                  TablePrinter::Fmt(r.planned_cost, 0),
                  TablePrinter::Fmt(r.alternative_cost, 0),
                  r.fused ? "yes" : "no(" + r.fallback_reason + ")",
                  std::to_string(r.fused_tasks),
                  TablePrinter::FmtBytes(r.resident_peak_bytes),
                  r.budget_bytes == 0 ? "-"
                                      : TablePrinter::FmtBytes(r.budget_bytes),
                  TablePrinter::Fmt(r.measured_seconds, 4) + "s"});
  }
  os << table.ToString();
  if (shown < total) {
    os << "  ... " << (total - shown) << " older chains\n";
  }

  const obs::ChainAuditRecord& last = records.back();
  if (!last.products.empty()) {
    os << "  products of chain op " << last.op << " (" << last.plan
       << "):\n";
    for (std::size_t i = 0; i < last.products.size(); ++i) {
      os << "    P" << i << ": " << last.products[i] << "\n";
    }
  }
  return os.str();
}
#endif  // ATMX_OBS_ENABLED

MultiplyPlan ExplainMultiply(const ATMatrix& a, const ATMatrix& b,
                             const AtmConfig& config,
                             const CostModel& cost_model) {
  ATMX_CHECK_EQ(a.cols(), b.rows());
  ATMX_CHECK_EQ(a.b_atomic(), b.b_atomic());
  const internal::ProductEstimate estimate =
      internal::EstimateProduct(a, b, /*c_init=*/nullptr, config);
  internal::ProductContext ctx;
  ctx.a = internal::OperandView::FromMatrix(a);
  ctx.b = internal::OperandView::FromMatrix(b);
  ctx.block = a.b_atomic();
  ctx.use_estimate = config.density_estimation;
  ctx.estimate = &estimate.map;
  ctx.rho_w = estimate.rho_w;
  ctx.dynamic_conversion = config.dynamic_conversion;
  ctx.cost_model = &cost_model;

  MultiplyPlan plan;
  plan.num_row_bands = a.num_row_bands();
  plan.num_col_bands = b.num_col_bands();
  plan.effective_write_threshold = estimate.rho_w;
  if (config.density_estimation) {
    plan.estimated_result_nnz = estimate.map.ExpectedNnz();
    plan.estimated_result_bytes =
        EstimateMemoryBytes(estimate.map, estimate.rho_w);
  }

  // The conversions planned so far stand in for execution's live caches.
  std::vector<bool> a_converted(a.num_tiles(), false);
  std::vector<bool> b_converted(b.num_tiles(), false);
  const internal::ConvertedQuery converted = [&](bool a_side, index_t tile) {
    return (a_side ? a_converted : b_converted)[tile];
  };
  for (index_t ti = 0; ti < plan.num_row_bands; ++ti) {
    for (index_t tj = 0; tj < plan.num_col_bands; ++tj) {
      const internal::TaskPlan task =
          internal::PlanTileTask(ctx, ti, tj, converted);
      ++(task.c_dense ? plan.dense_target_tiles : plan.sparse_target_tiles);
      for (std::size_t p = 0; p < task.pairs.size(); ++p) {
        const ReprAuditRecord& r = task.pairs[p];
        if (r.a_converted()) a_converted[task.tiles[p].first] = true;
        if (r.b_converted()) b_converted[task.tiles[p].second] = true;
        plan.planned_conversions += (r.a_converted() ? 1 : 0) +
                                    (r.b_converted() ? 1 : 0);
        plan.total_projected_cost += r.chosen_cost;
        plan.pairs.push_back(r);
      }
    }
  }
  return plan;
}

}  // namespace atmx
