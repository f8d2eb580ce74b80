#include "ops/explain.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "common/math_util.h"
#include "common/table_printer.h"
#include "estimate/density_estimator.h"
#include "estimate/water_level.h"
#include "ops/optimizer.h"

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

  TablePrinter table({"C(ti,tj)", "k range", "rho_a", "rho_b", "kernel",
                      "conv", "cost"});
  const index_t shown =
      std::min<index_t>(max_pairs, static_cast<index_t>(pairs.size()));
  for (index_t i = 0; i < shown; ++i) {
    const PlannedPair& p = pairs[i];
    std::string conv;
    if (p.converts_a) conv += "A";
    if (p.converts_b) conv += conv.empty() ? "B" : "+B";
    if (conv.empty()) conv = "-";
    table.AddRow({"(" + std::to_string(p.ti) + "," + std::to_string(p.tj) +
                      ")",
                  "[" + std::to_string(p.k0) + "," + std::to_string(p.k1) +
                      ")",
                  TablePrinter::Fmt(p.rho_a, 4),
                  TablePrinter::Fmt(p.rho_b, 4), KernelTypeName(p.kernel),
                  conv, TablePrinter::Fmt(p.projected_cost, 0)});
  }
  os << table.ToString();
  if (shown < static_cast<index_t>(pairs.size())) {
    os << "  ... " << (pairs.size() - shown) << " more pairs\n";
  }
  return os.str();
}

#if defined(ATMX_OBS_ENABLED)
std::string FormatDecisionLog(const std::deque<obs::ReprAuditRecord>& records,
                              index_t max_rows) {
  std::ostringstream os;
  index_t conversions = 0;
  double stored_cost = 0.0;
  double chosen_cost = 0.0;
  for (const obs::ReprAuditRecord& r : records) {
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
    const obs::ReprAuditRecord& r = records[i];
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
  const index_t block = a.b_atomic();

  MultiplyPlan plan;
  plan.num_row_bands = a.num_row_bands();
  plan.num_col_bands = b.num_col_bands();

  DensityMap estimate;
  double rho_w = config.rho_write;
  if (config.density_estimation) {
    estimate = EstimateProductDensity(a.density_map(), b.density_map());
    rho_w = EffectiveWriteThreshold(estimate, config.rho_write,
                                    config.result_mem_limit_bytes);
    plan.estimated_result_nnz = estimate.ExpectedNnz();
    plan.estimated_result_bytes = EstimateMemoryBytes(estimate, rho_w);
  }
  plan.effective_write_threshold = rho_w;

  // Tracks which tiles a JIT conversion has already been planned for, so
  // the cached-conversion logic matches execution.
  std::vector<bool> a_converted(a.num_tiles(), false);
  std::vector<bool> b_converted(b.num_tiles(), false);

  for (index_t ti = 0; ti < plan.num_row_bands; ++ti) {
    const index_t r0 = a.row_bounds()[ti];
    const index_t r1 = a.row_bounds()[ti + 1];
    for (index_t tj = 0; tj < plan.num_col_bands; ++tj) {
      const index_t c0 = b.col_bounds()[tj];
      const index_t c1 = b.col_bounds()[tj + 1];
      const index_t m = r1 - r0;
      const index_t n = c1 - c0;

      double rho_c = 0.0;
      if (config.density_estimation) {
        rho_c = estimate.RegionDensity(r0 / block, c0 / block,
                                       CeilDiv(m, block), CeilDiv(n, block));
      }
      const bool c_dense = config.density_estimation && rho_c >= rho_w;
      if (c_dense) {
        plan.dense_target_tiles++;
      } else {
        plan.sparse_target_tiles++;
      }

      auto a_band = a.TilesInRowBand(ti);
      auto b_band = b.TilesInColBand(tj);
      std::size_t ia = 0, ib = 0;
      while (ia < a_band.size() && ib < b_band.size()) {
        const Tile& at = a.tiles()[a_band[ia]];
        const Tile& bt = b.tiles()[b_band[ib]];
        const index_t k0 = std::max(at.col0(), bt.row0());
        const index_t k1 = std::min(at.col_end(), bt.row_end());
        const bool advance_a = at.col_end() <= bt.row_end();
        if (k1 > k0 && at.nnz() > 0 && bt.nnz() > 0) {
          MultiplyShape shape;
          shape.m = m;
          shape.k = k1 - k0;
          shape.n = n;
          shape.rho_a = a.density_map().RegionDensity(
              r0 / block, k0 / block, CeilDiv(m, block),
              CeilDiv(shape.k, block));
          shape.rho_b = b.density_map().RegionDensity(
              k0 / block, c0 / block, CeilDiv(shape.k, block),
              CeilDiv(n, block));
          shape.rho_c = rho_c;
          if (shape.rho_a > 0.0 && shape.rho_b > 0.0) {
            PairDecision decision;
            if (config.dynamic_conversion) {
              decision = DecidePairRepresentations(
                  cost_model, shape, at.is_dense(), bt.is_dense(),
                  a_converted[a_band[ia]], b_converted[b_band[ib]], c_dense,
                  true);
            } else {
              decision.a_dense = at.is_dense();
              decision.b_dense = bt.is_dense();
              decision.projected_cost = cost_model.ComputeCost(
                  MakeKernelType(at.is_dense(), bt.is_dense(), c_dense),
                  shape);
            }
            PlannedPair pair;
            pair.ti = ti;
            pair.tj = tj;
            pair.k0 = k0;
            pair.k1 = k1;
            pair.rho_a = shape.rho_a;
            pair.rho_b = shape.rho_b;
            pair.kernel = MakeKernelType(decision.a_dense, decision.b_dense,
                                         c_dense);
            pair.converts_a =
                decision.a_converted && !a_converted[a_band[ia]];
            pair.converts_b =
                decision.b_converted && !b_converted[b_band[ib]];
            pair.projected_cost = decision.projected_cost;
            if (pair.converts_a) {
              a_converted[a_band[ia]] = true;
              plan.planned_conversions++;
            }
            if (pair.converts_b) {
              b_converted[b_band[ib]] = true;
              plan.planned_conversions++;
            }
            plan.total_projected_cost += decision.projected_cost;
            plan.pairs.push_back(pair);
          }
        }
        if (advance_a) {
          ++ia;
        } else {
          ++ib;
        }
      }
    }
  }
  return plan;
}

}  // namespace atmx
