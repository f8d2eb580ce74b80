#include "ops/atmult.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "common/timer.h"
#include "estimate/density_estimator.h"
#include "kernels/kernel_dispatch.h"
#include "obs/obs.h"
#if defined(ATMX_OBS_ENABLED)
#include "obs/audit_ledger.h"
#endif
#include "ops/chain_exec.h"
#include "ops/optimizer.h"
#include "ops/product_task.h"
#include "tile/partitioner.h"

namespace atmx {

double AtMultStats::MaxTeamBusySeconds() const {
  double m = 0.0;
  for (double s : team_busy_seconds) m = std::max(m, s);
  return m;
}

double AtMultStats::MaxTeamCpuSeconds() const {
  double m = 0.0;
  for (double s : team_cpu_seconds) m = std::max(m, s);
  return m;
}

double AtMultStats::LocalFraction() const {
  const std::uint64_t local = local_read_bytes + local_write_bytes;
  const std::uint64_t total =
      local + remote_read_bytes + remote_write_bytes;
  return total == 0 ? 1.0
                    : static_cast<double>(local) / static_cast<double>(total);
}

std::string AtMultStats::ToString() const {
  std::ostringstream os;
  os << "AtMultStats{total=" << total_seconds
     << "s, estimate=" << estimate_seconds
     << "s, optimize=" << optimize_seconds
     << "s, multiply=" << multiply_seconds
     << "s, rho_w=" << effective_write_threshold
     << ", pairs=" << pair_multiplications
     << ", conv(s->d)=" << sparse_to_dense_conversions
     << ", conv(d->s)=" << dense_to_sparse_conversions
     << ", c_tiles(d/sp)=" << dense_result_tiles << "/"
     << sparse_result_tiles << ", compressed=" << compressed_result_tiles
     << ", local=" << LocalFraction()
     << ", stolen=" << tasks_stolen;
  os << ", kernels={";
  bool first = true;
  for (int v = 0; v < kNumKernelTypes; ++v) {
    if (kernel_invocations[v] == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << KernelTypeName(static_cast<KernelType>(v)) << "="
       << kernel_invocations[v];
  }
  os << "}}";
  return os.str();
}

AtMult::AtMult(const AtmConfig& config, const CostModel& cost_model)
    : config_(config), cost_model_(cost_model) {}

ATMatrix AtMult::Multiply(const ATMatrix& a, const ATMatrix& b,
                          AtMultStats* stats) const {
  return MultiplyImpl(nullptr, a, b, stats);
}

ATMatrix AtMult::Multiply(const CsrMatrix& a, const ATMatrix& b,
                          AtMultStats* stats) const {
  return MultiplyImpl(nullptr, AtmFromCsr(a, config_), b, stats);
}

ATMatrix AtMult::Multiply(const ATMatrix& a, const CsrMatrix& b,
                          AtMultStats* stats) const {
  return MultiplyImpl(nullptr, a, AtmFromCsr(b, config_), stats);
}

ATMatrix AtMult::Multiply(const DenseMatrix& a, const ATMatrix& b,
                          AtMultStats* stats) const {
  return MultiplyImpl(nullptr, AtmFromDense(a, config_), b, stats);
}

ATMatrix AtMult::Multiply(const ATMatrix& a, const DenseMatrix& b,
                          AtMultStats* stats) const {
  return MultiplyImpl(nullptr, a, AtmFromDense(b, config_), stats);
}

ATMatrix AtMult::MultiplyAdd(const ATMatrix& c, const ATMatrix& a,
                             const ATMatrix& b, AtMultStats* stats) const {
  ATMX_CHECK_EQ(c.rows(), a.rows());
  ATMX_CHECK_EQ(c.cols(), b.cols());
  ATMX_CHECK_EQ(c.b_atomic(), a.b_atomic());
  return MultiplyImpl(&c, a, b, stats);
}

ATMatrix AtMult::MultiplyImpl(const ATMatrix* c_init, const ATMatrix& a,
                              const ATMatrix& b, AtMultStats* stats) const {
  // Each operand gets its own private JIT conversion cache, so a == b
  // converts each side's tiles independently.
  ConversionCache a_cache;
  ConversionCache b_cache;
  internal::ProductNodeSpec node;
  node.left = &a;
  node.left_cache = &a_cache;
  node.right = &b;
  node.right_cache = &b_cache;
  node.c_init = c_init;
  AtMultStats local_stats;
  return internal::MultiplyNode(*this, node,
                                stats != nullptr ? stats : &local_stats);
}

namespace internal {

ATMatrix MultiplyNode(const AtMult& op, ProductNodeSpec node,
                      AtMultStats* stats) {
  const ATMatrix& a = *node.left;
  const ATMatrix& b = *node.right;
  ATMX_CHECK_EQ(a.cols(), b.rows());
  ATMX_CHECK_EQ(a.b_atomic(), b.b_atomic());
  const AtmConfig& config = op.config();
  WallTimer total_timer;
  ATMX_TRACE_SPAN_ARGS("op", "atmult",
                       {"m", a.rows()}, {"k", a.cols()}, {"n", b.cols()},
                       {"nnz_a", a.nnz()}, {"nnz_b", b.nnz()});
#if defined(ATMX_OBS_ENABLED)
  const bool ledger_enabled = obs::AuditLedger::Global().enabled();
  if (ledger_enabled) node.op_id = obs::AuditLedger::Global().NextOpId();
#endif

  // --- Density estimation + flexible write threshold (Alg. 2 l. 2-3). ---
  // A preset threshold (the chain executor solved the water level
  // chain-wide) replaces the local solve.
  const bool use_estimate = config.density_estimation;
  const ProductEstimate estimate =
      EstimateProduct(a, b, node.c_init, config, node.rho_w);
  node.rho_w = estimate.rho_w;
  if (use_estimate) node.estimate = &estimate.map;
  ATMX_GAUGE_SET("atmult.waterlevel.rho_w", node.rho_w);
#if defined(ATMX_OBS_ENABLED)
  std::uint64_t projected_bytes = 0;
  if (use_estimate) {
    // Projected result memory at the effective threshold — the number the
    // mem-tracker high-water mark (mem.high_water_bytes) and the realized
    // result size (atmult.result_bytes) are compared against.
    projected_bytes = EstimateMemoryBytes(estimate.map, node.rho_w);
    const double projected = static_cast<double>(projected_bytes);
    ATMX_GAUGE_SET("atmult.waterlevel.predicted_bytes", projected);
    if (config.result_mem_limit_bytes !=
        std::numeric_limits<std::size_t>::max()) {
      // Water-level headroom: how far under the memory SLA the projected
      // result stays at the effective threshold (negative = infeasible
      // SLA).
      ATMX_GAUGE_SET(
          "atmult.waterlevel.headroom_bytes",
          static_cast<double>(config.result_mem_limit_bytes) - projected);
    }
  }
#endif

  ChainExecStats run;
  ATMatrix result = RunProductGraph({node}, op, /*budget_bytes=*/0, &run);
  *stats = run.total;
  stats->estimate_seconds = estimate.seconds;
  stats->total_seconds = total_timer.ElapsedSeconds();

#if defined(ATMX_OBS_ENABLED)
  ATMX_HISTOGRAM_OBSERVE("atmult.seconds.total", stats->total_seconds);
  if (ledger_enabled && use_estimate) {
    // Water-level outcome: projection vs the materialized result and
    // the tracker high water while this operation ran.
    obs::WaterLevelAuditRecord w;
    w.op = node.op_id;
    w.rho_w = node.rho_w;
    w.projected_bytes = projected_bytes;
    w.result_bytes = result.MemoryBytes();
    w.high_water_bytes = obs::MemTracker::Global().high_water_bytes();
    w.feasible = estimate.feasible;
    obs::AuditLedger::Global().RecordWaterLevel(w);
  }
#endif
  return result;
}

}  // namespace internal

}  // namespace atmx
