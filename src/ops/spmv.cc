#include "ops/spmv.h"

#include "common/check.h"
#include "kernels/simd/simd_dispatch.h"
#include "kernels/simd/simd_kernels.h"
#include "obs/obs.h"
#include "ops/executor.h"
#include "topology/thread_pool.h"

namespace atmx {

std::vector<value_t> SpMV(const CsrMatrix& a, const std::vector<value_t>& x) {
  ATMX_CHECK_EQ(static_cast<index_t>(x.size()), a.cols());
  ATMX_PERF_SPAN_ARGS("kernel", "spmv_csr", "kernel.spmv_csr",
                      {"rows", a.rows()}, {"nnz", a.nnz()});
  std::vector<value_t> y(a.rows(), 0.0);
  // Dispatch level hoisted out of the row loop (one static read per call,
  // not per row).
  const simd::Level level = simd::ActiveLevel();
  const index_t* col_idx = a.col_idx().data();
  const value_t* values = a.values().data();
  const auto& row_ptr = a.row_ptr();
  for (index_t i = 0; i < a.rows(); ++i) {
    y[i] = simd::CsrRowDotLevel(level, values, col_idx, row_ptr[i],
                                row_ptr[i + 1], x.data());
  }
  return y;
}

namespace {

// Accumulates one tile's contribution into y (indices in matrix coords).
// Dense tile rows take the dense dot kernel; sparse tile rows take the
// CSR row-dot kernel with x rebased to the tile's column window.
void ApplyTile(simd::Level level, const Tile& t, const std::vector<value_t>& x,
               std::vector<value_t>* y) {
  const value_t* x_win = x.data() + t.col0();
  if (t.is_dense()) {
    const DenseMatrix& d = t.dense();
    for (index_t i = 0; i < d.rows(); ++i) {
      const value_t* row = d.data() + i * d.ld();
      (*y)[t.row0() + i] += simd::DotLevel(level, row, x_win, d.cols());
    }
  } else {
    const CsrMatrix& s = t.sparse();
    const index_t* col_idx = s.col_idx().data();
    const value_t* values = s.values().data();
    const auto& row_ptr = s.row_ptr();
    for (index_t i = 0; i < s.rows(); ++i) {
      (*y)[t.row0() + i] += simd::CsrRowDotLevel(
          level, values, col_idx, row_ptr[i], row_ptr[i + 1], x_win);
    }
  }
}

}  // namespace

std::vector<value_t> SpMVParallel(const ATMatrix& a,
                                  const std::vector<value_t>& x,
                                  const AtmConfig& config) {
  ATMX_CHECK_EQ(static_cast<index_t>(x.size()), a.cols());
  // Counters here cover the scheduling + reduction on the calling thread;
  // per-thread worker counters are not aggregated across the team.
  ATMX_PERF_SPAN_ARGS("kernel", "spmv_atm_parallel",
                      "kernel.spmv_atm_parallel", {"rows", a.rows()},
                      {"tiles", static_cast<index_t>(a.tiles().size())});
  // Resolve the dispatch level on the calling thread before fanning out:
  // ActiveLevel's first call writes a gauge and possibly a warning, which
  // should not race from worker threads.
  const simd::Level level = simd::ActiveLevel();
  const int teams = config.EffectiveTeams();
  // A tile is processed by the band containing its first row, but tall
  // tiles write rows owned by other bands — so each team accumulates into
  // its own partial vector (one driver thread per team keeps this safe),
  // reduced at the end.
  std::vector<std::vector<value_t>> partials(
      teams, std::vector<value_t>(a.rows(), 0.0));
  // Static scheduling on purpose: which team runs a band decides which
  // partial vector it lands in, and the final reduction sums partials in
  // team order — stealing would reshuffle the floating-point addition
  // order for rows shared by tall tiles. Band tasks are near-uniform, so
  // stealing has little to win here anyway.
  ScheduleOptions static_options;
  static_options.work_stealing = false;
  internal::SchedulerLease(config)->RunTasks(
      a.num_row_bands(),
      [teams](index_t band) { return static_cast<int>(band % teams); },
      [&](WorkerTeam& team, index_t band) {
        for (index_t ti : a.TilesInRowBand(band)) {
          const Tile& t = a.tiles()[ti];
          if (t.row0() != a.row_bounds()[band]) continue;  // counted once
          ApplyTile(level, t, x, &partials[team.team_id()]);
        }
      },
      static_options, nullptr);
  std::vector<value_t> y(a.rows(), 0.0);
  for (const auto& partial : partials) {
    for (index_t i = 0; i < a.rows(); ++i) y[i] += partial[i];
  }
  return y;
}

std::vector<value_t> SpMV(const ATMatrix& a, const std::vector<value_t>& x) {
  ATMX_CHECK_EQ(static_cast<index_t>(x.size()), a.cols());
  ATMX_PERF_SPAN_ARGS("kernel", "spmv_atm", "kernel.spmv_atm",
                      {"rows", a.rows()},
                      {"tiles", static_cast<index_t>(a.tiles().size())});
  std::vector<value_t> y(a.rows(), 0.0);
  const simd::Level level = simd::ActiveLevel();
  for (const Tile& t : a.tiles()) ApplyTile(level, t, x, &y);
  return y;
}

}  // namespace atmx
