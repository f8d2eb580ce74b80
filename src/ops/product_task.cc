#include "ops/product_task.h"

#include <algorithm>
#include <array>
#include <utility>

#include "common/check.h"
#include "common/math_util.h"
#include "common/timer.h"
#include "estimate/density_estimator.h"
#include "estimate/water_level.h"
#include "kernels/kernel_dispatch.h"
#include "kernels/sparse_accumulator.h"
#include "obs/obs.h"
#if defined(ATMX_OBS_ENABLED)
#include "obs/audit_ledger.h"
#endif

namespace atmx::internal {

OperandView OperandView::FromMatrix(const ATMatrix& m,
                                    bool col_band_slices) {
  OperandView v;
  v.matrix_ = &m;
  if (col_band_slices) v.slices_ = &m.col_band_slices();
  v.tiles_ = &m.tiles();
  v.row_bounds_ = &m.row_bounds();
  v.col_bounds_ = &m.col_bounds();
  v.map_ = &m.density_map();
  return v;
}

OperandView OperandView::FromGrid(const std::vector<Tile>* tiles,
                                  const std::vector<index_t>* row_bounds,
                                  const std::vector<index_t>* col_bounds,
                                  const DensityMap* map) {
  OperandView v;
  v.tiles_ = tiles;
  v.row_bounds_ = row_bounds;
  v.col_bounds_ = col_bounds;
  v.map_ = map;
  const index_t nrb = static_cast<index_t>(row_bounds->size()) - 1;
  const index_t ncb = static_cast<index_t>(col_bounds->size()) - 1;
  ATMX_CHECK_EQ(static_cast<index_t>(tiles->size()), nrb * ncb);
  v.row_band_tiles_.resize(static_cast<std::size_t>(nrb));
  for (index_t ti = 0; ti < nrb; ++ti) {
    auto& band = v.row_band_tiles_[static_cast<std::size_t>(ti)];
    band.reserve(static_cast<std::size_t>(ncb));
    for (index_t tj = 0; tj < ncb; ++tj) band.push_back(ti * ncb + tj);
  }
  v.col_band_tiles_.resize(static_cast<std::size_t>(ncb));
  for (index_t tj = 0; tj < ncb; ++tj) {
    auto& band = v.col_band_tiles_[static_cast<std::size_t>(tj)];
    band.reserve(static_cast<std::size_t>(nrb));
    for (index_t ti = 0; ti < nrb; ++ti) band.push_back(ti * ncb + tj);
  }
  return v;
}

namespace {

// Prepared pair: operands resolved to concrete representations/windows.
struct PreparedPair {
  Operand a;
  Operand b;
  std::uint64_t a_read_bytes;
  std::uint64_t b_read_bytes;
  int a_home;
  int b_home;
};

// Concatenates per-thread row-chunk CSRs (chunk c covers rows
// [splits[c], splits[c+1])) into one matrix of `rows` rows.
CsrMatrix ConcatCsrRowChunks(std::vector<CsrMatrix> chunks, index_t rows,
                             index_t cols) {
  index_t nnz = 0;
  for (const CsrMatrix& c : chunks) nnz += c.nnz();
  std::vector<index_t> row_ptr;
  row_ptr.reserve(rows + 1);
  row_ptr.push_back(0);
  std::vector<index_t> col_idx;
  col_idx.reserve(nnz);
  std::vector<value_t> values;
  values.reserve(nnz);
  for (const CsrMatrix& c : chunks) {
    const index_t offset = static_cast<index_t>(col_idx.size());
    for (index_t i = 0; i < c.rows(); ++i) {
      row_ptr.push_back(c.row_ptr()[i + 1] + offset);
    }
    col_idx.insert(col_idx.end(), c.col_idx().begin(), c.col_idx().end());
    values.insert(values.end(), c.values().begin(), c.values().end());
  }
  ATMX_CHECK_EQ(static_cast<index_t>(row_ptr.size()), rows + 1);
  return CsrMatrix(rows, cols, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

// Approximate bytes read from an operand window, for locality accounting.
std::uint64_t ApproxWindowBytes(bool dense, double rho, index_t m,
                                index_t n) {
  const double area = static_cast<double>(m) * static_cast<double>(n);
  return static_cast<std::uint64_t>(
      dense ? area * kDenseElemBytes : rho * area * kSparseElemBytes);
}

#if defined(ATMX_OBS_ENABLED)
// Closes the kernel observation of a task's row loop, which started at
// `start_ns` (-1 when the trace recorder was off) and `begin`. Both target
// paths run every pair inside one row loop, so no pair has an interval or
// a counter delta of its own. Each pair gets one "kernel" complete event
// covering the loop and flagged `interleaved` (they stack in Perfetto),
// which keeps the kernel span count equal to the kernel invocation
// counters. The loop's counter delta goes to the pairs' variant when they
// all agree, and otherwise to the kernel.mixed_loop pseudo-variant rather
// than to every variant in full.
void RecordInterleavedKernels(const std::vector<PreparedPair>& prepared,
                              bool c_dense, std::int64_t start_ns,
                              const obs::PerfSnapshot& begin,
                              std::vector<obs::TraceArg> args) {
  if (prepared.empty()) return;
  const obs::PerfDelta delta = obs::PerfDeltaSince(begin);
  const auto kernel = [c_dense](const PreparedPair& pp) {
    return DispatchKernelType(pp.a, pp.b, c_dense);
  };
  const KernelType kt0 = kernel(prepared.front());
  const bool uniform = std::all_of(
      prepared.begin(), prepared.end(),
      [&](const PreparedPair& pp) { return kernel(pp) == kt0; });
  obs::AccumulatePerfMetrics(
      uniform ? KernelPerfMetricPrefix(kt0) : "kernel.mixed_loop", delta);
  if (start_ns < 0) return;
  const std::int64_t dur_ns = obs::TraceRecorder::NowNanos() - start_ns;
  args.push_back({"interleaved", 1});
  obs::AppendPerfArgs(delta, &args);
  for (const PreparedPair& pp : prepared) {
    obs::TraceRecorder::Global().RecordComplete(
        "kernel", KernelTypeName(kernel(pp)), start_ns, dur_ns, args);
  }
}
#endif

}  // namespace

ProductEstimate EstimateProduct(const ATMatrix& a, const ATMatrix& b,
                                const ATMatrix* c_init,
                                const AtmConfig& config,
                                double preset_rho_w) {
  ProductEstimate est;
  if (!config.density_estimation) {
    est.rho_w = config.rho_write;
    return est;
  }
  ATMX_TRACE_SPAN("op", "estimate_density");
  WallTimer timer;
  est.map = EstimateProductDensity(a.density_map(), b.density_map());
  if (c_init != nullptr) {
    est.map = CombineAdditive(est.map, c_init->density_map());
  }
  est.rho_w = preset_rho_w >= 0.0
                  ? preset_rho_w
                  : EffectiveWriteThreshold(est.map, config.rho_write,
                                            config.result_mem_limit_bytes,
                                            &est.feasible);
  est.seconds = timer.ElapsedSeconds();
  return est;
}

TaskPlan PlanTileTask(const ProductContext& ctx, index_t ti, index_t tj,
                      const ConvertedQuery& converted) {
  const OperandView& a = ctx.a;
  const OperandView& b = ctx.b;
  const index_t block = ctx.block;
  const index_t r0 = a.row_bounds()[ti];
  const index_t c0 = b.col_bounds()[tj];
  const index_t m = a.row_bounds()[ti + 1] - r0;
  const index_t n = b.col_bounds()[tj + 1] - c0;

  TaskPlan plan;
  // Target representation from the estimated density (Alg. 2 l. 6).
  if (ctx.use_estimate) {
    plan.rho_c = ctx.estimate->RegionDensity(
        r0 / block, c0 / block, CeilDiv(m, block), CeilDiv(n, block));
  }
  plan.c_dense = ctx.use_estimate && plan.rho_c >= ctx.rho_w;

  // Tiles an earlier pair of this task chose to convert: the pairs after
  // it see their other representation as available, as when execution
  // converted pair by pair. Operands sharing one cache (a chain
  // multiplying a source matrix by itself) share the list.
  std::vector<index_t> a_chosen;
  std::vector<index_t> b_own;
  std::vector<index_t>& b_chosen =
      ctx.a_cache != nullptr && ctx.a_cache == ctx.b_cache ? a_chosen : b_own;
  const auto available = [&converted](const std::vector<index_t>& chosen,
                                      bool a_side, index_t tile) {
    return std::find(chosen.begin(), chosen.end(), tile) != chosen.end() ||
           converted(a_side, tile);
  };

  // Match tiles along the contraction dimension (Fig. 4), deciding each
  // pair as it is found.
  auto a_band = a.TilesInRowBand(ti);
  auto b_band = b.TilesInColBand(tj);
  std::size_t ia = 0, ib = 0;
  while (ia < a_band.size() && ib < b_band.size()) {
    const index_t a_idx = a_band[ia];
    const index_t b_idx = b_band[ib];
    const Tile& at = a.tile(a_idx);
    const Tile& bt = b.tile(b_idx);
    const index_t k0 = std::max(at.col0(), bt.row0());
    const index_t k1 = std::min(at.col_end(), bt.row_end());
    if (at.col_end() <= bt.row_end()) {
      ++ia;
    } else {
      ++ib;
    }
    if (k1 <= k0 || at.nnz() == 0 || bt.nnz() == 0) continue;

    MultiplyShape shape;
    shape.m = m;
    shape.k = k1 - k0;
    shape.n = n;
    shape.rho_a = a.map().RegionDensity(r0 / block, k0 / block,
                                        CeilDiv(m, block),
                                        CeilDiv(shape.k, block));
    shape.rho_b = b.map().RegionDensity(k0 / block, c0 / block,
                                        CeilDiv(shape.k, block),
                                        CeilDiv(n, block));
    shape.rho_c = plan.rho_c;
    // The tile pair matched on bounding boxes, but the referenced windows
    // can still be exactly empty (e.g. a huge melted sparse tile that only
    // touches the band in a far corner). The density map is exact at block
    // granularity and windows are block-aligned, so a zero region density
    // proves the pair contributes nothing.
    if (shape.rho_a == 0.0 || shape.rho_b == 0.0) continue;

    const bool a_cached = available(a_chosen, /*a_side=*/true, a_idx);
    const bool b_cached = available(b_chosen, /*a_side=*/false, b_idx);
    const PairDecision decision = DecidePairRepresentations(
        *ctx.cost_model, shape, at.is_dense(), bt.is_dense(), a_cached,
        b_cached, plan.c_dense, ctx.dynamic_conversion);
    if (decision.a_converted) a_chosen.push_back(a_idx);
    if (decision.b_converted) b_chosen.push_back(b_idx);

    ReprAuditRecord r;
    r.op = ctx.op_id;
    r.ti = ti;
    r.tj = tj;
    r.k0 = k0;
    r.k1 = k1;
    r.m = shape.m;
    r.k = shape.k;
    r.n = shape.n;
    r.rho_a = shape.rho_a;
    r.rho_b = shape.rho_b;
    r.rho_c_pred = ctx.use_estimate ? plan.rho_c : -1.0;
    r.rho_c_actual = -1.0;
    r.rho_w = ctx.rho_w;
    r.a_stored_dense = at.is_dense();
    r.b_stored_dense = bt.is_dense();
    r.a_cached = a_cached;
    r.b_cached = b_cached;
    r.allow_conversion = ctx.dynamic_conversion;
    r.c_dense = plan.c_dense;
    r.kernel = static_cast<int>(
        MakeKernelType(decision.a_dense, decision.b_dense, plan.c_dense));
    r.stored_cost = decision.stored_cost;
    r.chosen_cost = decision.projected_cost;
    plan.pairs.push_back(r);
    plan.tiles.emplace_back(a_idx, b_idx);
  }
  return plan;
}

void RunProductTileTask(const ProductContext& ctx, WorkerTeam& team,
                        index_t task) {
  const OperandView& a = ctx.a;
  const OperandView& b = ctx.b;
  const index_t block = ctx.block;
  const index_t num_tj = b.num_col_bands();
  const index_t ti = task / num_tj;
  const index_t tj = task % num_tj;
  const index_t r0 = a.row_bounds()[ti];
  const index_t r1 = a.row_bounds()[ti + 1];
  const index_t c0 = b.col_bounds()[tj];
  const index_t c1 = b.col_bounds()[tj + 1];
  // Once per task, so cheap enough to keep in release builds: any check
  // failure below names the C tile being produced.
  ScopedCheckContext check_ctx(
      "AtMult tile (%lld,%lld) C[%lld:%lld,%lld:%lld)",
      static_cast<long long>(ti), static_cast<long long>(tj),
      static_cast<long long>(r0), static_cast<long long>(r1),
      static_cast<long long>(c0), static_cast<long long>(c1));
  const index_t m = r1 - r0;
  const index_t n = c1 - c0;
  const int exec_node = team.team_id();
  ATMX_TRACE_SPAN_ARGS("op", "tile_task",
                       {"ti", ti}, {"tj", tj}, {"node", exec_node},
                       {"rows", m}, {"cols", n});

  double opt_seconds = 0.0;
  double mult_seconds = 0.0;
  index_t pairs_done = 0;
  std::uint64_t local_read = 0, remote_read = 0;
  std::array<index_t, kNumKernelTypes> task_kernels{};
#if defined(ATMX_OBS_ENABLED)
  const obs::PerfSnapshot task_perf_begin =
      ctx.ledger_enabled ? obs::PerfBeginSnapshot() : obs::PerfSnapshot();
#endif

  std::vector<Tile>& c_tiles = *ctx.c_tiles;
  std::vector<double>& block_counts = *ctx.block_counts;
  const index_t grid_cols = ctx.grid_cols;

  // Accumulator windows: tiles of the initial C overlapping this task's
  // region, with their intersection boxes in region-local coordinates.
  struct SeedWindow {
    const Tile* tile;
    index_t tr0, tr1, tc0, tc1;  // tile-local intersection
    index_t out_r0, out_c0;      // region-local offset of the window
  };
  std::vector<SeedWindow> seeds;
  if (ctx.c_init != nullptr) {
    for (const Tile& t : ctx.c_init->tiles()) {
      const index_t ir0 = std::max(r0, t.row0());
      const index_t ir1 = std::min(r1, t.row_end());
      const index_t ic0 = std::max(c0, t.col0());
      const index_t ic1 = std::min(c1, t.col_end());
      if (ir0 < ir1 && ic0 < ic1 && t.nnz() > 0) {
        seeds.push_back({&t, ir0 - t.row0(), ir1 - t.row0(),
                         ic0 - t.col0(), ic1 - t.col0(), ir0 - r0,
                         ic0 - c0});
        // The referenced accumulator window is read exactly once while
        // seeding; account it like the operand windows so MultiplyAdd's
        // locality fractions include the C-side traffic.
        const double tile_area =
            static_cast<double>(t.rows()) * static_cast<double>(t.cols());
        const double rho =
            tile_area > 0 ? static_cast<double>(t.nnz()) / tile_area : 0.0;
        const std::uint64_t bytes = ApproxWindowBytes(
            t.is_dense(), rho, ir1 - ir0, ic1 - ic0);
        (t.home_node() == exec_node ? local_read : remote_read) += bytes;
      }
    }
  }

  // --- Optimize: plan every pair, then run its JIT conversions. --------
  WallTimer opt_timer;
  // Decision records are held back until the C tile is materialized: its
  // realized density resolves every pair decision of this task.
  TaskPlan plan =
      PlanTileTask(ctx, ti, tj, [&ctx](bool a_side, index_t tile) {
        const ConversionCache& cache = *(a_side ? ctx.a_cache : ctx.b_cache);
        return (a_side ? ctx.a : ctx.b).tile(tile).is_dense()
                   ? cache.HasSparse(tile)
                   : cache.HasDense(tile);
      });
  const double rho_c = plan.rho_c;
  const bool c_dense = plan.c_dense;
  std::vector<PreparedPair> prepared;
  prepared.reserve(plan.pairs.size());
  for (std::size_t p = 0; p < plan.pairs.size(); ++p) {
    const ReprAuditRecord& r = plan.pairs[p];
    const auto [a_idx, b_idx] = plan.tiles[p];
    const Tile& at = a.tile(a_idx);
    const Tile& bt = b.tile(b_idx);
    PreparedPair pp;
    pp.a_home = at.home_node();
    pp.b_home = bt.home_node();
    // A operand: window rows = C rows, window cols = [k0, k1).
    const Window wa{r0 - at.row0(), r1 - at.row0(), r.k0 - at.col0(),
                    r.k1 - at.col0()};
    if (r.a_dense()) {
      const DenseMatrix& dm =
          at.is_dense() ? at.dense() : ctx.a_cache->GetDense(a_idx, at);
      pp.a = Operand::Dense(
          dm.View().Window(wa.r0, wa.c0, wa.rows(), wa.cols()));
    } else {
      const CsrMatrix& sm =
          at.is_dense() ? ctx.a_cache->GetSparse(a_idx, at) : at.sparse();
      pp.a = Operand::Sparse(&sm, wa);
    }
    // B operand: window rows = [k0, k1), window cols = C cols.
    const Window wb{r.k0 - bt.row0(), r.k1 - bt.row0(), c0 - bt.col0(),
                    c1 - bt.col0()};
    if (r.b_dense()) {
      const DenseMatrix& dm =
          bt.is_dense() ? bt.dense() : ctx.b_cache->GetDense(b_idx, bt);
      pp.b = Operand::Dense(
          dm.View().Window(wb.r0, wb.c0, wb.rows(), wb.cols()));
    } else if (const CsrMatrix* slice = b.BandSlice(b_idx, tj)) {
      // The band's slice holds exactly the window's columns, rebased: a
      // full-width window reads each row from its row pointers.
      pp.b = Operand::Sparse(slice, {wb.r0, wb.r1, 0, n});
    } else {
      const CsrMatrix& sm =
          bt.is_dense() ? ctx.b_cache->GetSparse(b_idx, bt) : bt.sparse();
      pp.b = Operand::Sparse(&sm, wb);
    }
    pp.a_read_bytes = ApproxWindowBytes(r.a_dense(), r.rho_a, r.m, r.k);
    pp.b_read_bytes = ApproxWindowBytes(r.b_dense(), r.rho_b, r.k, r.n);
    prepared.push_back(std::move(pp));
  }
  // The JIT conversions run inside this timer.
  opt_seconds = opt_timer.ElapsedSeconds();

  // --- Execute: accumulate all pairs into the C tile. -----------------
  // Seeds one region-local row of the accumulator: add(j, v) for every
  // non-zero seed value, j region-local. Both target paths seed through it.
  const auto seed_row = [&seeds](index_t i, const auto& add) {
    for (const SeedWindow& sw : seeds) {
      const index_t ti_local = sw.tr0 + (i - sw.out_r0);
      if (i < sw.out_r0 || ti_local >= sw.tr1) continue;
      if (sw.tile->is_dense()) {
        const DenseMatrix& d = sw.tile->dense();
        const value_t* src = d.data() + ti_local * d.ld();
        for (index_t j = sw.tc0; j < sw.tc1; ++j) {
          if (src[j] != 0.0) add(sw.out_c0 + j - sw.tc0, src[j]);
        }
      } else {
        const CsrMatrix& sp = sw.tile->sparse();
        index_t first, last;
        sp.RowColRange(ti_local, sw.tc0, sw.tc1, &first, &last);
        for (index_t p = first; p < last; ++p) {
          add(sw.out_c0 + sp.col_idx()[p] - sw.tc0, sp.values()[p]);
        }
      }
    }
  };
  WallTimer mult_timer;
#if defined(ATMX_OBS_ENABLED)
  const std::int64_t loop_start_ns =
      obs::TraceRecorder::Global().enabled() ? obs::TraceRecorder::NowNanos()
                                             : -1;
  const obs::PerfSnapshot loop_begin =
      prepared.empty() ? obs::PerfSnapshot() : obs::PerfBeginSnapshot();
  const auto record_kernels = [&] {
    RecordInterleavedKernels(prepared, c_dense, loop_start_ns, loop_begin,
                             {{"ti", ti},
                              {"tj", tj},
                              {"rows", m},
                              {"cols", n},
                              {"node", exec_node}});
  };
#else
  const auto record_kernels = [] {};
#endif
  if (prepared.empty() && seeds.empty()) {
    // Nothing contributes to this C tile (common off the diagonal of
    // banded matrices): emit an empty sparse tile without touching the
    // row loop.
    c_tiles[task] = Tile::MakeSparse(r0, c0, CsrMatrix(m, n));
  } else if (c_dense) {
    // The team's parked accumulator is all zero: take it when the shape
    // fits. A fresh one is not zero-filled here; the row loop zeroes it.
    DenseMatrix& parked = (*ctx.parked)[static_cast<std::size_t>(exec_node)];
    DenseMatrix target;
    const bool zeroed = parked.rows() == m && parked.cols() == n;
    if (zeroed) {
#if defined(ATMX_OBS_ENABLED)
      obs::MemTracker::Global().RecordFree(parked.MemoryBytes());
#endif
      target = std::exchange(parked, DenseMatrix());
    } else {
      target = DenseMatrix::Uninitialized(m, n);
    }
    // Counts read only blocks the estimate reaches: an estimate is exactly
    // 0 only where no (A block, B block) pair along the contraction and no
    // C block is non-zero, so with finite operands no kernel or seed wrote
    // there.
    const auto reached = [&](index_t bi, index_t j0) {
      return ctx.estimate->At(bi, (c0 + j0) / block) != 0.0;
    };
    const index_t tile_block_cols = CeilDiv(n, block);
    std::vector<index_t> row_ptr(static_cast<std::size_t>(m) + 1, 0);
    // Non-zeros per (row, block column) of the tile. A row belongs to one
    // chunk, so chunks write disjoint entries.
    std::vector<index_t> row_block_nnz(
        static_cast<std::size_t>(m * tile_block_cols), 0);
    const DenseMutView view = target.MutView();
    // One pass per 16-row chunk, on the team's threads, while the chunk is
    // cache-hot: zero its rows (unreached blocks too, the stored tile must
    // be zero there), add its seeds, run every pair in plan order, and
    // count its non-zeros per reached block. Every element receives 0, its
    // seed, then each pair's contributions in plan order and ascending k,
    // whatever the row split, so the values do not depend on the team.
    team.ParallelFor(m, /*grain=*/16, [&](index_t lo, index_t hi) {
      if (!zeroed) std::fill(view.RowPtr(lo), view.RowPtr(hi), 0.0);
      for (index_t i = lo; i < hi; ++i) {
        value_t* row = view.RowPtr(i);
        seed_row(i, [row](index_t j, value_t v) { row[j] += v; });
      }
      for (const PreparedPair& pp : prepared) {
        MultiplyIntoDense(pp.a, pp.b, view, lo, hi);
      }
      for (index_t i = lo; i < hi; ++i) {
        const index_t bi = (r0 + i) / block;
        const value_t* row = view.RowPtr(i);
        index_t* counts = row_block_nnz.data() + i * tile_block_cols;
        for (index_t j0 = 0; j0 < n; j0 += block) {
          if (!reached(bi, j0)) continue;
          const index_t j1 = std::min(j0 + block, n);
          index_t count = 0;
          for (index_t j = j0; j < j1; ++j) count += (row[j] != 0.0);
          counts[j0 / block] = count;
          row_ptr[i + 1] += count;
        }
      }
    });
    record_kernels();
    index_t tile_nnz = 0;
    for (index_t i = 0; i < m; ++i) {
      const index_t bi = (r0 + i) / block;
      const index_t* counts = row_block_nnz.data() + i * tile_block_cols;
      for (index_t jb = 0; jb < tile_block_cols; ++jb) {
        block_counts[bi * grid_cols + (c0 + jb * block) / block] +=
            static_cast<double>(counts[jb]);
      }
      tile_nnz += row_ptr[i + 1];
    }
    // Re-decide the representation from the realized density. Below
    // rho0_W the estimate was wrong: copy the tile into an exactly sized
    // CSR (count, then copy), zeroing each entry as it is copied, and park
    // the now all-zero accumulator for the team's next dense tile. The
    // water level only raises rhoD_W above rho0_W for memory, and a tile
    // realizing between the two stays dense as planned.
    if (static_cast<double>(tile_nnz) <
        ctx.rho_write * static_cast<double>(m) * static_cast<double>(n)) {
      for (index_t i = 0; i < m; ++i) row_ptr[i + 1] += row_ptr[i];
      std::vector<index_t> col_idx(static_cast<std::size_t>(tile_nnz));
      std::vector<value_t> values(static_cast<std::size_t>(tile_nnz));
      for (index_t i = 0; i < m; ++i) {
        const index_t bi = (r0 + i) / block;
        value_t* row = target.data() + i * target.ld();
        index_t p = row_ptr[i];
        // Blocks run left to right, so columns come out ascending.
        for (index_t j0 = 0; j0 < n; j0 += block) {
          if (!reached(bi, j0)) continue;
          const index_t j1 = std::min(j0 + block, n);
          for (index_t j = j0; j < j1; ++j) {
            if (row[j] == 0.0) continue;
            col_idx[p] = j;
            values[p] = row[j];
            ++p;
            row[j] = 0.0;
          }
        }
      }
      c_tiles[task] = Tile::MakeSparse(
          r0, c0, CsrMatrix(m, n, std::move(row_ptr), std::move(col_idx),
                            std::move(values)));
#if defined(ATMX_OBS_ENABLED)
      obs::MemTracker::Global().RecordFree(parked.MemoryBytes());
      obs::MemTracker::Global().RecordAlloc(target.MemoryBytes());
#endif
      parked = std::move(target);
    } else {
      c_tiles[task] =
          Tile::MakeDenseCounted(r0, c0, std::move(target), tile_nnz);
    }
  } else {
    const int num_chunks =
        static_cast<int>(std::min<index_t>(team.size(), std::max<index_t>(
                                                            1, m / 64)));
    // Nagasaka-style accumulator selection: ultra-sparse result rows use
    // the hash SPA instead of paying O(n) dense-array init + flag-array
    // cache pollution. Unknown density (estimation off) keeps the dense
    // default; either mode produces bitwise-identical rows.
    const double expected_row_nnz =
        ctx.use_estimate ? rho_c * static_cast<double>(n) : -1.0;
    if (num_chunks <= 1) {
      CsrBuilder builder(m, n);
      SparseAccumulator spa;
      spa.ResizeAdaptive(n, expected_row_nnz);
      for (index_t i = 0; i < m; ++i) {
        seed_row(i, [&spa](index_t j, value_t v) { spa.Add(j, v); });
        for (const PreparedPair& pp : prepared) {
          AccumulateRowInto(pp.a, pp.b, i, &spa);
        }
        spa.FlushToBuilder(&builder);
        builder.FinishRowsUpTo(i + 1);
      }
      c_tiles[task] = Tile::MakeSparse(r0, c0, builder.Build());
    } else {
      std::vector<CsrMatrix> chunks(num_chunks);
      std::vector<index_t> splits(num_chunks + 1);
      for (int t = 0; t <= num_chunks; ++t) {
        splits[t] = m * t / num_chunks;
      }
      team.ParallelRun([&](int thread) {
        if (thread >= num_chunks) return;
        const index_t lo = splits[thread];
        const index_t hi = splits[thread + 1];
        CsrBuilder builder(hi - lo, n);
        SparseAccumulator spa;
        spa.ResizeAdaptive(n, expected_row_nnz);
        for (index_t i = lo; i < hi; ++i) {
          seed_row(i, [&spa](index_t j, value_t v) { spa.Add(j, v); });
          for (const PreparedPair& pp : prepared) {
            AccumulateRowInto(pp.a, pp.b, i, &spa);
          }
          spa.FlushToBuilder(&builder);
          builder.FinishRowsUpTo(i - lo + 1);
        }
        chunks[thread] = builder.Build();
      });
      c_tiles[task] =
          Tile::MakeSparse(r0, c0, ConcatCsrRowChunks(std::move(chunks),
                                                      m, n));
    }
    record_kernels();
  }
  for (const PreparedPair& pp : prepared) {
    ++task_kernels[static_cast<int>(
        DispatchKernelType(pp.a, pp.b, c_dense))];
  }
  if (!c_dense) {
    const CsrMatrix& sp = c_tiles[task].sparse();
    for (index_t i = 0; i < m; ++i) {
      const index_t bi = (r0 + i) / block;
      for (index_t col : sp.RowCols(i)) {
        block_counts[bi * grid_cols + (c0 + col) / block] += 1.0;
      }
    }
  }
  mult_seconds = mult_timer.ElapsedSeconds();
#if defined(ATMX_OBS_ENABLED)
  if (ctx.ledger_enabled) {
    auto& ledger = obs::AuditLedger::Global();
    // The realized tile density resolves every pair decision of this
    // task (all pairs share the C region the estimate covered).
    const index_t tile_nnz = c_tiles[task].nnz();
    const double area = static_cast<double>(m) * static_cast<double>(n);
    const double rho_c_actual =
        area > 0.0 ? static_cast<double>(tile_nnz) / area : 0.0;
    // Task-level cost prediction: the pairs' chosen costs (compute plus
    // any conversion the optimizer priced in) and the write side of the
    // expected SPA traffic they feed.
    double predicted_task_cost = 0.0;
    double predicted_intermediates = 0.0;
    for (ReprAuditRecord& repr : plan.pairs) {
      repr.rho_c_actual = rho_c_actual;
      ledger.RecordRepr(repr);
      predicted_task_cost += repr.chosen_cost;
      predicted_intermediates += repr.rho_a * repr.rho_b *
                                 static_cast<double>(repr.m) *
                                 static_cast<double>(repr.k) *
                                 static_cast<double>(repr.n);
    }
    if (!prepared.empty()) {
      predicted_task_cost += ctx.cost_model->WriteCost(
          c_dense, m, n, rho_c, predicted_intermediates);
      obs::CostAuditRecord cost;
      cost.op = ctx.op_id;
      cost.ti = ti;
      cost.tj = tj;
      cost.predicted_cost = predicted_task_cost;
      cost.measured_seconds = opt_seconds + mult_seconds;
      const obs::PerfDelta task_delta = obs::PerfDeltaSince(task_perf_begin);
      if (task_delta.valid) {
        if (task_delta.has(obs::PerfCounterId::kCycles)) {
          cost.measured_cycles = task_delta[obs::PerfCounterId::kCycles];
        }
        if (task_delta.has(obs::PerfCounterId::kTaskClockNs)) {
          cost.measured_cpu_ns = static_cast<double>(
              task_delta[obs::PerfCounterId::kTaskClockNs]);
        }
      }
      // Attribute the task to its kernel variant when all pairs agreed.
      int dominant = -1;
      bool mixed = false;
      for (int v = 0; v < kNumKernelTypes; ++v) {
        if (task_kernels[static_cast<std::size_t>(v)] > 0) {
          mixed = dominant >= 0;
          dominant = v;
        }
      }
      cost.kernel = mixed ? -1 : dominant;
      ledger.RecordCost(cost);
      if (!c_dense) {
        obs::SpaModeAuditRecord spa;
        spa.op = ctx.op_id;
        spa.ti = ti;
        spa.tj = tj;
        spa.width = n;
        spa.predicted_row_nnz =
            ctx.use_estimate ? rho_c * static_cast<double>(n) : -1.0;
        spa.actual_row_nnz =
            m > 0 ? static_cast<double>(tile_nnz) / static_cast<double>(m)
                  : 0.0;
        spa.chosen_mode = static_cast<int>(
            SparseAccumulator::ChooseMode(n, spa.predicted_row_nnz));
        ledger.RecordSpaMode(spa);
      }
    }
  }
#endif
  c_tiles[task].set_home_node(exec_node);  // first-touch placement
  pairs_done = static_cast<index_t>(prepared.size());

  for (const PreparedPair& pp : prepared) {
    (pp.a_home == exec_node ? local_read : remote_read) += pp.a_read_bytes;
    (pp.b_home == exec_node ? local_read : remote_read) += pp.b_read_bytes;
  }

  MutexLock lock(*ctx.stats_mutex);
  AtMultStats* stats = ctx.stats;
  stats->optimize_seconds += opt_seconds;
  stats->multiply_seconds += mult_seconds;
  stats->pair_multiplications += pairs_done;
  for (int v = 0; v < kNumKernelTypes; ++v) {
    stats->kernel_invocations[v] += task_kernels[static_cast<std::size_t>(v)];
  }
  stats->local_read_bytes += local_read;
  stats->remote_read_bytes += remote_read;
  stats->local_write_bytes += c_tiles[task].MemoryBytes();
  if (c_tiles[task].is_dense()) {
    stats->dense_result_tiles++;
  } else {
    stats->sparse_result_tiles++;
    if (c_dense) stats->compressed_result_tiles++;
  }
}

}  // namespace atmx::internal
