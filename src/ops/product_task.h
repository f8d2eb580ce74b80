// The tile-granular unit of work of every product: one task produces one C
// tile of one product A * B, running the full per-pair pipeline (window
// matching, dynamic representation decisions with JIT conversions, kernel
// dispatch, density bookkeeping). The match-and-decide half is the pair
// planner (PlanTileTask), which EXPLAIN also runs, so a plan and an
// execution make their decisions in one loop and one record type.
//
// ops/chain_exec.cc's product graph (RunProductGraph) schedules these
// tasks: a standalone ATMULT is a one-node graph, a fused chain one graph
// whose operands may be still-materializing intermediates. Every product
// executes the *same* code on the same inputs, which is what makes fused
// chain execution bitwise-identical to product-at-a-time execution (see
// docs/CHAINS.md).

#ifndef ATMX_OPS_PRODUCT_TASK_H_
#define ATMX_OPS_PRODUCT_TASK_H_

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/mutex.h"
#include "cost/cost_model.h"
#include "estimate/density_map.h"
#include "ops/atmult.h"
#include "ops/optimizer.h"
#include "tile/at_matrix.h"
#include "tile/tile.h"
#include "topology/thread_pool.h"

namespace atmx::internal {

// Band-level view of one multiplication operand. Either a finished
// ATMatrix, or a row-band x col-band grid of tiles that another product is
// still filling in (the fused-chain intermediate). Both shapes expose the
// identical iteration order (tiles within a row band ordered by col0,
// within a col band by row0): a matrix's own band lists, and for the grid
// the tj / ti order, which is what ATMatrix::BuildBands would produce for
// the same tiles.
class OperandView {
 public:
  OperandView() = default;

  // Matrix mode. With `col_band_slices` (a product graph's right leaf
  // operand) the view builds the matrix's column-band slices, unless it
  // has them already, and BandSlice serves them.
  static OperandView FromMatrix(const ATMatrix& m,
                                bool col_band_slices = false);

  // Grid mode: `tiles` has one slot per (row band, col band) pair, row
  // major — slot ti * (col_bounds->size() - 1) + tj. Slots may be filled
  // after construction; callers must not read a tile before its producer
  // completed (the chain executor's dependency edges guarantee this).
  static OperandView FromGrid(const std::vector<Tile>* tiles,
                              const std::vector<index_t>* row_bounds,
                              const std::vector<index_t>* col_bounds,
                              const DensityMap* map);

  index_t rows() const { return row_bounds_->back(); }
  index_t cols() const { return col_bounds_->back(); }
  index_t num_row_bands() const {
    return static_cast<index_t>(row_bounds_->size()) - 1;
  }
  index_t num_col_bands() const {
    return static_cast<index_t>(col_bounds_->size()) - 1;
  }
  const std::vector<index_t>& row_bounds() const { return *row_bounds_; }
  const std::vector<index_t>& col_bounds() const { return *col_bounds_; }

  std::span<const index_t> TilesInRowBand(index_t band) const {
    return matrix_ != nullptr
               ? matrix_->TilesInRowBand(band)
               : row_band_tiles_[static_cast<std::size_t>(band)];
  }
  std::span<const index_t> TilesInColBand(index_t band) const {
    return matrix_ != nullptr
               ? matrix_->TilesInColBand(band)
               : col_band_tiles_[static_cast<std::size_t>(band)];
  }
  const Tile& tile(index_t idx) const {
    return (*tiles_)[static_cast<std::size_t>(idx)];
  }
  const DensityMap& map() const { return *map_; }

  // Column-band slice of tile `idx` at column band `band`, or null when the
  // view serves no slices or the tile has none.
  const CsrMatrix* BandSlice(index_t idx, index_t band) const {
    return slices_ != nullptr ? slices_->Find(idx, band) : nullptr;
  }

 private:
  const ATMatrix* matrix_ = nullptr;  // matrix mode
  const ColBandSlices* slices_ = nullptr;
  const std::vector<Tile>* tiles_ = nullptr;
  const std::vector<index_t>* row_bounds_ = nullptr;
  const std::vector<index_t>* col_bounds_ = nullptr;
  const DensityMap* map_ = nullptr;
  // Grid mode's band lists.
  std::vector<std::vector<index_t>> row_band_tiles_;
  std::vector<std::vector<index_t>> col_band_tiles_;
};

// Everything one product's tile tasks share. The pointers stay owned by
// the caller and must outlive every RunProductTileTask call.
struct ProductContext {
  OperandView a;
  OperandView b;
  index_t block = 1;  // atomic block edge

  // Density-estimation phase output. When use_estimate is set, `estimate`
  // must cover at least the task's block region by the time the task runs
  // (the fused executor fills it region-by-region).
  bool use_estimate = false;
  const DensityMap* estimate = nullptr;
  double rho_w = 0.0;  // effective write threshold rhoD_W
  // Configured write threshold rho0_W (AtmConfig::rho_write). A
  // dense-planned tile whose realized density falls below it closes as an
  // exactly sized CSR instead (RunProductTileTask).
  double rho_write = 0.0;

  bool dynamic_conversion = true;
  const CostModel* cost_model = nullptr;

  // JIT conversion caches of the two operand matrices (the same object
  // when a chain multiplies a source matrix by itself).
  ConversionCache* a_cache = nullptr;
  ConversionCache* b_cache = nullptr;

  // Optional accumulator (MultiplyAdd's C); null for plain products.
  const ATMatrix* c_init = nullptr;

  // Output: tile slot per task (task = ti * b.num_col_bands() + tj) and
  // the per-atomic-block nnz counts of the result (grid of the result's
  // density map, row-major with `grid_cols` columns). Tasks write disjoint
  // slots / grid regions.
  std::vector<Tile>* c_tiles = nullptr;
  std::vector<double>* block_counts = nullptr;
  index_t grid_cols = 0;

  // One slot per team (WorkerTeam::team_id()) holding an all-zero dense
  // accumulator that a dense-planned tile closing as CSR left behind; the
  // team's next dense-planned tile of the same shape takes it instead of
  // allocating. Only the team's driver thread touches its slot. The
  // MemTracker counts a parked accumulator; the result budget does not.
  std::vector<DenseMatrix>* parked = nullptr;

  // Per-product stats accumulation (timings, pairs, kernel variants,
  // result-tile census, locality bytes), guarded by stats_mutex.
  AtMultStats* stats = nullptr;
  Mutex* stats_mutex = nullptr;

  // Audit-ledger recording (obs::AuditLedger): per-pair representation
  // decisions, per-task cost outcomes, SPA mode choices, grouped under
  // op_id (0 / false when the ledger is off).
  std::uint64_t op_id = 0;
  bool ledger_enabled = false;
};

// The density-estimation phase of one product (Alg. 2 l. 2-3), shared by
// the operator and EXPLAIN.
struct ProductEstimate {
  DensityMap map;        // result density estimate; empty without estimation
  double rho_w = 0.0;    // effective write threshold rhoD_W
  bool feasible = true;  // false when the memory SLA was unreachable
  double seconds = 0.0;  // estimation wall time
};

// Estimates a * b (+ c_init) and solves the water level against the memory
// SLA, unless `preset_rho_w` >= 0 (a chain-planned threshold) replaces the
// solve. Without density estimation: no map and config.rho_write.
ProductEstimate EstimateProduct(const ATMatrix& a, const ATMatrix& b,
                                const ATMatrix* c_init,
                                const AtmConfig& config,
                                double preset_rho_w = -1.0);

// Whether the other representation of tile `tile` of operand A (`a_side`)
// or B is available from earlier tasks. Execution asks the live
// ConversionCache; EXPLAIN asks the conversions it has planned so far.
using ConvertedQuery = std::function<bool(bool a_side, index_t tile)>;

// The optimizer's decisions for one tile task (Alg. 2 l. 6 and the
// per-pair choice of section III-C).
struct TaskPlan {
  double rho_c = 0.0;    // estimated target density (0 without estimate)
  bool c_dense = false;  // C tile representation
  // One decision record per contributing tile pair, in band-merge order,
  // and the (A tile, B tile) indices each record multiplies.
  std::vector<ReprAuditRecord> pairs;
  std::vector<std::pair<index_t, index_t>> tiles;
};

// The pair planner: matches the band tiles of task (ti, tj) along the
// contraction dimension (Fig. 4) and decides each pair's representations.
// A pair counts a tile's other representation as available when
// `converted` says so or an earlier pair of the same task chose it (on
// either side when the operands share one conversion cache). Reads ctx's
// operands, block, use_estimate/estimate, rho_w, dynamic_conversion,
// cost_model, op_id and whether a_cache == b_cache; no kernel runs and
// nothing converts.
TaskPlan PlanTileTask(const ProductContext& ctx, index_t ti, index_t tj,
                      const ConvertedQuery& converted);

// Runs task `task` (= ti * b.num_col_bands() + tj): produces the C tile
// for row band ti x col band tj into (*ctx.c_tiles)[task], accumulates the
// block counts and stats (including the tile's dense/sparse census).
// A dense-planned tile is re-decided at close from its realized density:
// below ctx.rho_write it is stored as CSR and its accumulator parked.
// `team` provides intra-task parallelism and the locality accounting node.
void RunProductTileTask(const ProductContext& ctx, WorkerTeam& team,
                        index_t task);

}  // namespace atmx::internal

#endif  // ATMX_OPS_PRODUCT_TASK_H_
