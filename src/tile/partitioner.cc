#include "tile/partitioner.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/math_util.h"
#include "common/timer.h"
#include "morton/morton.h"
#include "obs/obs.h"
#include "storage/convert.h"
#include "topology/tile_size_policy.h"

namespace atmx {

std::string PartitionStats::ToString() const {
  std::ostringstream os;
  os << "PartitionStats{sort=" << sort_seconds
     << "s, blockcnt=" << blockcount_seconds
     << "s, recursion=" << recursion_seconds
     << "s, materialize=" << materialize_seconds
     << "s, dense_tiles=" << dense_tiles << ", sparse_tiles=" << sparse_tiles
     << "}";
  return os.str();
}

namespace {

enum class NodeStatus { kOutOfBounds, kForward, kMaterialized };

struct NodeResult {
  NodeStatus status = NodeStatus::kOutOfBounds;
  index_t nnz = 0;
  bool dense_class = false;
};

struct PartitionContext {
  std::span<const CooEntry> entries;  // in atomic-block Z-order
  // Atomic block z (Z-order) holds entries [block_start[z],
  // block_start[z + 1]); the last slot is the entry count.
  std::vector<index_t> block_start;
  index_t b = 1;                                  // atomic block edge
  int log2_b = 0;
  index_t rows = 0;
  index_t cols = 0;
  double rho_read = 0.25;
  bool allow_dense = true;
  bool allow_melt = true;
  const TileSizePolicy* policy = nullptr;
  std::vector<Tile> tiles;
  bool repeats = false;  // some tile holds fewer non-zeros than entries
  AccumulatingTimer materialize_timer;
};

std::uint64_t BlockZ(const PartitionContext& ctx, const CooEntry& e) {
  ATMX_DCHECK(e.row < ctx.rows && e.col < ctx.cols);
  return MortonEncode(e.row >> ctx.log2_b, e.col >> ctx.log2_b);
}

// Geometry of the aligned block square covered by block-Z-range [z0, z1),
// clipped to the matrix bounds.
struct RegionBox {
  index_t r0, c0, rows, cols;
};

RegionBox RegionOf(const PartitionContext& ctx, std::uint64_t z0,
                   std::uint64_t z1) {
  index_t br, bc;
  ZRangeOrigin(z0, &br, &bc);
  const index_t side_blocks = ZRangeSide(z0, z1);
  RegionBox box;
  box.r0 = br * ctx.b;
  box.c0 = bc * ctx.b;
  box.rows = std::min(side_blocks * ctx.b, ctx.rows - box.r0);
  box.cols = std::min(side_blocks * ctx.b, ctx.cols - box.c0);
  return box;
}

// Materializes the region [z0, z1) as one tile of the given class from its
// contiguous slice of the block-ordered staging table.
void MaterializeRegion(PartitionContext* ctx, std::uint64_t z0,
                       std::uint64_t z1, bool dense_class) {
  ctx->materialize_timer.Resume();
  const RegionBox box = RegionOf(*ctx, z0, z1);
  const index_t first = ctx->block_start[z0];
  const index_t count = ctx->block_start[z1] - first;
  const std::span<const CooEntry> slice = ctx->entries.subspan(first, count);
  ctx->tiles.push_back(
      dense_class
          ? Tile::MakeDense(box.r0, box.c0,
                            CooWindowToDense(slice, box.r0, box.c0, box.rows,
                                             box.cols))
          : Tile::MakeSparse(box.r0, box.c0,
                             CooWindowToCsr(slice, box.r0, box.c0, box.rows,
                                            box.cols)));
  ctx->repeats |= ctx->tiles.back().nnz() < count;
  ctx->materialize_timer.Pause();
}

// Alg. 1, RecQtPart: returns what the region [z0, z1) wants its parent to
// do with it. kForward regions are not yet materialized — the parent may
// melt them with homogeneous siblings; the recursion root materializes any
// region still forwarded at the top.
NodeResult RecQtPart(PartitionContext* ctx, std::uint64_t z0,
                     std::uint64_t z1) {
  // The Z-space is square; a region wholly outside a non-square matrix is
  // padding, and so is every region below it.
  const RegionBox box = RegionOf(*ctx, z0, z1);
  if (box.rows <= 0 || box.cols <= 0) {
    return {NodeStatus::kOutOfBounds, 0, false};
  }
  if (z1 - z0 == 1) {
    const index_t count = ctx->block_start[z1] - ctx->block_start[z0];
    const double area =
        static_cast<double>(box.rows) * static_cast<double>(box.cols);
    const double rho = area > 0 ? static_cast<double>(count) / area : 0.0;
    const bool dense_class = ctx->allow_dense && rho >= ctx->rho_read;
    return {NodeStatus::kForward, count, dense_class};
  }

  ZQuad quads[4];
  ZSplit(z0, z1, quads);
  NodeResult child[4];
  for (int q = 0; q < 4; ++q) {
    child[q] = RecQtPart(ctx, quads[q].start, quads[q].end);
  }

  // Homogeneity check over the in-bounds children.
  bool any_forward = false;
  bool any_materialized = false;
  bool homogeneous = true;
  index_t total_nnz = 0;
  bool dense_class = false;
  bool first = true;
  for (int q = 0; q < 4; ++q) {
    switch (child[q].status) {
      case NodeStatus::kOutOfBounds:
        continue;
      case NodeStatus::kMaterialized:
        any_materialized = true;
        continue;
      case NodeStatus::kForward:
        total_nnz += child[q].nnz;
        if (first) {
          dense_class = child[q].dense_class;
          first = false;
        } else if (child[q].dense_class != dense_class) {
          homogeneous = false;
        }
        any_forward = true;
        continue;
    }
  }

  if (!any_forward && !any_materialized) {
    return {NodeStatus::kOutOfBounds, 0, false};
  }

  if (ctx->allow_melt && !any_materialized && homogeneous) {
    // Would the melted tile respect the maximum tile bounds (Eq. 1 & 2)?
    const index_t side = std::max(box.rows, box.cols);
    const bool fits = dense_class
                          ? ctx->policy->DenseTileFits(side)
                          : ctx->policy->SparseTileFits(side, total_nnz);
    if (fits) return {NodeStatus::kForward, total_nnz, dense_class};
  }

  // Heterogeneous (or melt-limit hit): materialize every still-forwarded
  // child as its own tile.
  for (int q = 0; q < 4; ++q) {
    if (child[q].status == NodeStatus::kForward) {
      MaterializeRegion(ctx, quads[q].start, quads[q].end,
                        child[q].dense_class);
    }
  }
  return {NodeStatus::kMaterialized, total_nnz, false};
}

DensityMap DensityMapFromBlocks(const PartitionContext& ctx) {
  DensityMap map(ctx.rows, ctx.cols, ctx.b);
  for (index_t br = 0; br < map.grid_rows(); ++br) {
    for (index_t bc = 0; bc < map.grid_cols(); ++bc) {
      const std::uint64_t z = MortonEncode(br, bc);
      const index_t count = ctx.block_start[z + 1] - ctx.block_start[z];
      const double area = static_cast<double>(map.BlockArea(br, bc));
      map.Set(br, bc, area > 0 ? static_cast<double>(count) / area : 0.0);
    }
  }
  return map;
}

void AssignHomeNodes(ATMatrix* atm, int num_nodes) {
  // Round-robin by tile-row band of the tile's first row (section III-F).
  const auto& bounds = atm->row_bounds();
  for (Tile& tile : atm->mutable_tiles()) {
    const auto band = std::lower_bound(bounds.begin(), bounds.end(),
                                       tile.row0()) -
                      bounds.begin();
    tile.set_home_node(static_cast<int>(band % num_nodes));
  }
}

}  // namespace

ATMatrix PartitionToAtm(CooMatrix coo, const AtmConfig& config,
                        PartitionStats* stats) {
  internal::ScopedCheckContext check_ctx(
      "PartitionToAtm %lldx%lld nnz=%lld", static_cast<long long>(coo.rows()),
      static_cast<long long>(coo.cols()), static_cast<long long>(coo.nnz()));
  PartitionStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = PartitionStats();
  ATMX_TRACE_SPAN_ARGS("op", "partition", {"rows", coo.rows()},
                       {"cols", coo.cols()}, {"nnz", coo.nnz()});
  ATMX_COUNTER_INC("partition.calls");

  // Explicit zeros carry no structural information and cannot be
  // represented in dense tiles, so keeping them would desync the density
  // map (which counts entries) from the tile payloads (which store
  // values). Drop them before any counting.
  {
    auto& entries = coo.entries();
    entries.erase(std::remove_if(
                      entries.begin(), entries.end(),
                      [](const CooEntry& e) { return e.value == 0.0; }),
                  entries.end());
  }

  if (coo.rows() == 0 || coo.cols() == 0) {
    return ATMatrix(coo.rows(), coo.cols(), config.AtomicBlockSize(), {},
                    DensityMap(coo.rows(), coo.cols(),
                               config.AtomicBlockSize()));
  }

  PartitionContext ctx;
  ctx.b = config.AtomicBlockSize();
  ctx.log2_b = FloorLog2(ctx.b);
  ctx.rows = coo.rows();
  ctx.cols = coo.cols();
  ctx.rho_read = config.rho_read;
  ctx.allow_dense = config.mixed_tiles;
  ctx.allow_melt = config.tiling == TilingMode::kAdaptive;
  TileSizePolicy policy(config);
  ctx.policy = &policy;

  // --- 1. ZBlockCnts: per-atomic-block counts in Z-order, then an
  // inclusive prefix sum, so block_start[z] is the end of block z. --------
  WallTimer timer;
  {
    ATMX_TRACE_SPAN("op", "partition_blockcounts");
    const index_t z_side = ZSpaceSide(ctx.rows, ctx.cols);
    const index_t grid_side = std::max<index_t>(1, z_side / ctx.b);
    ctx.block_start.assign(static_cast<std::size_t>(grid_side) * grid_side + 1,
                           0);
    for (const CooEntry& e : coo.entries()) ctx.block_start[BlockZ(ctx, e)]++;
    std::partial_sum(ctx.block_start.begin(), ctx.block_start.end(),
                     ctx.block_start.begin());
  }
  stats->blockcount_seconds = timer.ElapsedSeconds();

  // --- 2. Locality-aware reordering: a stable scatter into atomic-block
  // Z-order. Walking the entries backwards and filling each block from its
  // end keeps input order inside a block and leaves block_start[z] at the
  // block's first entry. ---------------------------------------------------
  timer.Restart();
  {
    ATMX_TRACE_SPAN("op", "partition_zsort");
    const std::vector<CooEntry>& entries = coo.entries();
    std::vector<CooEntry> ordered(entries.size());
    for (std::size_t e = entries.size(); e-- > 0;) {
      ordered[--ctx.block_start[BlockZ(ctx, entries[e])]] = entries[e];
    }
    coo.entries() = std::move(ordered);
  }
  stats->sort_seconds = timer.ElapsedSeconds();
  ctx.entries = coo.entries();

  // --- 3. Recursive partitioning + materialization (Alg. 1). kNone
  // materializes the root region, classed by the overall density. ---------
  timer.Restart();
  {
    ATMX_TRACE_SPAN("op", "partition_recurse");
    const std::uint64_t root_end = ctx.block_start.size() - 1;
    if (config.tiling == TilingMode::kNone) {
      MaterializeRegion(&ctx, 0, root_end,
                        ctx.allow_dense && coo.Density() >= ctx.rho_read);
    } else {
      const NodeResult root = RecQtPart(&ctx, 0, root_end);
      if (root.status == NodeStatus::kForward) {
        MaterializeRegion(&ctx, 0, root_end, root.dense_class);
      }
    }
  }
  stats->materialize_seconds = ctx.materialize_timer.TotalSeconds();
  stats->recursion_seconds =
      timer.ElapsedSeconds() - stats->materialize_seconds;

  // A tile holding fewer non-zeros than its slice has entries reveals a
  // repeated coordinate. Repeats sum, as in the MatrixMarket reader: the
  // result is the partitioning of the coalesced table.
  if (ctx.repeats) {
    coo.CoalesceDuplicates();
    return PartitionToAtm(std::move(coo), config, stats);
  }

  DensityMap map = DensityMapFromBlocks(ctx);
  for (const Tile& t : ctx.tiles) {
    if (t.is_dense()) {
      stats->dense_tiles++;
    } else {
      stats->sparse_tiles++;
    }
  }
  ATMX_COUNTER_ADD("partition.dense_tiles", stats->dense_tiles);
  ATMX_COUNTER_ADD("partition.sparse_tiles", stats->sparse_tiles);

  ATMatrix atm(ctx.rows, ctx.cols, ctx.b, std::move(ctx.tiles),
               std::move(map));
  AssignHomeNodes(&atm, config.num_sockets);
  return atm;
}

ATMatrix AtmFromCsr(const CsrMatrix& csr, const AtmConfig& config,
                    PartitionStats* stats) {
  return PartitionToAtm(CsrToCoo(csr), config, stats);
}

ATMatrix AtmFromDense(const DenseMatrix& dense, const AtmConfig& config,
                      PartitionStats* stats) {
  return PartitionToAtm(DenseToCoo(dense), config, stats);
}

}  // namespace atmx
