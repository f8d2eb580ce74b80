#include "ops/retile.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "obs/obs.h"
#include "storage/convert.h"

namespace atmx {

namespace {

DenseMatrix SliceDenseColumns(const DenseMatrix& src, index_t c0,
                              index_t c1) {
  DenseMatrix out(src.rows(), c1 - c0);
  for (index_t i = 0; i < src.rows(); ++i) {
    const value_t* from = src.data() + i * src.ld() + c0;
    value_t* to = out.data() + i * out.ld();
    std::copy(from, from + (c1 - c0), to);
  }
  return out;
}

}  // namespace

ATMatrix RetileColumns(const ATMatrix& a,
                       const std::vector<index_t>& col_bounds,
                       const AtmConfig& config) {
  internal::ScopedCheckContext check_ctx(
      "RetileColumns %lldx%lld", static_cast<long long>(a.rows()),
      static_cast<long long>(a.cols()));
  ATMX_TRACE_SPAN_ARGS("op", "retile_columns",
                       {"rows", a.rows()}, {"cols", a.cols()},
                       {"tiles_in", static_cast<index_t>(a.tiles().size())});
  ATMX_COUNTER_INC("retile.calls");
  std::vector<Tile> tiles;
  tiles.reserve(a.tiles().size());
  for (const Tile& t : a.tiles()) {
    // Cut points strictly inside this tile's column extent.
    std::vector<index_t> cuts = {t.col0()};
    for (index_t bound : col_bounds) {
      if (bound > t.col0() && bound < t.col_end()) cuts.push_back(bound);
    }
    cuts.push_back(t.col_end());
    std::sort(cuts.begin(), cuts.end());

    if (cuts.size() == 2) {
      tiles.push_back(t);  // no cut: keep as-is
      continue;
    }
    for (std::size_t s = 0; s + 1 < cuts.size(); ++s) {
      const index_t local0 = cuts[s] - t.col0();
      const index_t local1 = cuts[s + 1] - t.col0();
      if (t.is_dense()) {
        tiles.push_back(Tile::MakeDense(
            t.row0(), cuts[s],
            SliceDenseColumns(t.dense(), local0, local1)));
      } else {
        tiles.push_back(Tile::MakeSparse(
            t.row0(), cuts[s], CsrColumnSlice(t.sparse(), local0, local1)));
      }
    }
  }
  DensityMap map = a.density_map();  // topology is unchanged
  ATMatrix out(a.rows(), a.cols(), a.b_atomic(), std::move(tiles),
               std::move(map));
  // Preserve the round-robin tile-row placement.
  const auto& bounds = out.row_bounds();
  for (Tile& tile : out.mutable_tiles()) {
    const auto band = std::lower_bound(bounds.begin(), bounds.end(),
                                       tile.row0()) -
                      bounds.begin();
    tile.set_home_node(
        static_cast<int>(band % std::max(1, config.num_sockets)));
  }
  ATMX_COUNTER_ADD("retile.tiles_out", out.tiles().size());
  return out;
}

ATMatrix AlignContraction(const ATMatrix& a, const ATMatrix& b,
                          const AtmConfig& config) {
  ATMX_CHECK_EQ(a.cols(), b.rows());
  return RetileColumns(a, b.row_bounds(), config);
}

}  // namespace atmx
