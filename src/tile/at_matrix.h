// The Adaptive Tile Matrix (AT MATRIX, section II): a heterogeneous,
// tiled representation of a large matrix, produced by the quadtree
// partitioner (partitioner.h). Tiles are square, power-of-two aligned in
// units of atomic blocks, variable in size, and individually dense or
// sparse.

#ifndef ATMX_TILE_AT_MATRIX_H_
#define ATMX_TILE_AT_MATRIX_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/types.h"
#include "estimate/density_map.h"
#include "storage/coo_matrix.h"
#include "storage/csr_matrix.h"
#include "tile/tile.h"

namespace atmx {

// Column-band slices of a matrix's wide sparse tiles. A tile has slices
// when it is stored sparse, spans more than one of the matrix's column
// bands and holds at least as many entries as the row pointers its slices
// add (nnz >= rows * (bands - 1)). Its slice at a band is an exactly sized
// CSR of the tile's rows by the band's width: the tile's entries in that
// band, in the tile's order, with column ids relative to the band. A
// product reads a right operand tile's slice where it would otherwise
// search every row of the tile for the band's column range (referenced
// submatrix multiplication, section III-B).
class ColBandSlices {
 public:
  // Slice of tile `tile` at column band `band`, a band the tile spans; null
  // when the tile has no slices.
  const CsrMatrix* Find(index_t tile, index_t band) const {
    const Entry& e = tiles_[static_cast<std::size_t>(tile)];
    return e.first < 0 ? nullptr
                       : &slices_[static_cast<std::size_t>(e.first + band -
                                                           e.band0)];
  }

  index_t sliced_tiles() const { return sliced_tiles_; }
  // Entries held by all slices (each sliced tile's nnz, once).
  index_t nnz() const;

 private:
  friend class ATMatrix;
  struct Entry {
    index_t band0 = 0;   // first column band the tile spans
    index_t first = -1;  // slices_ index of its band0 slice; -1: no slices
  };
  std::vector<Entry> tiles_;  // one per tile of the matrix
  std::vector<CsrMatrix> slices_;
  index_t sliced_tiles_ = 0;
};

class ATMatrix {
 public:
  ATMatrix() = default;
  // Assembles an AT MATRIX from materialized tiles. The tiles must
  // partition the rows x cols area (checked in debug builds via nnz
  // bookkeeping; full geometric validation is available via CheckValid).
  ATMatrix(index_t rows, index_t cols, index_t b_atomic,
           std::vector<Tile> tiles, DensityMap density_map);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t b_atomic() const { return b_atomic_; }
  index_t nnz() const { return nnz_; }
  double Density() const;
  std::size_t MemoryBytes() const;

  const std::vector<Tile>& tiles() const { return tiles_; }
  // Drops the column-band slices: the caller may edit the tiles.
  std::vector<Tile>& mutable_tiles() {
    slices_ = std::make_shared<SliceState>();
    return tiles_;
  }
  index_t num_tiles() const { return static_cast<index_t>(tiles_.size()); }
  index_t NumDenseTiles() const;
  index_t NumSparseTiles() const;

  // Per-atomic-block density grid (input to the result estimator).
  const DensityMap& density_map() const { return density_map_; }

  // Row/column band structure: the sorted union of all tile boundaries.
  // Every tile covers each band it intersects completely, which makes the
  // reference-window arithmetic of ATMULT exact.
  const std::vector<index_t>& row_bounds() const { return row_bounds_; }
  const std::vector<index_t>& col_bounds() const { return col_bounds_; }
  index_t num_row_bands() const {
    return static_cast<index_t>(row_bounds_.size()) - 1;
  }
  index_t num_col_bands() const {
    return static_cast<index_t>(col_bounds_.size()) - 1;
  }

  // Tiles intersecting row band `band`, ordered by col0 (they tile the full
  // width). Returned as indices into tiles().
  std::span<const index_t> TilesInRowBand(index_t band) const;
  // Tiles intersecting column band `band`, ordered by row0.
  std::span<const index_t> TilesInColBand(index_t band) const;

  // Column-band slices of the wide sparse tiles, built by the first call
  // (exactly once, also when several threads make it at once) and read-only
  // afterwards. Copies of the matrix share them; mutable_tiles() drops
  // them. They are freed with the matrix, and MemoryBytes() does not count
  // them.
  const ColBandSlices& col_band_slices() const;

  // Element lookup (0.0 for unstored); O(log #tiles) band search.
  value_t At(index_t row, index_t col) const;

  // Lossless exports for verification and interoperability.
  CsrMatrix ToCsr() const;
  CooMatrix ToCoo() const;

  // Structural invariants: tiles disjointly cover the matrix, bands are
  // consistent, nnz bookkeeping adds up.
  bool CheckValid() const;

 private:
  void BuildBands();
  ColBandSlices BuildColBandSlices() const;

  struct SliceState {
    std::once_flag built;
    ColBandSlices slices;
  };

  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t b_atomic_ = 1;
  index_t nnz_ = 0;
  std::vector<Tile> tiles_;
  DensityMap density_map_;

  std::vector<index_t> row_bounds_;
  std::vector<index_t> col_bounds_;
  std::vector<std::vector<index_t>> row_band_tiles_;
  std::vector<std::vector<index_t>> col_band_tiles_;
  // Describes tiles_ as they are: shared only with copies holding equal
  // tiles, and replaced whenever tiles_ may change.
  std::shared_ptr<SliceState> slices_ = std::make_shared<SliceState>();
};

}  // namespace atmx

#endif  // ATMX_TILE_AT_MATRIX_H_
