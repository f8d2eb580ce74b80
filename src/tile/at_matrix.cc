#include "tile/at_matrix.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "storage/convert.h"
#include "validate/debug_hooks.h"

namespace atmx {

index_t ColBandSlices::nnz() const {
  index_t total = 0;
  for (const CsrMatrix& s : slices_) total += s.nnz();
  return total;
}

ATMatrix::ATMatrix(index_t rows, index_t cols, index_t b_atomic,
                   std::vector<Tile> tiles, DensityMap density_map)
    : rows_(rows),
      cols_(cols),
      b_atomic_(b_atomic),
      tiles_(std::move(tiles)),
      density_map_(std::move(density_map)) {
  nnz_ = 0;
  for (const Tile& t : tiles_) nnz_ += t.nnz();
  BuildBands();
  // Every construction path (partitioner, Retile, AtMult, deserialize) ends
  // here, so one hook covers them all.
  ATMX_VALIDATE_ATM(*this, "ATMatrix construction");
}

double ATMatrix::Density() const {
  if (rows_ == 0 || cols_ == 0) return 0.0;
  return static_cast<double>(nnz_) /
         (static_cast<double>(rows_) * static_cast<double>(cols_));
}

std::size_t ATMatrix::MemoryBytes() const {
  std::size_t total = 0;
  for (const Tile& t : tiles_) total += t.MemoryBytes();
  return total;
}

index_t ATMatrix::NumDenseTiles() const {
  return std::count_if(tiles_.begin(), tiles_.end(),
                       [](const Tile& t) { return t.is_dense(); });
}

index_t ATMatrix::NumSparseTiles() const {
  return num_tiles() - NumDenseTiles();
}

void ATMatrix::BuildBands() {
  row_bounds_ = {0, rows_};
  col_bounds_ = {0, cols_};
  for (const Tile& t : tiles_) {
    row_bounds_.push_back(t.row0());
    row_bounds_.push_back(t.row_end());
    col_bounds_.push_back(t.col0());
    col_bounds_.push_back(t.col_end());
  }
  auto dedupe = [](std::vector<index_t>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  dedupe(row_bounds_);
  dedupe(col_bounds_);

  row_band_tiles_.assign(num_row_bands(), {});
  col_band_tiles_.assign(num_col_bands(), {});
  for (index_t ti = 0; ti < num_tiles(); ++ti) {
    const Tile& t = tiles_[ti];
    const auto rb0 = std::lower_bound(row_bounds_.begin(), row_bounds_.end(),
                                      t.row0()) -
                     row_bounds_.begin();
    const auto rb1 = std::lower_bound(row_bounds_.begin(), row_bounds_.end(),
                                      t.row_end()) -
                     row_bounds_.begin();
    for (auto b = rb0; b < rb1; ++b) row_band_tiles_[b].push_back(ti);
    const auto cb0 = std::lower_bound(col_bounds_.begin(), col_bounds_.end(),
                                      t.col0()) -
                     col_bounds_.begin();
    const auto cb1 = std::lower_bound(col_bounds_.begin(), col_bounds_.end(),
                                      t.col_end()) -
                     col_bounds_.begin();
    for (auto b = cb0; b < cb1; ++b) col_band_tiles_[b].push_back(ti);
  }
  for (auto& band : row_band_tiles_) {
    std::sort(band.begin(), band.end(), [this](index_t a, index_t b) {
      return tiles_[a].col0() < tiles_[b].col0();
    });
  }
  for (auto& band : col_band_tiles_) {
    std::sort(band.begin(), band.end(), [this](index_t a, index_t b) {
      return tiles_[a].row0() < tiles_[b].row0();
    });
  }
}

std::span<const index_t> ATMatrix::TilesInRowBand(index_t band) const {
  ATMX_DCHECK(band >= 0 && band < num_row_bands());
  return row_band_tiles_[band];
}

std::span<const index_t> ATMatrix::TilesInColBand(index_t band) const {
  ATMX_DCHECK(band >= 0 && band < num_col_bands());
  return col_band_tiles_[band];
}

const ColBandSlices& ATMatrix::col_band_slices() const {
  ATMX_CHECK(slices_ != nullptr);  // not a moved-from matrix
  SliceState& state = *slices_;
  std::call_once(state.built,
                 [&] { state.slices = BuildColBandSlices(); });
  return state.slices;
}

ColBandSlices ATMatrix::BuildColBandSlices() const {
  ColBandSlices index;
  index.tiles_.resize(tiles_.size());
  for (index_t ti = 0; ti < num_tiles(); ++ti) {
    const Tile& t = tiles_[ti];
    if (t.is_dense()) continue;
    const auto first = std::lower_bound(col_bounds_.begin(),
                                        col_bounds_.end(), t.col0());
    const auto last = std::lower_bound(first, col_bounds_.end(), t.col_end());
    const index_t bands = last - first;
    if (bands < 2 || t.nnz() < t.rows() * (bands - 1)) continue;
    index.tiles_[ti] = {first - col_bounds_.begin(),
                        static_cast<index_t>(index.slices_.size())};
    ++index.sliced_tiles_;
    for (auto b = first; b != last; ++b) {
      index.slices_.push_back(
          CsrColumnSlice(t.sparse(), *b - t.col0(), *(b + 1) - t.col0()));
      ATMX_VALIDATE_CSR(index.slices_.back(), "column-band slicing");
    }
    // The slices, shifted back by their band offsets, join up to the tile.
    ATMX_VALIDATE_COLUMN_SLICES(
        t.sparse(),
        std::span<const CsrMatrix>(index.slices_).last(
            static_cast<std::size_t>(bands)),
        std::span<const index_t>(first, last + 1), t.col0(),
        "column-band slicing");
  }
  return index;
}

value_t ATMatrix::At(index_t row, index_t col) const {
  ATMX_CHECK(row >= 0 && row < rows_ && col >= 0 && col < cols_);
  const auto band = std::upper_bound(row_bounds_.begin(), row_bounds_.end(),
                                     row) -
                    row_bounds_.begin() - 1;
  for (index_t ti : row_band_tiles_[band]) {
    const Tile& t = tiles_[ti];
    if (col >= t.col0() && col < t.col_end()) return t.At(row, col);
  }
  return 0.0;
}

CsrMatrix ATMatrix::ToCsr() const {
  return CooToCsr(ToCoo());
}

CooMatrix ATMatrix::ToCoo() const {
  CooMatrix coo(rows_, cols_);
  coo.Reserve(static_cast<std::size_t>(nnz_));
  for (const Tile& t : tiles_) {
    if (t.is_dense()) {
      const DenseMatrix& d = t.dense();
      for (index_t i = 0; i < d.rows(); ++i) {
        for (index_t j = 0; j < d.cols(); ++j) {
          if (d.At(i, j) != 0.0) {
            coo.Add(t.row0() + i, t.col0() + j, d.At(i, j));
          }
        }
      }
    } else {
      const CsrMatrix& s = t.sparse();
      for (index_t i = 0; i < s.rows(); ++i) {
        auto cols = s.RowCols(i);
        auto vals = s.RowValues(i);
        for (std::size_t p = 0; p < cols.size(); ++p) {
          coo.Add(t.row0() + i, t.col0() + cols[p], vals[p]);
        }
      }
    }
  }
  return coo;
}

bool ATMatrix::CheckValid() const {
  // Tiles must disjointly cover the full area.
  index_t covered = 0;
  for (const Tile& t : tiles_) {
    if (t.row0() < 0 || t.col0() < 0 || t.row_end() > rows_ ||
        t.col_end() > cols_) {
      return false;
    }
    if (t.rows() <= 0 || t.cols() <= 0) return false;
    covered += t.rows() * t.cols();
  }
  if (covered != rows_ * cols_) return false;
  // Pairwise disjointness via band bookkeeping: within every row band the
  // tiles must tile [0, cols) without overlap.
  for (index_t b = 0; b < num_row_bands(); ++b) {
    index_t expected_col = 0;
    for (index_t ti : row_band_tiles_[b]) {
      const Tile& t = tiles_[ti];
      if (t.col0() != expected_col) return false;
      expected_col = t.col_end();
    }
    if (expected_col != cols_) return false;
  }
  index_t total_nnz = 0;
  for (const Tile& t : tiles_) total_nnz += t.nnz();
  return total_nnz == nnz_;
}

}  // namespace atmx
