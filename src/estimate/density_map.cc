#include "estimate/density_map.h"

#include <algorithm>

#include "common/math_util.h"

namespace atmx {

DensityMap::DensityMap(index_t rows, index_t cols, index_t block)
    : rows_(rows), cols_(cols), block_(block) {
  ATMX_CHECK_GE(rows, 0);
  ATMX_CHECK_GE(cols, 0);
  ATMX_CHECK_GT(block, 0);
  grid_rows_ = rows == 0 ? 0 : CeilDiv(rows, block);
  grid_cols_ = cols == 0 ? 0 : CeilDiv(cols, block);
  density_.assign(static_cast<std::size_t>(grid_rows_) * grid_cols_, 0.0);
}

void DensityMap::SetFromCounts(const std::vector<double>& counts,
                               index_t bi0, index_t bi1, index_t bj0,
                               index_t bj1) {
  for (index_t bi = bi0; bi < bi1; ++bi) {
    for (index_t bj = bj0; bj < bj1; ++bj) {
      const double area = static_cast<double>(BlockArea(bi, bj));
      const double count = counts[bi * grid_cols_ + bj];
      Set(bi, bj, area > 0 ? count / area : 0.0);
    }
  }
}

DensityMap DensityMap::FromCoo(const CooMatrix& coo, index_t block) {
  DensityMap map(coo.rows(), coo.cols(), block);
  std::vector<double> counts(map.density_.size(), 0.0);
  for (const CooEntry& e : coo.entries()) {
    counts[(e.row / block) * map.grid_cols_ + (e.col / block)] += 1.0;
  }
  map.SetFromCounts(counts, 0, map.grid_rows_, 0, map.grid_cols_);
  return map;
}

DensityMap DensityMap::FromCsr(const CsrMatrix& csr, index_t block) {
  DensityMap map(csr.rows(), csr.cols(), block);
  std::vector<double> counts(map.density_.size(), 0.0);
  for (index_t i = 0; i < csr.rows(); ++i) {
    const index_t bi = i / block;
    for (index_t c : csr.RowCols(i)) {
      counts[bi * map.grid_cols_ + (c / block)] += 1.0;
    }
  }
  map.SetFromCounts(counts, 0, map.grid_rows_, 0, map.grid_cols_);
  return map;
}

DensityMap DensityMap::FromDense(const DenseMatrix& dense, index_t block) {
  DensityMap map(dense.rows(), dense.cols(), block);
  std::vector<double> counts(map.density_.size(), 0.0);
  for (index_t i = 0; i < dense.rows(); ++i) {
    const index_t bi = i / block;
    for (index_t j = 0; j < dense.cols(); ++j) {
      if (dense.At(i, j) != 0.0) {
        counts[bi * map.grid_cols_ + (j / block)] += 1.0;
      }
    }
  }
  map.SetFromCounts(counts, 0, map.grid_rows_, 0, map.grid_cols_);
  return map;
}

double DensityMap::RegionDensity(index_t bi0, index_t bj0, index_t span_r,
                                 index_t span_c) const {
  double count = 0.0;
  double area = 0.0;
  const index_t bi1 = std::min(bi0 + span_r, grid_rows_);
  const index_t bj1 = std::min(bj0 + span_c, grid_cols_);
  for (index_t bi = bi0; bi < bi1; ++bi) {
    for (index_t bj = bj0; bj < bj1; ++bj) {
      const double a = static_cast<double>(BlockArea(bi, bj));
      count += At(bi, bj) * a;
      area += a;
    }
  }
  return area > 0 ? count / area : 0.0;
}

double DensityMap::ExpectedNnz() const {
  double total = 0.0;
  for (index_t bi = 0; bi < grid_rows_; ++bi) {
    for (index_t bj = 0; bj < grid_cols_; ++bj) {
      total += At(bi, bj) * static_cast<double>(BlockArea(bi, bj));
    }
  }
  return total;
}

}  // namespace atmx
