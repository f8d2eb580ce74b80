// Density map: a grid holding the population density of every logical
// atomic block (b_atomic x b_atomic) of a matrix. Density maps are the
// input and output of the result-density estimator (section III-D) and the
// data the water-level method operates on (section III-E).

#ifndef ATMX_ESTIMATE_DENSITY_MAP_H_
#define ATMX_ESTIMATE_DENSITY_MAP_H_

#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "storage/coo_matrix.h"
#include "storage/csr_matrix.h"
#include "storage/dense_matrix.h"

namespace atmx {

class DensityMap {
 public:
  DensityMap() = default;
  // Zero-density map for an m x n matrix with the given block size.
  DensityMap(index_t rows, index_t cols, index_t block);

  static DensityMap FromCoo(const CooMatrix& coo, index_t block);
  static DensityMap FromCsr(const CsrMatrix& csr, index_t block);
  static DensityMap FromDense(const DenseMatrix& dense, index_t block);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t block() const { return block_; }
  index_t grid_rows() const { return grid_rows_; }
  index_t grid_cols() const { return grid_cols_; }

  // Extent of block (bi, bj): boundary blocks are clipped to the matrix.
  index_t BlockHeight(index_t bi) const {
    return std::min(block_, rows_ - bi * block_);
  }
  index_t BlockWidth(index_t bj) const {
    return std::min(block_, cols_ - bj * block_);
  }
  index_t BlockArea(index_t bi, index_t bj) const {
    return BlockHeight(bi) * BlockWidth(bj);
  }

  double At(index_t bi, index_t bj) const {
    ATMX_DCHECK(bi >= 0 && bi < grid_rows_ && bj >= 0 && bj < grid_cols_);
    return density_[bi * grid_cols_ + bj];
  }
  void Set(index_t bi, index_t bj, double d) {
    ATMX_DCHECK(bi >= 0 && bi < grid_rows_ && bj >= 0 && bj < grid_cols_);
    density_[bi * grid_cols_ + bj] = d;
  }

  // Sets blocks [bi0, bi1) x [bj0, bj1) to count / area from per-block
  // non-zero counts laid out like values().
  void SetFromCounts(const std::vector<double>& counts, index_t bi0,
                     index_t bi1, index_t bj0, index_t bj1);

  // Mean density of the aligned block square [bi0, bi0+span) x
  // [bj0, bj0+span) weighted by clipped block areas. Used to decide the
  // representation of melted tiles.
  double RegionDensity(index_t bi0, index_t bj0, index_t span_r,
                       index_t span_c) const;

  // Expected total number of non-zeros (sum of density * block area).
  double ExpectedNnz() const;

  const std::vector<double>& values() const { return density_; }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t block_ = 1;
  index_t grid_rows_ = 0;
  index_t grid_cols_ = 0;
  std::vector<double> density_;
};

}  // namespace atmx

#endif  // ATMX_ESTIMATE_DENSITY_MAP_H_
