#include "storage/dense_matrix.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace atmx {

DenseView DenseView::Window(index_t r0, index_t c0, index_t nr,
                            index_t nc) const {
  ATMX_DCHECK(r0 >= 0 && c0 >= 0 && nr >= 0 && nc >= 0);
  ATMX_DCHECK(r0 + nr <= rows && c0 + nc <= cols);
  return {data + r0 * ld + c0, nr, nc, ld};
}

DenseMutView DenseMutView::Window(index_t r0, index_t c0, index_t nr,
                                  index_t nc) const {
  ATMX_DCHECK(r0 >= 0 && c0 >= 0 && nr >= 0 && nc >= 0);
  ATMX_DCHECK(r0 + nr <= rows && c0 + nc <= cols);
  return {data + r0 * ld + c0, nr, nc, ld};
}

DenseMatrix::DenseMatrix(index_t rows, index_t cols)
    : rows_(rows), cols_(cols) {
  ATMX_CHECK_GE(rows, 0);
  ATMX_CHECK_GE(cols, 0);
  data_.assign(static_cast<std::size_t>(rows) * cols, 0.0);
}

DenseMatrix DenseMatrix::Uninitialized(index_t rows, index_t cols) {
  ATMX_CHECK_GE(rows, 0);
  ATMX_CHECK_GE(cols, 0);
  DenseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_.resize(static_cast<std::size_t>(rows) * cols);
#if defined(ATMX_VALIDATE_DEBUG)
  m.Fill(std::numeric_limits<value_t>::quiet_NaN());
#endif
  return m;
}

index_t DenseMatrix::CountNonZeros() const {
  index_t count = 0;
  for (value_t v : data_) count += (v != 0.0);
  return count;
}

double DenseMatrix::Density() const {
  if (data_.empty()) return 0.0;
  return static_cast<double>(CountNonZeros()) /
         static_cast<double>(data_.size());
}

void DenseMatrix::Fill(value_t v) { std::fill(data_.begin(), data_.end(), v); }

double MaxAbsDiff(const DenseMatrix& a, const DenseMatrix& b) {
  ATMX_CHECK_EQ(a.rows(), b.rows());
  ATMX_CHECK_EQ(a.cols(), b.cols());
  double max_diff = 0.0;
  const value_t* pa = a.data();
  const value_t* pb = b.data();
  const std::size_t n = static_cast<std::size_t>(a.rows()) * a.cols();
  for (std::size_t i = 0; i < n; ++i) {
    max_diff = std::max(max_diff, std::fabs(pa[i] - pb[i]));
  }
  return max_diff;
}

}  // namespace atmx
