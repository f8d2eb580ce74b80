#include "estimate/density_estimator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace atmx {

DensityMap EstimateProductDensity(const DensityMap& a, const DensityMap& b) {
  DensityMap c(a.rows(), b.cols(), a.block());
  EstimateProductDensityRegion(a, b, 0, c.grid_rows(), 0, c.grid_cols(), &c);
  return c;
}

void EstimateProductDensityRegion(const DensityMap& a, const DensityMap& b,
                                  index_t bi0, index_t bi1, index_t bj0,
                                  index_t bj1, DensityMap* out) {
  ATMX_CHECK_EQ(a.cols(), b.rows());
  ATMX_CHECK_EQ(a.block(), b.block());
  ATMX_CHECK_EQ(out->rows(), a.rows());
  ATMX_CHECK_EQ(out->cols(), b.cols());
  ATMX_CHECK_EQ(out->block(), a.block());
  ATMX_CHECK(bi0 >= 0 && bi1 <= out->grid_rows());
  ATMX_CHECK(bj0 >= 0 && bj1 <= out->grid_cols());

  // Accumulate log(1 - rho_C) in place, one block row at a time, in
  // ascending contraction block bk. Only non-zero blocks of A and B
  // contribute, and B is read row-wise, which keeps the estimator cheap
  // even for hypersparse high-dimension matrices (its cost is the paper's
  // concern in section IV-D).
  const index_t grid_k = a.grid_cols();
  for (index_t bi = bi0; bi < bi1; ++bi) {
    for (index_t bj = bj0; bj < bj1; ++bj) out->Set(bi, bj, 0.0);
    for (index_t bk = 0; bk < grid_k; ++bk) {
      const double rho_a = a.At(bi, bk);
      if (rho_a <= 0.0) continue;
      // w_K contraction columns in this block column, each an independent
      // chance for a non-zero product.
      const double w = static_cast<double>(a.BlockWidth(bk));
      for (index_t bj = bj0; bj < bj1; ++bj) {
        const double rho_b = b.At(bk, bj);
        if (rho_b <= 0.0) continue;
        const double p = rho_a * rho_b;
        out->Set(bi, bj,
                 out->At(bi, bj) +
                     (p >= 1.0 ? -std::numeric_limits<double>::infinity()
                               : w * std::log1p(-p)));
      }
    }
    for (index_t bj = bj0; bj < bj1; ++bj) {
      // 1 - e^{log P(zero)}.
      out->Set(bi, bj, std::clamp(-std::expm1(out->At(bi, bj)), 0.0, 1.0));
    }
  }
}

DensityMap CombineAdditive(const DensityMap& x, const DensityMap& y) {
  ATMX_CHECK_EQ(x.rows(), y.rows());
  ATMX_CHECK_EQ(x.cols(), y.cols());
  ATMX_CHECK_EQ(x.block(), y.block());
  DensityMap out(x.rows(), x.cols(), x.block());
  for (index_t bi = 0; bi < out.grid_rows(); ++bi) {
    for (index_t bj = 0; bj < out.grid_cols(); ++bj) {
      const double rx = x.At(bi, bj);
      const double ry = y.At(bi, bj);
      out.Set(bi, bj, 1.0 - (1.0 - rx) * (1.0 - ry));
    }
  }
  return out;
}

std::size_t EstimateMemoryBytes(const DensityMap& map, double threshold,
                                index_t bi0, index_t bi1, index_t bj0,
                                index_t bj1) {
  double bytes = 0.0;
  for (index_t bi = bi0; bi < bi1; ++bi) {
    for (index_t bj = bj0; bj < bj1; ++bj) {
      const double area = static_cast<double>(map.BlockArea(bi, bj));
      const double rho = map.At(bi, bj);
      if (rho >= threshold) {
        bytes += area * kDenseElemBytes;
      } else {
        bytes += rho * area * kSparseElemBytes;
      }
    }
  }
  return static_cast<std::size_t>(bytes);
}

std::size_t EstimateMemoryBytes(const DensityMap& map, double threshold) {
  return EstimateMemoryBytes(map, threshold, 0, map.grid_rows(), 0,
                             map.grid_cols());
}

}  // namespace atmx
