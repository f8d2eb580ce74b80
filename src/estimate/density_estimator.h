// Result-density estimation by probability propagation over density maps
// — the "density map" estimator of the authors' SpMacho paper [9] that
// ATMULT uses before executing a multiplication (section III-D).
//
// Model: treat every element of block (I, K) of A as non-zero independently
// with probability rho_A(I,K); likewise for B. Element (i, j) of C = A*B is
// zero only if all products a_ik * b_kj vanish, so
//
//   rho_C(I,J) = 1 - prod_K (1 - rho_A(I,K) * rho_B(K,J))^{w_K}
//
// where w_K is the number of contraction columns in block column K.
// Computed in log space for numeric stability.

#ifndef ATMX_ESTIMATE_DENSITY_ESTIMATOR_H_
#define ATMX_ESTIMATE_DENSITY_ESTIMATOR_H_

#include "estimate/density_map.h"

namespace atmx {

// Estimates the density map of C = A * B. Requires a.cols() == b.rows()
// and equal block sizes. Runtime is O(grid_rows(A) * grid_cols(B) *
// grid_cols(A)) — independent of the number of non-zeros, which is why the
// estimation cost only becomes visible for hypersparse very-high-dimension
// matrices (paper, section IV-D). This is EstimateProductDensityRegion
// over the whole grid.
DensityMap EstimateProductDensity(const DensityMap& a, const DensityMap& b);

// Computes the block region [bi0, bi1) x [bj0, bj1) of the estimate,
// writing into `out` (which must have the product's shape and block size).
// The only estimator loop: every block sums the same contraction terms in
// the same ascending block-column order whatever region it is computed in,
// so a region's values are bitwise those of the whole-grid estimate. That
// is what lets the fused chain executor fill a product's estimate
// region-by-region as the producing bands complete, without changing any
// downstream decision.
void EstimateProductDensityRegion(const DensityMap& a, const DensityMap& b,
                                  index_t bi0, index_t bi1, index_t bj0,
                                  index_t bj1, DensityMap* out);

// Density map of the sum X + Y of two independent random matrices with
// the given block densities: rho = 1 - (1 - rho_x)(1 - rho_y). Used when
// ATMULT accumulates into an existing matrix (C' = C + A*B). Maps must
// share shape and block size.
DensityMap CombineAdditive(const DensityMap& x, const DensityMap& y);

// Expected memory footprint in bytes of the blocks [bi0, bi1) x [bj0, bj1)
// of a matrix with the given density map when each block is stored dense
// (8 B/element) if its density >= threshold and sparse CSR (16 B/element)
// otherwise, summed row by row.
std::size_t EstimateMemoryBytes(const DensityMap& map, double threshold,
                                index_t bi0, index_t bi1, index_t bj0,
                                index_t bj1);
// The same over the whole map.
std::size_t EstimateMemoryBytes(const DensityMap& map, double threshold);

}  // namespace atmx

#endif  // ATMX_ESTIMATE_DENSITY_ESTIMATOR_H_
