// Structural invariant validators (the correctness-tooling layer).
//
// Every storage representation documents invariants its consumers rely on —
// CSR column-sortedness enables the binary-search reference windows of
// section III-B, quadtree tile geometry bounds come from Eq. 1 & 2, and the
// density map must agree with the tile payloads for the result estimator to
// be exact. The ATMX_CHECK macros guard *local* programming errors; these
// validators deep-check whole structures and report violations as Status
// errors, so corrupt data (a bad file, a buggy construction path, a fuzzed
// mutation) is diagnosed instead of causing UB downstream.
//
// See docs/VALIDATION.md for the full list of invariants each validator
// enforces and how the ATMX_VALIDATE_DEBUG hooks wire them into debug
// builds.

#ifndef ATMX_VALIDATE_VALIDATE_H_
#define ATMX_VALIDATE_VALIDATE_H_

#include <span>

#include "common/config.h"
#include "common/status.h"
#include "estimate/density_map.h"
#include "storage/coo_matrix.h"
#include "storage/csr_matrix.h"
#include "storage/dense_matrix.h"
#include "tile/at_matrix.h"

namespace atmx {

// CSR invariants: row_ptr has rows+1 entries, starts at 0, is monotone and
// ends at nnz; col_idx/values are the same length; within every row the
// column ids are strictly increasing (sorted, no duplicates) and in
// [0, cols); all values are finite.
[[nodiscard]] Status ValidateCsr(const CsrMatrix& m);

// COO invariants: every entry lies inside the matrix bounds and its value
// is finite. With `allow_duplicates == false` (the default) repeated
// (row, col) coordinates are an error — staging tables that intentionally
// carry duplicates should be checked after CoalesceDuplicates().
[[nodiscard]] Status ValidateCoo(const CooMatrix& m, bool allow_duplicates = false);

// Dense invariants: non-negative shape and finite values (NaN/Inf indicate
// an uninitialized or corrupted payload).
[[nodiscard]] Status ValidateDense(const DenseMatrix& m);

// Density-map invariants: positive block size, grid dimensions matching
// ceil(rows/block) x ceil(cols/block), and every cell a finite density in
// [0, 1].
[[nodiscard]] Status ValidateDensityMap(const DensityMap& map);

// Options for ValidateAtMatrix. The default options check what every
// ATMatrix must satisfy regardless of how it was built; the opt-in flags
// add invariants that only hold for specific construction paths.
struct AtmValidateOptions {
  // O(nnz) payload checks: per-tile ValidateCsr/ValidateDense, exact nnz
  // recounts, and the density-map-vs-payload count comparison. Disable for
  // a cheap geometry-only pass on huge matrices.
  bool deep = true;

  // Partitioner-output geometry (sections II-B/II-C): every tile is the
  // boundary-clipped box of a square, power-of-two-sized region of atomic
  // blocks, aligned to its own size in the quadtree grid. Retiled and
  // ATMULT-result matrices are legitimately rectangular, so this is off by
  // default.
  bool quadtree_geometry = false;

  // When set, enforces the config-derived invariants: melted tiles respect
  // the maximum tile bounds of Eq. 1 & 2 (tiles no larger than one atomic
  // block are exempt — leaves are materialized unconditionally), and, with
  // config->mixed_tiles, the storage kind of every tile is consistent with
  // its density vs rho0_R (config->rho_read).
  const AtmConfig* config = nullptr;

  // Absolute slack when comparing density-map cell counts against the
  // recounted per-block non-zeros (densities are stored as count / area,
  // so the product is exact up to rounding).
  double density_count_tolerance = 1e-6;
};

// AT MATRIX invariants: consistent shape and power-of-two b_atomic, every
// tile in bounds with a payload matching its extent, tiles covering the
// matrix exactly once (no gap, no overlap), band bookkeeping in sync with
// the tiles, nnz accounting adding up, a density map of matching geometry
// whose cell counts equal the actual per-block non-zeros, plus the opt-in
// checks described on AtmValidateOptions.
[[nodiscard]] Status ValidateAtMatrix(const ATMatrix& m,
                        const AtmValidateOptions& options = {});

// Column slices of `whole` (ATMatrix::col_band_slices): slice s covers the
// columns [bounds[s], bounds[s+1]) - origin of `whole`, rebased to its
// first one. Every slice has whole's rows and its band's width, and for
// every row the slices' entries, with columns shifted back by their band's
// offset, join up to exactly the row of `whole`: the same columns and
// bitwise the same values, in the same order.
[[nodiscard]] Status ValidateColumnSlices(const CsrMatrix& whole,
                                          std::span<const CsrMatrix> slices,
                                          std::span<const index_t> bounds,
                                          index_t origin);

}  // namespace atmx

#endif  // ATMX_VALIDATE_VALIDATE_H_
