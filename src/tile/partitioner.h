// Recursive quadtree partitioning (section II-C, Alg. 1): converts a raw
// staging matrix (COO) into an AT MATRIX. Pipeline:
//   1. per-atomic-block non-zero counting in Z-order (ZBlockCnts), turned
//      into block offsets by a prefix sum,
//   2. locality-aware reordering: one stable scatter puts the entries in
//      atomic-block Z-order, so every aligned quadrant of blocks is one
//      contiguous slice (Z-order is needed only at block granularity),
//   3. bottom-up recursion that melts homogeneous quadrants (same density
//      class, maximum tile bounds of Eq. 1 & 2 not exceeded) and
//      materializes heterogeneous ones into dense or sparse tiles from
//      their slices; padding blocks outside the matrix are skipped.

#ifndef ATMX_TILE_PARTITIONER_H_
#define ATMX_TILE_PARTITIONER_H_

#include <string>

#include "common/config.h"
#include "storage/coo_matrix.h"
#include "tile/at_matrix.h"

namespace atmx {

// Component timings of the partitioning process (reproduces Fig. 7) plus
// tile census.
struct PartitionStats {
  double sort_seconds = 0.0;         // scatter into block Z-order
  double blockcount_seconds = 0.0;   // ZBlockCnts counting + prefix sum
  double recursion_seconds = 0.0;    // quadtree recursion (excl. below)
  double materialize_seconds = 0.0;  // tile materialization (CSR/array)
  index_t dense_tiles = 0;
  index_t sparse_tiles = 0;

  double TotalSeconds() const {
    return sort_seconds + blockcount_seconds + recursion_seconds +
           materialize_seconds;
  }
  std::string ToString() const;
};

// Builds an AT MATRIX from the staging table according to config.tiling:
//   kNone     — a single tile (plain CSR, or dense array if the whole
//               matrix exceeds rho_read and mixed tiles are enabled),
//   kFixed    — a fixed grid of atomic-block tiles (no melting),
//   kAdaptive — full quadtree melting (the AT MATRIX of the paper).
// `coo` is taken by value: partitioning reorders it. Repeated coordinates
// sum: the result is that of the coalesced table (CoalesceDuplicates).
ATMatrix PartitionToAtm(CooMatrix coo, const AtmConfig& config,
                        PartitionStats* stats = nullptr);

// Convenience wrappers for the other plain operand types the ATMULT
// operator accepts (section III: "each matrix type can be one of ... dense
// arrays or sparse CSR matrices, or a heterogeneous AT MATRIX").
ATMatrix AtmFromCsr(const CsrMatrix& csr, const AtmConfig& config,
                    PartitionStats* stats = nullptr);
ATMatrix AtmFromDense(const DenseMatrix& dense, const AtmConfig& config,
                      PartitionStats* stats = nullptr);

}  // namespace atmx

#endif  // ATMX_TILE_PARTITIONER_H_
