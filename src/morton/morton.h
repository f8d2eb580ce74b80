// Z-curve (Morton order) encoding for the locality-aware reordering of
// section II-C1. The Z-value of an atomic block is the bit-interleave of its
// (row, column) block coordinates; ordering entries by block Z-value stores
// every aligned power-of-two quadrant contiguously, which is what the
// recursive quadtree partitioner (Alg. 1) relies on.

#ifndef ATMX_MORTON_MORTON_H_
#define ATMX_MORTON_MORTON_H_

#include <cstdint>

#include "common/types.h"

namespace atmx {

// Interleaves the lower 32 bits of `row` and `col`:
// result bits ... r1 c1 r0 c0 (row occupies the higher bit of each pair, so
// Z-order enumerates row-pairs first: (0,0), (0,1), (1,0), (1,1), ... which
// matches the UL, UR, LL, LR quadrant order of Alg. 1).
std::uint64_t MortonEncode(index_t row, index_t col);

// Inverse of MortonEncode.
void MortonDecode(std::uint64_t z, index_t* row, index_t* col);

// The Z-space needed to cover an m x n matrix: both dimensions are padded
// to the common power of two p = 2^max(ceil(log2 m), ceil(log2 n)); the
// Z-space size is p * p = 4^max(...) (paper: K).
index_t ZSpaceSide(index_t rows, index_t cols);

// Quadrant arithmetic on a Z-range [z_start, z_end) covering an aligned
// square: the four children are the equal quarters of the range in order
// UL, UR, LL, LR.
struct ZQuad {
  std::uint64_t start;
  std::uint64_t end;  // exclusive
};

// Splits an aligned Z-range of size 4^h into its four child quadrants.
void ZSplit(std::uint64_t z_start, std::uint64_t z_end, ZQuad children[4]);

// Top-left corner (row, col) of the aligned square covered by a Z-range
// whose size is a power of four.
void ZRangeOrigin(std::uint64_t z_start, index_t* row, index_t* col);

// Edge length of the aligned square covered by a Z-range of size 4^h.
index_t ZRangeSide(std::uint64_t z_start, std::uint64_t z_end);

}  // namespace atmx

#endif  // ATMX_MORTON_MORTON_H_
