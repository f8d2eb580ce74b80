// Reference computations the benchmark checks the library against. They
// are deliberately independent of the library's kernels: a plain row-wise
// Gustavson product with a dense accumulator and a queue BFS, both over a
// compact CSR that only the benchmark uses.

#ifndef ATMX_PERFBENCH_REFERENCE_H_
#define ATMX_PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "storage/coo_matrix.h"
#include "tile/at_matrix.h"

namespace perfbench {

using atmx::index_t;

// Row-major CSR with 32-bit column ids.
struct RefCsr {
  index_t rows = 0;
  index_t cols = 0;
  std::vector<std::int64_t> row_ptr;
  std::vector<std::uint32_t> col;
  std::vector<double> val;

  index_t nnz() const { return static_cast<index_t>(val.size()); }
};

// Sums duplicate coordinates.
RefCsr RefFromCoo(const atmx::CooMatrix& coo);

// C = A * B by Gustavson's algorithm, rows split over `threads` threads.
RefCsr RefMultiply(const RefCsr& a, const RefCsr& b, int threads);

// Multiply-add count of the sparse product A * B:
// sum over k of nnz(A[:, k]) * nnz(B[k, :]).
double RefFlops(const RefCsr& a, const RefCsr& b);

// Relative tolerance of a product against the reference; the two differ
// only in summation order.
inline constexpr double kRelTol = 1e-9;

struct CheckResult {
  bool ok = true;
  index_t mismatches = 0;
  double max_rel_err = 0.0;
  std::uint64_t checksum = 0;  // Checksum() of the checked matrix
};

// Checks C == A * B element-wise against Gustavson rows of the reference
// operands, computed row band by row band while checking (references of
// dense results would otherwise hold tens of millions of entries for the
// whole run and dominate peak RSS). Every element must satisfy
// |c - ref| <= kRelTol * |ref|, which also checks the non-zero pattern:
// the inputs are positive, so a reference element is zero only where no
// product contributes. Row bands are split over `threads` threads.
CheckResult CheckProduct(const atmx::ATMatrix& c, const RefCsr& a,
                         const RefCsr& b, int threads);

// Calls fn(row, col, value) for every stored element of every tile (dense
// tiles report every element, zeros included).
template <typename Fn>
void ForEachStored(const atmx::ATMatrix& m, Fn&& fn) {
  for (const atmx::Tile& t : m.tiles()) {
    if (t.is_dense()) {
      const atmx::DenseMatrix& d = t.dense();
      for (index_t i = 0; i < t.rows(); ++i) {
        const double* row = d.data() + i * d.ld();
        for (index_t j = 0; j < t.cols(); ++j) {
          fn(t.row0() + i, t.col0() + j, row[j]);
        }
      }
    } else {
      const atmx::CsrMatrix& s = t.sparse();
      for (index_t i = 0; i < t.rows(); ++i) {
        const auto cols = s.RowCols(i);
        const auto vals = s.RowValues(i);
        for (std::size_t p = 0; p < cols.size(); ++p) {
          fn(t.row0() + i, t.col0() + cols[p], vals[p]);
        }
      }
    }
  }
}

// Order- and tiling-independent checksum of the stored non-zeros: the sum
// of a hash of (row, col, value bits) over every non-zero element.
std::uint64_t Checksum(const atmx::ATMatrix& m);

// Bitwise equality of the element values (tiling may differ).
bool BitwiseEqual(const atmx::ATMatrix& a, const atmx::ATMatrix& b);

// Multi-source BFS over the out-edges of `adj`: entry l of the result is
// the number of (source, node) pairs first reached at level l + 1.
std::vector<index_t> RefBfsDiscoveries(const RefCsr& adj,
                                       const std::vector<index_t>& sources);

}  // namespace perfbench

#endif  // ATMX_PERFBENCH_REFERENCE_H_
