// Shared kernel-level types: reference windows and operand descriptors.
//
// Referenced submatrix multiplication (section III-B): a kernel may operate
// on an arbitrary rectangular subpart of a tile, identified by the window
// [r0, r1) x [c0, c1) in tile-local coordinates. Dense operands carry the
// window implicitly via a DenseView (pointer + lda, exactly the BLAS gemm
// convention); sparse operands carry a CSR matrix plus an explicit window.
// A window spanning all of the matrix's columns reads each row from its
// row pointers; a narrower one is resolved by binary search on the row's
// sorted column ids. Products hand the kernels a right operand tile's
// column-band slice (ATMatrix::col_band_slices) with a full-width window
// where the tile has one, and the tile itself with a narrower window where
// it has none.

#ifndef ATMX_KERNELS_KERNEL_COMMON_H_
#define ATMX_KERNELS_KERNEL_COMMON_H_

#include "common/check.h"
#include "common/types.h"
#include "storage/csr_matrix.h"
#include "storage/dense_matrix.h"

namespace atmx {

// Half-open rectangular window in tile-local coordinates.
struct Window {
  index_t r0 = 0;
  index_t r1 = 0;
  index_t c0 = 0;
  index_t c1 = 0;

  index_t rows() const { return r1 - r0; }
  index_t cols() const { return c1 - c0; }

  static Window Full(index_t rows, index_t cols) {
    return {0, rows, 0, cols};
  }

  friend bool operator==(const Window&, const Window&) = default;
};

// One side of a tile multiplication: either a dense view (already windowed)
// or a CSR tile plus a reference window.
struct Operand {
  bool is_dense = false;
  DenseView dense;          // valid iff is_dense
  const CsrMatrix* csr = nullptr;  // valid iff !is_dense
  Window window;            // window into *csr; for dense mirrors the shape

  index_t rows() const { return is_dense ? dense.rows : window.rows(); }
  index_t cols() const { return is_dense ? dense.cols : window.cols(); }

  static Operand Dense(DenseView view) {
    Operand op;
    op.is_dense = true;
    op.dense = view;
    op.window = Window::Full(view.rows, view.cols);
    return op;
  }

  static Operand Sparse(const CsrMatrix* csr, Window window) {
    ATMX_DCHECK(csr != nullptr);
    ATMX_DCHECK(window.r0 >= 0 && window.r1 <= csr->rows());
    ATMX_DCHECK(window.c0 >= 0 && window.c1 <= csr->cols());
    Operand op;
    op.is_dense = false;
    op.csr = csr;
    op.window = window;
    return op;
  }
};

// The 2^3 = 8 kernel variants for {sparse, dense} A x B -> C
// (section III-A). Naming follows the paper: e.g. spspd_gemm multiplies
// sparse x sparse into a dense target.
enum class KernelType {
  kDDD,  // dense  x dense  -> dense
  kDSD,  // dense  x sparse -> dense
  kSDD,  // sparse x dense  -> dense
  kSSD,  // sparse x sparse -> dense
  kDDS,  // dense  x dense  -> sparse
  kDSS,  // dense  x sparse -> sparse
  kSDS,  // sparse x dense  -> sparse
  kSSS,  // sparse x sparse -> sparse
};

// Number of KernelType enumerators, for per-variant counter arrays.
inline constexpr int kNumKernelTypes = 8;

const char* KernelTypeName(KernelType type);

// Composes the kernel type from operand/target representations.
KernelType MakeKernelType(bool a_dense, bool b_dense, bool c_dense);

// Positions [first, last) of row `row` restricted to columns
// [c0, c1), with a fast path for unwindowed access.
inline void CsrRowRange(const CsrMatrix& m, index_t row, index_t c0,
                        index_t c1, index_t* first, index_t* last) {
  if (c0 == 0 && c1 == m.cols()) {
    *first = m.row_ptr()[row];
    *last = m.row_ptr()[row + 1];
  } else {
    m.RowColRange(row, c0, c1, first, last);
  }
}

}  // namespace atmx

#endif  // ATMX_KERNELS_KERNEL_COMMON_H_
