// Conversions between the plain matrix representations. These are the same
// routines the ATMULT dynamic optimizer invokes for just-in-time tile
// conversions (section III-C), so they are deliberately allocation-lean.

#ifndef ATMX_STORAGE_CONVERT_H_
#define ATMX_STORAGE_CONVERT_H_

#include <span>

#include "storage/coo_matrix.h"
#include "storage/csr_matrix.h"
#include "storage/dense_matrix.h"

namespace atmx {

// COO window -> CSR of shape rows x cols: every entry lies in the window
// whose top-left element is (row0, col0), and coordinates are rebased to
// it. Entries may be in any order. A row is column-sorted only when its
// entries arrive out of order, and the sort is stable, so duplicates are
// summed in input order.
CsrMatrix CooWindowToCsr(std::span<const CooEntry> entries, index_t row0,
                         index_t col0, index_t rows, index_t cols);

// COO window -> dense array of shape rows x cols, rebased as above.
// Duplicates are summed.
DenseMatrix CooWindowToDense(std::span<const CooEntry> entries, index_t row0,
                             index_t col0, index_t rows, index_t cols);

// COO -> CSR, the full-window CooWindowToCsr.
CsrMatrix CooToCsr(const CooMatrix& coo);

// COO -> dense array, the full-window CooWindowToDense.
DenseMatrix CooToDense(const CooMatrix& coo);

// CSR -> dense array.
DenseMatrix CsrToDense(const CsrMatrix& csr);

// CSR window [r0, r1) x [c0, c1) -> dense array of shape (r1-r0) x (c1-c0).
DenseMatrix CsrWindowToDense(const CsrMatrix& csr, index_t r0, index_t r1,
                             index_t c0, index_t c1);

// CSR column slice [c0, c1) -> exactly sized CSR of shape rows x (c1-c0):
// each row's entries in those columns, in order, with column ids rebased
// to c0.
CsrMatrix CsrColumnSlice(const CsrMatrix& csr, index_t c0, index_t c1);

// Dense -> CSR keeping only non-zero elements.
CsrMatrix DenseToCsr(const DenseMatrix& dense);

// Dense window -> CSR of the window's shape.
CsrMatrix DenseWindowToCsr(const DenseView& view);

// CSR -> COO (row-major order).
CooMatrix CsrToCoo(const CsrMatrix& csr);

// Dense -> COO (row-major order of non-zeros).
CooMatrix DenseToCoo(const DenseMatrix& dense);

}  // namespace atmx

#endif  // ATMX_STORAGE_CONVERT_H_
