// Coordinate (triple) matrix format. Used as the unordered staging
// representation the partitioner loads raw matrices into (section II-C1),
// and as the interchange format of the generators and MatrixMarket I/O.

#ifndef ATMX_STORAGE_COO_MATRIX_H_
#define ATMX_STORAGE_COO_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/types.h"

namespace atmx {

struct CooEntry {
  index_t row;
  index_t col;
  value_t value;

  friend bool operator==(const CooEntry&, const CooEntry&) = default;
};

class CooMatrix {
 public:
  CooMatrix() = default;
  CooMatrix(index_t rows, index_t cols);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t nnz() const { return static_cast<index_t>(entries_.size()); }
  double Density() const;

  // Binary size of the <int,int,double> triple layout reported in Table I.
  std::size_t TripleBytes() const { return entries_.size() * 16; }

  const std::vector<CooEntry>& entries() const { return entries_; }
  std::vector<CooEntry>& entries() { return entries_; }

  // Appends an entry; coordinates must lie inside the matrix bounds.
  void Add(index_t row, index_t col, value_t value);

  void Reserve(std::size_t n) { entries_.reserve(n); }

  // Sorts entries row-major (row, then column).
  void SortRowMajor();

  // Sums duplicate coordinates into a single entry (requires no particular
  // input order; output is row-major sorted).
  void CoalesceDuplicates();

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<CooEntry> entries_;
};

}  // namespace atmx

#endif  // ATMX_STORAGE_COO_MATRIX_H_
