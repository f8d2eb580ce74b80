#include "storage/coo_matrix.h"

#include <algorithm>

#include "common/check.h"

namespace atmx {

CooMatrix::CooMatrix(index_t rows, index_t cols) : rows_(rows), cols_(cols) {
  ATMX_CHECK_GE(rows, 0);
  ATMX_CHECK_GE(cols, 0);
}

double CooMatrix::Density() const {
  if (rows_ == 0 || cols_ == 0) return 0.0;
  return static_cast<double>(nnz()) /
         (static_cast<double>(rows_) * static_cast<double>(cols_));
}

void CooMatrix::Add(index_t row, index_t col, value_t value) {
  ATMX_DCHECK(row >= 0 && row < rows_);
  ATMX_DCHECK(col >= 0 && col < cols_);
  entries_.push_back({row, col, value});
}

void CooMatrix::SortRowMajor() {
  std::sort(entries_.begin(), entries_.end(),
            [](const CooEntry& a, const CooEntry& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
}

void CooMatrix::CoalesceDuplicates() {
  SortRowMajor();
  std::size_t out = 0;
  for (std::size_t i = 0; i < entries_.size();) {
    CooEntry merged = entries_[i];
    std::size_t j = i + 1;
    while (j < entries_.size() && entries_[j].row == merged.row &&
           entries_[j].col == merged.col) {
      merged.value += entries_[j].value;
      ++j;
    }
    entries_[out++] = merged;
    i = j;
  }
  entries_.resize(out);
}

}  // namespace atmx
