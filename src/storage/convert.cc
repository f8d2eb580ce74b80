#include "storage/convert.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "validate/debug_hooks.h"

namespace atmx {

CsrMatrix CooWindowToCsr(std::span<const CooEntry> entries, index_t row0,
                         index_t col0, index_t rows, index_t cols) {
  std::vector<index_t> row_ptr(rows + 1, 0);
  for (const CooEntry& e : entries) row_ptr[e.row - row0 + 1]++;
  for (index_t i = 0; i < rows; ++i) row_ptr[i + 1] += row_ptr[i];

  std::vector<index_t> col_idx(entries.size());
  std::vector<value_t> values(entries.size());
  std::vector<index_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (const CooEntry& e : entries) {
    const index_t p = cursor[e.row - row0]++;
    col_idx[p] = e.col - col0;
    values[p] = e.value;
  }

  // Sort the columns of out-of-order rows and sum duplicates, compacting
  // in place: row i's output starts at `out`, never past its input.
  index_t out = 0;
  std::vector<std::pair<index_t, value_t>> row_buf;
  for (index_t i = 0; i < rows; ++i) {
    const index_t begin = row_ptr[i];
    const index_t end = row_ptr[i + 1];
    row_ptr[i] = out;
    if (!std::is_sorted(col_idx.begin() + begin, col_idx.begin() + end)) {
      row_buf.clear();
      for (index_t p = begin; p < end; ++p) {
        row_buf.emplace_back(col_idx[p], values[p]);
      }
      std::stable_sort(
          row_buf.begin(), row_buf.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      for (index_t p = begin; p < end; ++p) {
        col_idx[p] = row_buf[p - begin].first;
        values[p] = row_buf[p - begin].second;
      }
    }
    for (index_t p = begin; p < end;) {
      const index_t col = col_idx[p];
      value_t sum = 0.0;
      for (; p < end && col_idx[p] == col; ++p) sum += values[p];
      col_idx[out] = col;
      values[out] = sum;
      ++out;
    }
  }
  row_ptr[rows] = out;
  col_idx.resize(out);
  values.resize(out);
  CsrMatrix csr(rows, cols, std::move(row_ptr), std::move(col_idx),
                std::move(values));
  ATMX_VALIDATE_CSR(csr, "CooWindowToCsr");
  return csr;
}

DenseMatrix CooWindowToDense(std::span<const CooEntry> entries, index_t row0,
                             index_t col0, index_t rows, index_t cols) {
  DenseMatrix dense(rows, cols);
  for (const CooEntry& e : entries) {
    dense.At(e.row - row0, e.col - col0) += e.value;
  }
  return dense;
}

CsrMatrix CooToCsr(const CooMatrix& coo) {
  return CooWindowToCsr(coo.entries(), 0, 0, coo.rows(), coo.cols());
}

DenseMatrix CooToDense(const CooMatrix& coo) {
  return CooWindowToDense(coo.entries(), 0, 0, coo.rows(), coo.cols());
}

DenseMatrix CsrToDense(const CsrMatrix& csr) {
  return CsrWindowToDense(csr, 0, csr.rows(), 0, csr.cols());
}

DenseMatrix CsrWindowToDense(const CsrMatrix& csr, index_t r0, index_t r1,
                             index_t c0, index_t c1) {
  ATMX_CHECK(r0 >= 0 && r1 <= csr.rows() && r0 <= r1);
  ATMX_CHECK(c0 >= 0 && c1 <= csr.cols() && c0 <= c1);
  DenseMatrix dense(r1 - r0, c1 - c0);
  const auto& col_idx = csr.col_idx();
  const auto& values = csr.values();
  for (index_t i = r0; i < r1; ++i) {
    index_t first, last;
    csr.RowColRange(i, c0, c1, &first, &last);
    value_t* out_row = dense.data() + (i - r0) * dense.ld();
    for (index_t p = first; p < last; ++p) {
      out_row[col_idx[p] - c0] = values[p];
    }
  }
  return dense;
}

CsrMatrix CsrColumnSlice(const CsrMatrix& csr, index_t c0, index_t c1) {
  ATMX_CHECK(c0 >= 0 && c1 <= csr.cols() && c0 <= c1);
  // Count, then copy.
  std::vector<index_t> row_ptr(static_cast<std::size_t>(csr.rows()) + 1, 0);
  std::vector<std::pair<index_t, index_t>> ranges(
      static_cast<std::size_t>(csr.rows()));
  for (index_t i = 0; i < csr.rows(); ++i) {
    csr.RowColRange(i, c0, c1, &ranges[i].first, &ranges[i].second);
    row_ptr[i + 1] = row_ptr[i] + (ranges[i].second - ranges[i].first);
  }
  std::vector<index_t> col_idx(static_cast<std::size_t>(row_ptr.back()));
  std::vector<value_t> values(static_cast<std::size_t>(row_ptr.back()));
  for (index_t i = 0; i < csr.rows(); ++i) {
    index_t out = row_ptr[i];
    for (index_t p = ranges[i].first; p < ranges[i].second; ++p) {
      col_idx[out] = csr.col_idx()[p] - c0;
      values[out] = csr.values()[p];
      ++out;
    }
  }
  return CsrMatrix(csr.rows(), c1 - c0, std::move(row_ptr),
                   std::move(col_idx), std::move(values));
}

CsrMatrix DenseToCsr(const DenseMatrix& dense) {
  return DenseWindowToCsr(dense.View());
}

CsrMatrix DenseWindowToCsr(const DenseView& view) {
  CsrBuilder builder(view.rows, view.cols);
  for (index_t i = 0; i < view.rows; ++i) {
    const value_t* row = view.RowPtr(i);
    for (index_t j = 0; j < view.cols; ++j) {
      if (row[j] != 0.0) builder.Append(j, row[j]);
    }
    builder.FinishRowsUpTo(i + 1);
  }
  CsrMatrix csr = builder.Build();
  ATMX_VALIDATE_CSR(csr, "DenseWindowToCsr");
  return csr;
}

CooMatrix CsrToCoo(const CsrMatrix& csr) {
  CooMatrix coo(csr.rows(), csr.cols());
  coo.Reserve(csr.nnz());
  for (index_t i = 0; i < csr.rows(); ++i) {
    auto cols = csr.RowCols(i);
    auto vals = csr.RowValues(i);
    for (std::size_t p = 0; p < cols.size(); ++p) {
      coo.Add(i, cols[p], vals[p]);
    }
  }
  return coo;
}

CooMatrix DenseToCoo(const DenseMatrix& dense) {
  CooMatrix coo(dense.rows(), dense.cols());
  for (index_t i = 0; i < dense.rows(); ++i) {
    for (index_t j = 0; j < dense.cols(); ++j) {
      if (dense.At(i, j) != 0.0) coo.Add(i, j, dense.At(i, j));
    }
  }
  return coo;
}

}  // namespace atmx
