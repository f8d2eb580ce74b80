// Row-major dense matrix plus non-owning views with an explicit leading
// dimension (lda), mirroring the BLAS gemm convention the paper relies on
// for referenced submatrix multiplication (section III-B).

#ifndef ATMX_STORAGE_DENSE_MATRIX_H_
#define ATMX_STORAGE_DENSE_MATRIX_H_

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace atmx {

// Read-only window into a row-major array: element (i, j) of the view is
// data[i * ld + j].
struct DenseView {
  const value_t* data = nullptr;
  index_t rows = 0;
  index_t cols = 0;
  index_t ld = 0;

  value_t At(index_t i, index_t j) const {
    ATMX_DCHECK(i >= 0 && i < rows && j >= 0 && j < cols);
    return data[i * ld + j];
  }

  const value_t* RowPtr(index_t i) const { return data + i * ld; }

  // Sub-window [r0, r0+nr) x [c0, c0+nc).
  DenseView Window(index_t r0, index_t c0, index_t nr, index_t nc) const;
};

// Mutable counterpart of DenseView.
struct DenseMutView {
  value_t* data = nullptr;
  index_t rows = 0;
  index_t cols = 0;
  index_t ld = 0;

  value_t& At(index_t i, index_t j) const {
    ATMX_DCHECK(i >= 0 && i < rows && j >= 0 && j < cols);
    return data[i * ld + j];
  }

  value_t* RowPtr(index_t i) const { return data + i * ld; }

  DenseMutView Window(index_t r0, index_t c0, index_t nr, index_t nc) const;
  DenseView AsConst() const { return {data, rows, cols, ld}; }
};

namespace internal {

// std::allocator whose value-initializing construct() default-initializes
// instead, so growing a vector of doubles leaves the new elements unset and
// their pages untouched (DenseMatrix::Uninitialized). Every other
// construction (fill, copy) behaves as with std::allocator.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

}  // namespace internal

// Owning row-major dense matrix.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  // Allocates a zero-initialized rows x cols matrix.
  DenseMatrix(index_t rows, index_t cols);

  // Allocates a rows x cols matrix without initializing its elements: the
  // caller writes every element before reading any. Builds with
  // ATMX_VALIDATE_DEBUG fill it with quiet NaNs, so an element the caller
  // misses shows up as a NaN value and a wrong non-zero count.
  static DenseMatrix Uninitialized(index_t rows, index_t cols);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t ld() const { return cols_; }

  value_t At(index_t i, index_t j) const {
    ATMX_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(i) * cols_ + j];
  }
  value_t& At(index_t i, index_t j) {
    ATMX_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(i) * cols_ + j];
  }

  const value_t* data() const { return data_.data(); }
  value_t* data() { return data_.data(); }

  DenseView View() const { return {data_.data(), rows_, cols_, cols_}; }
  DenseMutView MutView() { return {data_.data(), rows_, cols_, cols_}; }

  // Number of non-zero elements (exact scan).
  index_t CountNonZeros() const;
  double Density() const;

  std::size_t MemoryBytes() const { return data_.size() * sizeof(value_t); }

  void Fill(value_t v);

  friend bool operator==(const DenseMatrix&, const DenseMatrix&) = default;

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<value_t, internal::DefaultInitAllocator<value_t>> data_;
};

// Max |a(i,j) - b(i,j)|; matrices must have identical shapes.
double MaxAbsDiff(const DenseMatrix& a, const DenseMatrix& b);

}  // namespace atmx

#endif  // ATMX_STORAGE_DENSE_MATRIX_H_
