// Shared helpers for the test suite: random matrix construction and
// structural/numeric comparison of the different representations.

#ifndef ATMX_TESTS_TEST_UTIL_H_
#define ATMX_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "storage/convert.h"
#include "storage/coo_matrix.h"
#include "storage/csr_matrix.h"
#include "storage/dense_matrix.h"
#include "tile/at_matrix.h"

namespace atmx::testing {

// Uniform random COO with `nnz` distinct entries (nnz must be well below
// rows * cols).
inline CooMatrix RandomCoo(index_t rows, index_t cols, index_t nnz,
                           std::uint64_t seed) {
  Rng rng(seed);
  CooMatrix coo(rows, cols);
  coo.Reserve(nnz);
  index_t added = 0;
  // Dedupe via coalescing afterwards would change nnz; use rejection on a
  // generous draw budget instead.
  std::vector<bool> used;
  const bool small = rows * cols <= (1 << 22);
  if (small) used.assign(static_cast<std::size_t>(rows * cols), false);
  while (added < nnz) {
    const index_t r = static_cast<index_t>(rng.NextBounded(rows));
    const index_t c = static_cast<index_t>(rng.NextBounded(cols));
    if (small) {
      const std::size_t key = static_cast<std::size_t>(r * cols + c);
      if (used[key]) continue;
      used[key] = true;
    }
    coo.Add(r, c, rng.NextDouble() * 2.0 - 1.0);
    ++added;
  }
  if (!small) coo.CoalesceDuplicates();
  return coo;
}

inline void ExpectDenseNear(const DenseMatrix& expected,
                            const DenseMatrix& actual, double tol = 1e-9) {
  ASSERT_EQ(expected.rows(), actual.rows());
  ASSERT_EQ(expected.cols(), actual.cols());
  EXPECT_LE(MaxAbsDiff(expected, actual), tol)
      << "dense matrices differ beyond tolerance";
}

inline void ExpectCsrNearDense(const DenseMatrix& expected,
                               const CsrMatrix& actual, double tol = 1e-9) {
  ExpectDenseNear(expected, CsrToDense(actual), tol);
}

inline void ExpectAtmNearDense(const DenseMatrix& expected,
                               const ATMatrix& actual, double tol = 1e-9) {
  ExpectDenseNear(expected, CsrToDense(actual.ToCsr()), tol);
}

// Block-diagonal diag(x, y).
inline CooMatrix BlockDiagonal(const CooMatrix& x, const CooMatrix& y) {
  CooMatrix out(x.rows() + y.rows(), x.cols() + y.cols());
  out.Reserve(static_cast<std::size_t>(x.nnz() + y.nnz()));
  for (const CooEntry& e : x.entries()) out.Add(e.row, e.col, e.value);
  for (const CooEntry& e : y.entries()) {
    out.Add(x.rows() + e.row, x.cols() + e.col, e.value);
  }
  return out;
}

// 64-bit FNV-1a over integers and the bits of doubles, for tests that pin
// an output bitwise as one hash.
class Fnv1a {
 public:
  void Add(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ ((v >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void AddValue(value_t v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  template <typename T>
  void AddAll(const std::vector<T>& xs) {
    Add(xs.size());
    for (const T& x : xs) {
      if constexpr (std::is_same_v<T, value_t>) {
        AddValue(x);
      } else {
        Add(static_cast<std::uint64_t>(x));
      }
    }
  }
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace atmx::testing

#endif  // ATMX_TESTS_TEST_UTIL_H_
