#include "storage/convert.h"

#include <gtest/gtest.h>

#include <vector>

#include "tests/test_util.h"

namespace atmx {
namespace {

using atmx::testing::ExpectDenseNear;
using atmx::testing::RandomCoo;

// A 3 x 8 window at (kRow0, kCol0) of a larger table: its row 1 arrives
// out of column order and repeats column 4.
constexpr index_t kRow0 = 10;
constexpr index_t kCol0 = 20;
const std::vector<CooEntry> kWindow = {{11, 27, 1.0}, {11, 24, 2.0},
                                       {10, 21, 3.0}, {11, 24, 4.0},
                                       {12, 20, 5.0}, {11, 22, 6.0}};

CooMatrix RebasedWindow() {
  CooMatrix rebased(3, 8);
  for (const CooEntry& e : kWindow) {
    rebased.Add(e.row - kRow0, e.col - kCol0, e.value);
  }
  return rebased;
}

TEST(ConvertTest, CooToCsrSumsDuplicates) {
  CooMatrix coo(2, 2);
  coo.Add(0, 1, 1.0);
  coo.Add(0, 1, 2.0);
  CsrMatrix csr = CooToCsr(coo);
  EXPECT_EQ(csr.nnz(), 1);
  EXPECT_DOUBLE_EQ(csr.At(0, 1), 3.0);

  const CsrMatrix window = CooWindowToCsr(kWindow, kRow0, kCol0, 3, 8);
  const CsrMatrix rebased = CooToCsr(RebasedWindow());
  EXPECT_TRUE(window.CheckValid());
  EXPECT_EQ(window.nnz(), 5);
  EXPECT_DOUBLE_EQ(window.At(1, 4), 6.0);
  EXPECT_EQ(window.rows(), rebased.rows());
  EXPECT_EQ(window.cols(), rebased.cols());
  EXPECT_EQ(window.row_ptr(), rebased.row_ptr());
  EXPECT_EQ(window.col_idx(), rebased.col_idx());
  EXPECT_EQ(window.values(), rebased.values());
}

TEST(ConvertTest, RoundTripCooCsrDense) {
  CooMatrix coo = RandomCoo(37, 53, 300, 77);
  CsrMatrix csr = CooToCsr(coo);
  DenseMatrix dense_direct = CooToDense(coo);
  DenseMatrix dense_via_csr = CsrToDense(csr);
  ExpectDenseNear(dense_direct, dense_via_csr);

  CsrMatrix back = DenseToCsr(dense_direct);
  EXPECT_EQ(back.nnz(), csr.nnz());
  ExpectDenseNear(dense_direct, CsrToDense(back));

  const DenseMatrix window = CooWindowToDense(kWindow, kRow0, kCol0, 3, 8);
  ExpectDenseNear(CooToDense(RebasedWindow()), window, 0.0);
  ExpectDenseNear(window,
                  CsrToDense(CooWindowToCsr(kWindow, kRow0, kCol0, 3, 8)),
                  0.0);
}

TEST(ConvertTest, CsrWindowToDense) {
  CooMatrix coo = RandomCoo(20, 20, 120, 3);
  CsrMatrix csr = CooToCsr(coo);
  DenseMatrix full = CsrToDense(csr);
  DenseMatrix window = CsrWindowToDense(csr, 5, 15, 3, 18);
  for (index_t i = 0; i < 10; ++i) {
    for (index_t j = 0; j < 15; ++j) {
      EXPECT_DOUBLE_EQ(window.At(i, j), full.At(i + 5, j + 3));
    }
  }
}

TEST(ConvertTest, DenseWindowToCsr) {
  DenseMatrix m(6, 6);
  m.At(2, 2) = 1.0;
  m.At(3, 4) = 2.0;
  m.At(0, 0) = 9.0;  // outside the window
  CsrMatrix w = DenseWindowToCsr(m.View().Window(2, 2, 3, 3));
  EXPECT_EQ(w.nnz(), 2);
  EXPECT_DOUBLE_EQ(w.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(w.At(1, 2), 2.0);
}

TEST(ConvertTest, CsrToCooRoundTrip) {
  CooMatrix coo = RandomCoo(31, 17, 97, 9);
  CsrMatrix csr = CooToCsr(coo);
  CooMatrix back = CsrToCoo(csr);
  EXPECT_EQ(back.nnz(), csr.nnz());
  ExpectDenseNear(CooToDense(coo), CooToDense(back));
}

TEST(ConvertTest, DenseToCooSkipsZeros) {
  DenseMatrix m(3, 3);
  m.At(1, 1) = 4.0;
  CooMatrix coo = DenseToCoo(m);
  EXPECT_EQ(coo.nnz(), 1);
  EXPECT_EQ(coo.entries()[0].row, 1);
}

TEST(ConvertTest, EmptyMatrices) {
  CooMatrix coo(5, 5);
  CsrMatrix csr = CooToCsr(coo);
  EXPECT_EQ(csr.nnz(), 0);
  EXPECT_TRUE(csr.CheckValid());
  DenseMatrix dense = CsrToDense(csr);
  EXPECT_EQ(dense.CountNonZeros(), 0);
}

}  // namespace
}  // namespace atmx
