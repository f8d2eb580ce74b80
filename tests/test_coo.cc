#include "storage/coo_matrix.h"

#include <gtest/gtest.h>

namespace atmx {
namespace {

TEST(CooMatrixTest, BasicAccounting) {
  CooMatrix coo(4, 5);
  EXPECT_EQ(coo.rows(), 4);
  EXPECT_EQ(coo.cols(), 5);
  EXPECT_EQ(coo.nnz(), 0);
  coo.Add(0, 0, 1.0);
  coo.Add(3, 4, 2.0);
  EXPECT_EQ(coo.nnz(), 2);
  EXPECT_DOUBLE_EQ(coo.Density(), 2.0 / 20.0);
  EXPECT_EQ(coo.TripleBytes(), 32u);
}

TEST(CooMatrixTest, SortRowMajor) {
  CooMatrix coo(4, 4);
  coo.Add(3, 1, 1.0);
  coo.Add(0, 2, 2.0);
  coo.Add(0, 1, 3.0);
  coo.SortRowMajor();
  EXPECT_EQ(coo.entries()[0].row, 0);
  EXPECT_EQ(coo.entries()[0].col, 1);
  EXPECT_EQ(coo.entries()[1].col, 2);
  EXPECT_EQ(coo.entries()[2].row, 3);
}

TEST(CooMatrixTest, CoalesceSumsDuplicates) {
  CooMatrix coo(3, 3);
  coo.Add(1, 1, 1.0);
  coo.Add(1, 1, 2.5);
  coo.Add(0, 2, 1.0);
  coo.Add(1, 1, -0.5);
  coo.CoalesceDuplicates();
  EXPECT_EQ(coo.nnz(), 2);
  bool found = false;
  for (const CooEntry& e : coo.entries()) {
    if (e.row == 1 && e.col == 1) {
      EXPECT_DOUBLE_EQ(e.value, 3.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(CooMatrixTest, EmptyMatrixOperationsAreSafe) {
  CooMatrix coo(0, 0);
  coo.CoalesceDuplicates();
  EXPECT_EQ(coo.nnz(), 0);
  EXPECT_DOUBLE_EQ(coo.Density(), 0.0);
}

}  // namespace
}  // namespace atmx
