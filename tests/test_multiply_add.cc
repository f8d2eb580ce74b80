// C' = C + A*B — the accumulating form of the ATMULT operator
// (section III: "three independent operand types ... C' = C + A*B").

#include <gtest/gtest.h>

#include "gen/synthetic.h"
#include "kernels/sparse_kernels.h"
#include "ops/atmult.h"
#include "ops/reference_mult.h"
#include "storage/convert.h"
#include "tests/test_util.h"
#include "tile/partitioner.h"

namespace atmx {
namespace {

using atmx::testing::ExpectDenseNear;
using atmx::testing::RandomCoo;

AtmConfig TestConfig() {
  AtmConfig config;
  config.b_atomic = 16;
  config.llc_bytes = 1 << 20;
  config.num_sockets = 2;
  config.cores_per_socket = 2;
  return config;
}

DenseMatrix ExpectedSum(const CooMatrix& c0, const CooMatrix& a,
                        const CooMatrix& b) {
  DenseMatrix expected = ReferenceMultiply(CooToDense(a), CooToDense(b));
  DenseMatrix init = CooToDense(c0);
  for (index_t i = 0; i < expected.rows(); ++i) {
    for (index_t j = 0; j < expected.cols(); ++j) {
      expected.At(i, j) += init.At(i, j);
    }
  }
  return expected;
}

void ExpectMultiplyAddMatches(const CooMatrix& c0_coo, const CooMatrix& a_coo,
                              const CooMatrix& b_coo,
                              const AtmConfig& config) {
  ATMatrix c0 = PartitionToAtm(c0_coo, config);
  ATMatrix a = PartitionToAtm(a_coo, config);
  ATMatrix b = PartitionToAtm(b_coo, config);
  AtMult op(config);
  ATMatrix result = op.MultiplyAdd(c0, a, b);
  EXPECT_TRUE(result.CheckValid());
  ExpectDenseNear(ExpectedSum(c0_coo, a_coo, b_coo),
                  CsrToDense(result.ToCsr()), 1e-9);
}

TEST(MultiplyAddTest, SparseAccumulator) {
  CooMatrix a = RandomCoo(60, 48, 400, 1);
  CooMatrix b = RandomCoo(48, 72, 500, 2);
  CooMatrix c0 = RandomCoo(60, 72, 300, 3);
  ExpectMultiplyAddMatches(c0, a, b, TestConfig());
}

TEST(MultiplyAddTest, DenseAccumulator) {
  CooMatrix a = GenerateDiagonalDenseBlocks(64, 2, 16, 0.9, 100, 4);
  CooMatrix b = RandomCoo(64, 64, 600, 5);
  CooMatrix c0 = DenseToCoo(GenerateFullDense(64, 64, 6));
  ExpectMultiplyAddMatches(c0, a, b, TestConfig());
}

TEST(MultiplyAddTest, EmptyAccumulatorEqualsMultiply) {
  AtmConfig config = TestConfig();
  CooMatrix a_coo = RandomCoo(50, 50, 400, 7);
  ATMatrix a = PartitionToAtm(a_coo, config);
  ATMatrix zero = PartitionToAtm(CooMatrix(50, 50), config);
  AtMult op(config);
  ATMatrix via_add = op.MultiplyAdd(zero, a, a);
  ATMatrix via_mult = op.Multiply(a, a);
  ExpectDenseNear(CsrToDense(via_mult.ToCsr()), CsrToDense(via_add.ToCsr()),
                  1e-12);
}

TEST(MultiplyAddTest, EmptyProductReturnsAccumulator) {
  AtmConfig config = TestConfig();
  CooMatrix c0_coo = RandomCoo(40, 40, 200, 8);
  ATMatrix c0 = PartitionToAtm(c0_coo, config);
  ATMatrix zero = PartitionToAtm(CooMatrix(40, 40), config);
  AtMult op(config);
  ATMatrix result = op.MultiplyAdd(c0, zero, zero);
  ExpectDenseNear(CooToDense(c0_coo), CsrToDense(result.ToCsr()), 0.0);
}

TEST(MultiplyAddTest, RepeatedAccumulationChain) {
  // C_{t+1} = C_t + A*A, three times => C = 3 * (A*A).
  AtmConfig config = TestConfig();
  CooMatrix a_coo = RandomCoo(48, 48, 350, 9);
  ATMatrix a = PartitionToAtm(a_coo, config);
  AtMult op(config);
  ATMatrix c = op.Multiply(a, a);
  c = op.MultiplyAdd(c, a, a);
  c = op.MultiplyAdd(c, a, a);
  DenseMatrix once = ReferenceMultiply(CooToDense(a_coo), CooToDense(a_coo));
  DenseMatrix three(48, 48);
  for (index_t i = 0; i < 48; ++i) {
    for (index_t j = 0; j < 48; ++j) three.At(i, j) = 3.0 * once.At(i, j);
  }
  ExpectDenseNear(three, CsrToDense(c.ToCsr()), 1e-9);
}

TEST(MultiplyAddTest, AccumulatorWithDifferentTiling) {
  // The accumulator's tiling (fixed grid) differs from the result's bands.
  AtmConfig config = TestConfig();
  AtmConfig fixed = config;
  fixed.tiling = TilingMode::kFixed;
  CooMatrix a_coo = RandomCoo(64, 64, 500, 10);
  CooMatrix c0_coo = RandomCoo(64, 64, 400, 11);
  ATMatrix a = PartitionToAtm(a_coo, config);
  ATMatrix c0 = PartitionToAtm(c0_coo, fixed);
  AtMult op(config);
  ATMatrix result = op.MultiplyAdd(c0, a, a);
  ExpectDenseNear(ExpectedSum(c0_coo, a_coo, a_coo),
                  CsrToDense(result.ToCsr()), 1e-9);
}

TEST(MultiplyAddTest, ParallelTeamsAgree) {
  AtmConfig config = TestConfig();
  config.num_sockets = 3;
  config.cores_per_socket = 2;
  CooMatrix a = GenerateDiagonalDenseBlocks(96, 3, 16, 0.8, 300, 12);
  CooMatrix c0 = RandomCoo(96, 96, 500, 13);
  ExpectMultiplyAddMatches(c0, a, a, config);
}

}  // namespace
}  // namespace atmx
