#include "validate/validate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "storage/convert.h"
#include "tests/test_util.h"
#include "tile/partitioner.h"
#include "validate/debug_hooks.h"

namespace atmx {
namespace {

using ::atmx::testing::RandomCoo;

CsrMatrix SmallCsr() {
  CooMatrix coo(4, 5);
  coo.Add(0, 1, 1.0);
  coo.Add(0, 3, 2.0);
  coo.Add(2, 0, 3.0);
  coo.Add(2, 4, 4.0);
  coo.Add(3, 2, 5.0);
  return CooToCsr(coo);
}

// Rebuilds a CSR from (possibly corrupted) copies of another's arrays. The
// CsrMatrix constructor only enforces array-size consistency, so structural
// corruptions pass through to the validator under test.
CsrMatrix RebuildCsr(const CsrMatrix& src, std::vector<index_t> row_ptr,
                     std::vector<index_t> col_idx,
                     std::vector<value_t> values) {
  return CsrMatrix(src.rows(), src.cols(), std::move(row_ptr),
                   std::move(col_idx), std::move(values));
}

TEST(ValidateCsrTest, AcceptsWellFormed) {
  EXPECT_TRUE(ValidateCsr(SmallCsr()).ok());
  EXPECT_TRUE(ValidateCsr(CsrMatrix(0, 0)).ok());
  EXPECT_TRUE(ValidateCsr(CsrMatrix(7, 3)).ok());
  EXPECT_TRUE(
      ValidateCsr(CooToCsr(RandomCoo(40, 60, 300, /*seed=*/1))).ok());
}

TEST(ValidateCsrTest, RejectsUnsortedColumns) {
  const CsrMatrix m = SmallCsr();
  auto col_idx = m.col_idx();
  std::swap(col_idx[0], col_idx[1]);  // row 0 becomes {3, 1}
  const Status s =
      ValidateCsr(RebuildCsr(m, m.row_ptr(), std::move(col_idx), m.values()));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

TEST(ValidateCsrTest, RejectsDuplicateColumns) {
  const CsrMatrix m = SmallCsr();
  auto col_idx = m.col_idx();
  col_idx[1] = col_idx[0];  // row 0 becomes {1, 1}
  const Status s =
      ValidateCsr(RebuildCsr(m, m.row_ptr(), std::move(col_idx), m.values()));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

TEST(ValidateCsrTest, RejectsNonMonotoneRowPtr) {
  const CsrMatrix m = SmallCsr();
  auto row_ptr = m.row_ptr();
  row_ptr[2] = row_ptr[1] + 2;
  row_ptr[3] = row_ptr[1];  // interior decrease
  const Status s =
      ValidateCsr(RebuildCsr(m, std::move(row_ptr), m.col_idx(), m.values()));
  EXPECT_FALSE(s.ok()) << s.ToString();
}

TEST(ValidateCsrTest, RejectsOutOfRangeColumn) {
  const CsrMatrix m = SmallCsr();
  auto col_idx = m.col_idx();
  col_idx.back() = m.cols();  // one past the end
  const Status s =
      ValidateCsr(RebuildCsr(m, m.row_ptr(), std::move(col_idx), m.values()));
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange) << s.ToString();
}

TEST(ValidateCsrTest, RejectsNonFiniteValue) {
  const CsrMatrix m = SmallCsr();
  auto values = m.values();
  values[2] = std::nan("");
  const Status s =
      ValidateCsr(RebuildCsr(m, m.row_ptr(), m.col_idx(), std::move(values)));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

TEST(ValidateCooTest, AcceptsWellFormed) {
  EXPECT_TRUE(ValidateCoo(RandomCoo(20, 30, 100, /*seed=*/2)).ok());
  EXPECT_TRUE(ValidateCoo(CooMatrix(0, 0)).ok());
}

TEST(ValidateCooTest, RejectsOutOfBoundsEntry) {
  CooMatrix coo(4, 4);
  coo.Add(1, 1, 1.0);
  coo.entries().push_back({4, 0, 1.0});
  EXPECT_EQ(ValidateCoo(coo).code(), StatusCode::kOutOfRange);
}

TEST(ValidateCooTest, RejectsNonFiniteValue) {
  CooMatrix coo(4, 4);
  coo.Add(1, 1, std::numeric_limits<double>::infinity());
  EXPECT_EQ(ValidateCoo(coo).code(), StatusCode::kInvalidArgument);
}

TEST(ValidateCooTest, DuplicatePolicy) {
  CooMatrix coo(4, 4);
  coo.Add(2, 3, 1.0);
  coo.Add(2, 3, 2.0);
  EXPECT_EQ(ValidateCoo(coo).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(ValidateCoo(coo, /*allow_duplicates=*/true).ok());
  coo.CoalesceDuplicates();
  EXPECT_TRUE(ValidateCoo(coo).ok());
}

TEST(ValidateDenseTest, FiniteValuesOnly) {
  DenseMatrix d(3, 3);
  d.Fill(1.0);
  EXPECT_TRUE(ValidateDense(d).ok());
  d.At(1, 2) = std::nan("");
  EXPECT_EQ(ValidateDense(d).code(), StatusCode::kInvalidArgument);
}

TEST(ValidateDensityMapTest, CellRange) {
  DensityMap map(8, 8, 4);
  map.Set(0, 0, 0.5);
  EXPECT_TRUE(ValidateDensityMap(map).ok());
  map.Set(1, 1, 1.5);
  EXPECT_EQ(ValidateDensityMap(map).code(), StatusCode::kOutOfRange);
  map.Set(1, 1, -0.1);
  EXPECT_EQ(ValidateDensityMap(map).code(), StatusCode::kOutOfRange);
}

// Hand-built 2x2 tiling of an 8x8 matrix with an exactly consistent
// density map (mirrors the fixture in test_at_matrix.cc).
ATMatrix HandTiledMatrix() {
  std::vector<Tile> tiles;
  DenseMatrix ul(4, 4);
  ul.Fill(1.0);
  tiles.push_back(Tile::MakeDense(0, 0, std::move(ul)));
  CooMatrix ur(4, 4);
  ur.Add(0, 3, 2.0);
  tiles.push_back(Tile::MakeSparse(0, 4, CooToCsr(ur)));
  tiles.push_back(Tile::MakeSparse(4, 0, CsrMatrix(4, 4)));
  CooMatrix lr(4, 4);
  for (index_t i = 0; i < 4; ++i) lr.Add(i, i, 3.0);
  tiles.push_back(Tile::MakeSparse(4, 4, CooToCsr(lr)));

  DensityMap map(8, 8, 4);
  map.Set(0, 0, 1.0);
  map.Set(0, 1, 1.0 / 16);
  map.Set(1, 1, 4.0 / 16);
  return ATMatrix(8, 8, 4, std::move(tiles), std::move(map));
}

TEST(ValidateAtMatrixTest, AcceptsHandTiled) {
  EXPECT_TRUE(ValidateAtMatrix(HandTiledMatrix()).ok());
}

TEST(ValidateAtMatrixTest, AcceptsPartitionerOutputWithStrictOptions) {
  AtmConfig config;
  config.b_atomic = 16;
  ATMatrix atm = PartitionToAtm(RandomCoo(100, 80, 900, /*seed=*/3), config);
  AtmValidateOptions options;
  options.quadtree_geometry = true;
  options.config = &config;
  const Status s = ValidateAtMatrix(atm, options);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ValidateAtMatrixTest, RejectsOverlappingTiles) {
  validate_debug::ScopedDisableValidation no_hooks;
  ATMatrix good = HandTiledMatrix();
  std::vector<Tile> tiles(good.tiles().begin(), good.tiles().end());
  tiles.push_back(tiles[3]);  // duplicate the lower-right tile
  ATMatrix bad(8, 8, 4, std::move(tiles), good.density_map());
  const Status s = ValidateAtMatrix(bad);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("overlap"), std::string::npos) << s.ToString();
}

TEST(ValidateAtMatrixTest, RejectsUncoveredArea) {
  validate_debug::ScopedDisableValidation no_hooks;
  ATMatrix good = HandTiledMatrix();
  std::vector<Tile> tiles(good.tiles().begin(), good.tiles().end());
  tiles.erase(tiles.begin() + 2);  // drop the (empty) lower-left tile
  ATMatrix bad(8, 8, 4, std::move(tiles), good.density_map());
  const Status s = ValidateAtMatrix(bad);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("uncovered"), std::string::npos)
      << s.ToString();
}

TEST(ValidateAtMatrixTest, RejectsTileOutsideMatrix) {
  validate_debug::ScopedDisableValidation no_hooks;
  ATMatrix good = HandTiledMatrix();
  std::vector<Tile> tiles(good.tiles().begin(), good.tiles().end());
  DenseMatrix shifted(4, 4);
  tiles[0] = Tile::MakeDense(6, 0, std::move(shifted));  // spills past row 8
  ATMatrix bad(8, 8, 4, std::move(tiles), good.density_map());
  EXPECT_EQ(ValidateAtMatrix(bad).code(), StatusCode::kOutOfRange);
}

TEST(ValidateAtMatrixTest, RejectsStaleDensityMap) {
  validate_debug::ScopedDisableValidation no_hooks;
  ATMatrix good = HandTiledMatrix();
  DensityMap map = good.density_map();
  map.Set(1, 0, 0.5);  // the lower-left block is actually empty
  ATMatrix bad(8, 8, 4,
               std::vector<Tile>(good.tiles().begin(), good.tiles().end()),
               std::move(map));
  const Status s = ValidateAtMatrix(bad);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("density map cell"), std::string::npos)
      << s.ToString();
}

TEST(ValidateAtMatrixTest, RejectsStaleTileNnz) {
  validate_debug::ScopedDisableValidation no_hooks;
  ATMatrix bad = HandTiledMatrix();
  // Zero a payload element behind the tile's back: tile nnz goes stale.
  bad.mutable_tiles()[0].mutable_dense().At(2, 2) = 0.0;
  const Status s = ValidateAtMatrix(bad);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("nnz"), std::string::npos) << s.ToString();
}

TEST(ValidateAtMatrixTest, RejectsPayloadShapeMismatch) {
  validate_debug::ScopedDisableValidation no_hooks;
  ATMatrix bad = HandTiledMatrix();
  // Swap in a payload of the wrong shape under the same tile extent.
  bad.mutable_tiles()[2].mutable_sparse() = CsrMatrix(2, 4);
  const Status s = ValidateAtMatrix(bad);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("payload shape"), std::string::npos)
      << s.ToString();
}

TEST(ValidateAtMatrixTest, RejectsDensityMapGeometryMismatch) {
  validate_debug::ScopedDisableValidation no_hooks;
  ATMatrix good = HandTiledMatrix();
  ATMatrix bad(8, 8, 4,
               std::vector<Tile>(good.tiles().begin(), good.tiles().end()),
               DensityMap(8, 8, 2));  // wrong block size
  EXPECT_EQ(ValidateAtMatrix(bad).code(), StatusCode::kInvalidArgument);
}

TEST(ValidateAtMatrixTest, RejectsNonPowerOfTwoBlock) {
  validate_debug::ScopedDisableValidation no_hooks;
  std::vector<Tile> tiles;
  DenseMatrix d(6, 6);
  tiles.push_back(Tile::MakeDense(0, 0, std::move(d)));
  ATMatrix bad(6, 6, 6, std::move(tiles), DensityMap(6, 6, 6));
  EXPECT_EQ(ValidateAtMatrix(bad).code(), StatusCode::kInvalidArgument);
}

TEST(ValidateAtMatrixTest, ConfigCatchesWrongStorageKindForDensity) {
  validate_debug::ScopedDisableValidation no_hooks;
  AtmConfig config;
  config.b_atomic = 4;
  // An almost-empty dense tile: legal in general, but inconsistent with
  // rho_read when the config invariants are requested.
  DenseMatrix d(4, 4);
  d.At(0, 0) = 1.0;
  std::vector<Tile> tiles;
  tiles.push_back(Tile::MakeDense(0, 0, std::move(d)));
  DensityMap map(4, 4, 4);
  map.Set(0, 0, 1.0 / 16);
  ATMatrix atm(4, 4, 4, std::move(tiles), std::move(map));
  EXPECT_TRUE(ValidateAtMatrix(atm).ok());

  AtmValidateOptions options;
  options.config = &config;
  const Status s = ValidateAtMatrix(atm, options);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("rho_read"), std::string::npos)
      << s.ToString();
}

TEST(ValidateAtMatrixTest, QuadtreeGeometryCatchesMisalignedTile) {
  validate_debug::ScopedDisableValidation no_hooks;
  // Two 4x8 rectangular slices of an 8x8 matrix: a legal AT MATRIX (this is
  // what RetileColumns can produce), but not quadtree geometry.
  std::vector<Tile> tiles;
  DenseMatrix top(4, 8), bottom(4, 8);
  top.Fill(1.0);
  bottom.Fill(1.0);
  tiles.push_back(Tile::MakeDense(0, 0, std::move(top)));
  tiles.push_back(Tile::MakeDense(4, 0, std::move(bottom)));
  DensityMap map(8, 8, 4);
  for (index_t bi = 0; bi < 2; ++bi) {
    for (index_t bj = 0; bj < 2; ++bj) map.Set(bi, bj, 1.0);
  }
  ATMatrix atm(8, 8, 4, std::move(tiles), std::move(map));
  EXPECT_TRUE(ValidateAtMatrix(atm).ok());

  AtmValidateOptions options;
  options.quadtree_geometry = true;
  EXPECT_FALSE(ValidateAtMatrix(atm, options).ok());
}

// A 4 x 10 matrix cut at columns 3 and 7 of a band grid whose first bound
// is 20 (the matrix's column 0).
TEST(ValidateColumnSlicesTest, SlicesJoinUpToTheRow) {
  const CsrMatrix whole = CooToCsr(RandomCoo(4, 10, 18, 7));
  const std::vector<index_t> bounds = {20, 23, 27, 30};
  std::vector<CsrMatrix> slices;
  for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
    slices.push_back(CsrColumnSlice(whole, bounds[s] - 20, bounds[s + 1] - 20));
  }
  EXPECT_TRUE(ValidateColumnSlices(whole, slices, bounds, 20).ok());
  // Wrong origin: the slices no longer cover the matrix's columns.
  EXPECT_FALSE(ValidateColumnSlices(whole, slices, bounds, 19).ok());

  // A slice missing its last entry is still a valid CSR, but the row it
  // came from no longer joins up.
  CsrMatrix& last = slices.back();
  ASSERT_GT(last.nnz(), 0);
  std::vector<index_t> row_ptr = last.row_ptr();
  for (index_t& p : row_ptr) p = std::min(p, last.nnz() - 1);
  std::vector<index_t> col_idx(last.col_idx().begin(),
                               last.col_idx().end() - 1);
  std::vector<value_t> values(last.values().begin(), last.values().end() - 1);
  last = CsrMatrix(last.rows(), last.cols(), std::move(row_ptr),
                   std::move(col_idx), std::move(values));
  EXPECT_TRUE(ValidateCsr(last).ok());
  EXPECT_EQ(ValidateColumnSlices(whole, slices, bounds, 20).code(),
            StatusCode::kInvalidArgument);

  // A changed value is caught as well.
  slices.back() = CsrColumnSlice(whole, 7, 10);
  ASSERT_GT(slices.front().nnz(), 0);
  slices.front().mutable_values().front() += 1.0;
  EXPECT_FALSE(ValidateColumnSlices(whole, slices, bounds, 20).ok());
}

TEST(DebugHooksTest, DisableScopeNests) {
  if (!validate_debug::CompiledIn()) {
    EXPECT_FALSE(validate_debug::Enabled());
    return;
  }
  EXPECT_TRUE(validate_debug::Enabled());
  {
    validate_debug::ScopedDisableValidation outer;
    EXPECT_FALSE(validate_debug::Enabled());
    {
      validate_debug::ScopedDisableValidation inner;
      EXPECT_FALSE(validate_debug::Enabled());
    }
    EXPECT_FALSE(validate_debug::Enabled());
  }
  EXPECT_TRUE(validate_debug::Enabled());
}

}  // namespace
}  // namespace atmx
