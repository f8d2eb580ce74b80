// Tests of the recursive quadtree partitioner (Alg. 1): structural
// validity, content preservation, density-class materialization, melting
// behaviour, tiling modes, the hypersparse single-tile property, and a
// bitwise pin of the output on the Table I workloads and on non-square
// shapes.

#include "tile/partitioner.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <utility>

#include "common/math_util.h"
#include "gen/synthetic.h"
#include "gen/workloads.h"
#include "storage/convert.h"
#include "tests/test_util.h"
#include "validate/validate.h"

namespace atmx {
namespace {

using atmx::testing::RandomCoo;

AtmConfig SmallConfig(index_t b_atomic = 16) {
  AtmConfig config;
  config.b_atomic = b_atomic;
  config.llc_bytes = 1 << 20;
  config.num_sockets = 2;
  config.cores_per_socket = 1;
  return config;
}

void ExpectContentPreserved(const CooMatrix& coo, const ATMatrix& atm) {
  DenseMatrix expected = CooToDense(coo);
  DenseMatrix actual = CsrToDense(atm.ToCsr());
  atmx::testing::ExpectDenseNear(expected, actual, 0.0);
}

TEST(PartitionerTest, PreservesContentOnRandomMatrices) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    CooMatrix coo = RandomCoo(100, 100, 800, seed);
    ATMatrix atm = PartitionToAtm(coo, SmallConfig());
    EXPECT_TRUE(atm.CheckValid());
    EXPECT_EQ(atm.nnz(), coo.nnz());
    ExpectContentPreserved(coo, atm);
  }
}

TEST(PartitionerTest, NonPowerOfTwoAndRectangularShapes) {
  for (auto [rows, cols] : std::vector<std::pair<index_t, index_t>>{
           {100, 37}, {33, 129}, {17, 17}, {1, 100}, {100, 1}}) {
    CooMatrix coo = RandomCoo(rows, cols,
                              std::min<index_t>(rows * cols / 4 + 1, 500),
                              static_cast<std::uint64_t>(rows * cols));
    ATMatrix atm = PartitionToAtm(coo, SmallConfig());
    EXPECT_TRUE(atm.CheckValid()) << rows << "x" << cols;
    ExpectContentPreserved(coo, atm);
  }
}

TEST(PartitionerTest, DenseRegionMaterializesAsDenseTile) {
  // One full 16x16 block in an otherwise sparse 64x64 matrix.
  CooMatrix coo(64, 64);
  for (index_t i = 16; i < 32; ++i) {
    for (index_t j = 32; j < 48; ++j) coo.Add(i, j, 1.0);
  }
  coo.Add(0, 0, 1.0);
  coo.Add(60, 5, 1.0);
  ATMatrix atm = PartitionToAtm(coo, SmallConfig(16));
  EXPECT_GE(atm.NumDenseTiles(), 1);
  // The dense tile must be exactly the populated block.
  bool found = false;
  for (const Tile& t : atm.tiles()) {
    if (t.is_dense()) {
      EXPECT_EQ(t.row0(), 16);
      EXPECT_EQ(t.col0(), 32);
      EXPECT_EQ(t.rows(), 16);
      EXPECT_DOUBLE_EQ(t.Density(), 1.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  ExpectContentPreserved(coo, atm);
}

TEST(PartitionerTest, UniformSparseMatrixMeltsIntoOneTile) {
  // Hypersparse uniform: everything below rho_read and within Eq. (2)
  // bounds — the whole matrix must stay one sparse tile (paper, II-B2).
  CooMatrix coo = RandomCoo(200, 200, 400, 9);
  ATMatrix atm = PartitionToAtm(coo, SmallConfig(16));
  EXPECT_EQ(atm.num_tiles(), 1);
  EXPECT_FALSE(atm.tiles()[0].is_dense());
  EXPECT_EQ(atm.tiles()[0].rows(), 200);
  ExpectContentPreserved(coo, atm);
}

TEST(PartitionerTest, SparseMemoryBoundForcesSplit) {
  AtmConfig config = SmallConfig(16);
  config.llc_bytes = 16 * 1024;  // max sparse tile bytes = 5461
  // 2000 elements * 16 B = 32 KB > 5461 B => must split.
  CooMatrix coo = RandomCoo(128, 128, 2000, 4);
  ATMatrix atm = PartitionToAtm(coo, config);
  EXPECT_GT(atm.num_tiles(), 1);
  EXPECT_TRUE(atm.CheckValid());
  ExpectContentPreserved(coo, atm);
}

TEST(PartitionerTest, FixedModeProducesAtomicGrid) {
  AtmConfig config = SmallConfig(16);
  config.tiling = TilingMode::kFixed;
  CooMatrix coo = RandomCoo(64, 64, 500, 7);
  ATMatrix atm = PartitionToAtm(coo, config);
  EXPECT_EQ(atm.num_tiles(), 16);  // 4x4 grid of 16x16 tiles
  for (const Tile& t : atm.tiles()) {
    EXPECT_EQ(t.rows(), 16);
    EXPECT_EQ(t.cols(), 16);
  }
  ExpectContentPreserved(coo, atm);
}

TEST(PartitionerTest, NoneModeKeepsSingleTile) {
  AtmConfig config = SmallConfig(16);
  config.tiling = TilingMode::kNone;
  CooMatrix coo = RandomCoo(64, 64, 3000, 8);  // 73% dense
  ATMatrix atm = PartitionToAtm(coo, config);
  EXPECT_EQ(atm.num_tiles(), 1);
  EXPECT_TRUE(atm.tiles()[0].is_dense());  // above rho_read
  ExpectContentPreserved(coo, atm);
}

TEST(PartitionerTest, MixedTilesDisabledKeepsOperandsSparse) {
  AtmConfig config = SmallConfig(16);
  config.mixed_tiles = false;
  CooMatrix coo(32, 32);
  for (index_t i = 0; i < 16; ++i) {
    for (index_t j = 0; j < 16; ++j) coo.Add(i, j, 1.0);
  }
  ATMatrix atm = PartitionToAtm(coo, config);
  EXPECT_EQ(atm.NumDenseTiles(), 0);
  ExpectContentPreserved(coo, atm);
}

TEST(PartitionerTest, StatsComponentsPopulated) {
  CooMatrix coo = RandomCoo(128, 128, 4000, 10);
  PartitionStats stats;
  ATMatrix atm = PartitionToAtm(coo, SmallConfig(16), &stats);
  EXPECT_GE(stats.sort_seconds, 0.0);
  EXPECT_GE(stats.blockcount_seconds, 0.0);
  EXPECT_GE(stats.materialize_seconds, 0.0);
  EXPECT_GT(stats.TotalSeconds(), 0.0);
  EXPECT_EQ(stats.dense_tiles + stats.sparse_tiles, atm.num_tiles());
  EXPECT_NE(stats.ToString().find("dense_tiles"), std::string::npos);
}

TEST(PartitionerTest, DensityMapMatchesContent) {
  CooMatrix coo = RandomCoo(64, 64, 600, 12);
  ATMatrix atm = PartitionToAtm(coo, SmallConfig(16));
  DensityMap expected = DensityMap::FromCoo(coo, 16);
  const DensityMap& actual = atm.density_map();
  ASSERT_EQ(actual.grid_rows(), expected.grid_rows());
  ASSERT_EQ(actual.grid_cols(), expected.grid_cols());
  for (index_t bi = 0; bi < expected.grid_rows(); ++bi) {
    for (index_t bj = 0; bj < expected.grid_cols(); ++bj) {
      EXPECT_NEAR(actual.At(bi, bj), expected.At(bi, bj), 1e-12);
    }
  }
}

TEST(PartitionerTest, HomeNodesRoundRobin) {
  AtmConfig config = SmallConfig(16);
  config.num_sockets = 2;
  config.tiling = TilingMode::kFixed;
  CooMatrix coo = RandomCoo(64, 64, 500, 13);
  ATMatrix atm = PartitionToAtm(coo, config);
  // Fixed 4x4 grid: tiles in row band 0 -> node 0, band 1 -> node 1, ...
  for (const Tile& t : atm.tiles()) {
    const index_t band = t.row0() / 16;
    EXPECT_EQ(t.home_node(), static_cast<int>(band % 2));
  }
}

TEST(PartitionerTest, EmptyMatrix) {
  CooMatrix coo(64, 64);
  ATMatrix atm = PartitionToAtm(coo, SmallConfig(16));
  EXPECT_EQ(atm.nnz(), 0);
  EXPECT_TRUE(atm.CheckValid());
  // All-empty blocks melt into a single sparse tile.
  EXPECT_EQ(atm.num_tiles(), 1);
}

TEST(PartitionerTest, MatrixSmallerThanOneBlock) {
  CooMatrix coo = RandomCoo(7, 9, 20, 14);
  ATMatrix atm = PartitionToAtm(coo, SmallConfig(16));
  EXPECT_EQ(atm.num_tiles(), 1);
  ExpectContentPreserved(coo, atm);
}

TEST(PartitionerTest, WrapperFromCsrAndDense) {
  CooMatrix coo = RandomCoo(48, 48, 300, 15);
  AtmConfig config = SmallConfig(16);
  ATMatrix from_csr = AtmFromCsr(CooToCsr(coo), config);
  ATMatrix from_dense = AtmFromDense(CooToDense(coo), config);
  EXPECT_EQ(from_csr.nnz(), coo.nnz());
  EXPECT_EQ(from_dense.nnz(), coo.nnz());
  ExpectContentPreserved(coo, from_csr);
  ExpectContentPreserved(coo, from_dense);
}

TEST(PartitionerTest, TilesAreAlignedPowerOfTwoSquares) {
  CooMatrix coo = GenerateDiagonalDenseBlocks(256, 4, 32, 0.9, 500, 21);
  ATMatrix atm = PartitionToAtm(coo, SmallConfig(16));
  for (const Tile& t : atm.tiles()) {
    // Every tile's origin is block-aligned and its extent is a
    // power-of-two multiple of the block (clipped at the matrix edge).
    EXPECT_EQ(t.row0() % 16, 0);
    EXPECT_EQ(t.col0() % 16, 0);
    if (t.row_end() != atm.rows()) {
      EXPECT_TRUE(IsPowerOfTwo(t.rows() / 16)) << t.rows();
    }
    if (t.col_end() != atm.cols()) {
      EXPECT_TRUE(IsPowerOfTwo(t.cols() / 16)) << t.cols();
    }
  }
}

// FNV-1a over everything a caller can observe of an AT MATRIX: tile
// order, geometry, kind, nnz, home node, payload bits, bands and the
// density map.
std::uint64_t HashAtm(const ATMatrix& atm) {
  atmx::testing::Fnv1a h;
  h.Add(atm.rows());
  h.Add(atm.cols());
  h.Add(atm.tiles().size());
  for (const Tile& t : atm.tiles()) {
    for (index_t field : {t.row0(), t.col0(), t.rows(), t.cols(), t.nnz()}) {
      h.Add(field);
    }
    h.Add(t.is_dense());
    h.Add(t.home_node());
    if (t.is_dense()) {
      const DenseMatrix& d = t.dense();
      for (index_t i = 0; i < d.rows(); ++i) {
        for (index_t j = 0; j < d.cols(); ++j) h.AddValue(d.At(i, j));
      }
    } else {
      h.AddAll(t.sparse().row_ptr());
      h.AddAll(t.sparse().col_idx());
      h.AddAll(t.sparse().values());
    }
  }
  h.AddAll(atm.row_bounds());
  h.AddAll(atm.col_bounds());
  const DensityMap& map = atm.density_map();
  h.Add(map.grid_rows());
  h.Add(map.grid_cols());
  h.AddAll(map.values());
  return h.hash();
}

struct PinnedOutput {
  const char* id;
  std::uint64_t adaptive, fixed, none;
};

void PrintTo(const PinnedOutput& pin, std::ostream* os) { *os << pin.id; }

class PartitionerPinTest : public ::testing::TestWithParam<PinnedOutput> {};

// Partitions `coo` in all three tiling modes under the benches' 1 MiB LLC
// on 2 sockets x 2 cores and compares each output's hash with the pin. The
// hashes pin the output bitwise: a partitioner change that moves any of
// them changes what callers observe.
void ExpectPinnedOutput(const CooMatrix& coo, const PinnedOutput& pin) {
  AtmConfig config;
  config.llc_bytes = 1 << 20;
  config.num_sockets = 2;
  config.cores_per_socket = 2;
  for (auto [mode, expected] :
       {std::pair{TilingMode::kAdaptive, pin.adaptive},
        std::pair{TilingMode::kFixed, pin.fixed},
        std::pair{TilingMode::kNone, pin.none}}) {
    config.tiling = mode;
    const std::uint64_t hash = HashAtm(PartitionToAtm(coo, config));
    EXPECT_EQ(hash, expected) << pin.id << " " << TilingModeName(mode)
                              << ": computed 0x" << std::hex << hash;
  }
}

// Table I workloads at scale 0.05 (seed 0).
TEST_P(PartitionerPinTest, TableI) {
  const PinnedOutput& pin = GetParam();
  ExpectPinnedOutput(MakeWorkloadMatrix(pin.id, 0.05, /*seed=*/0), pin);
}

constexpr PinnedOutput kPinnedTableI[] = {
    {"R1", 0xfbb2073bfd91e177ULL, 0x9aa17740de27260eULL,
     0x261debb481df2adaULL},
    {"R2", 0xe272decf72be4db8ULL, 0x4506d8f1bb88e876ULL,
     0x5608855f3ce0fe23ULL},
    {"R3", 0xeaf7e2bbf0fb69c0ULL, 0xe42cc15174f0b467ULL,
     0xc266cc8904278e99ULL},
    {"R4", 0xcfb362dc202a8ebeULL, 0x6482e3b4f421d746ULL,
     0x660c39f92c243011ULL},
    {"R5", 0xd7628d587ed21214ULL, 0x7700b22d629e7d6dULL,
     0x88fb0173d1a7e2ebULL},
    {"R6", 0xceaeb66df7964580ULL, 0x83af099e0647da04ULL,
     0x0e6ee33145d55eb8ULL},
    {"R7", 0xb2bb4ce1ac197fedULL, 0x6d4fb16c02da173fULL,
     0xb2bb4ce1ac197fedULL},
    {"R8", 0x3a37dc8d3d41b422ULL, 0xe3e7993594ca12e1ULL,
     0x79e73edc416a8529ULL},
    {"R9", 0x800cdcab33e184b5ULL, 0xa12e26de6b67cc2eULL,
     0x3b23bd80d5369679ULL},
    {"G1", 0x1956b7790bd38ce9ULL, 0x8ec49748465507d4ULL,
     0x1de519351befe3d7ULL},
    {"G2", 0x9a08e13261b25809ULL, 0x5f35b7b1ec336d51ULL,
     0x5c26e3563cc41191ULL},
    {"G3", 0x94c5b9fe7f0c94acULL, 0x00770bcd29dbe13bULL,
     0x0538b977db0c8532ULL},
    {"G4", 0x8bc955f9610abbdeULL, 0x8a0f5fa23f9bd3d2ULL,
     0x401afa4f1829ac06ULL},
    {"G5", 0x6abd419d801273dfULL, 0x9cd1b35990683858ULL,
     0x843f5033d1cbf568ULL},
    {"G6", 0x8be7a8320a3121c7ULL, 0x96c88202ca7d8829ULL,
     0xf3305ad6478f2fd5ULL},
    {"G7", 0x4be41e291a423c6aULL, 0x03375f2ae2035ea5ULL,
     0xee40e9d6504c67feULL},
    {"G8", 0x7f55849adf62bd24ULL, 0x1176fa5396d024b3ULL,
     0xcb7c10973df1e3e3ULL},
    {"G9", 0x1b74ed634ef4da8dULL, 0x8165ba305a24c588ULL,
     0x5964bb4c2d356af0ULL},
};

INSTANTIATE_TEST_SUITE_P(, PartitionerPinTest,
                         ::testing::ValuesIn(kPinnedTableI),
                         [](const auto& info) {
                           return std::string(info.param.id);
                         });

// Non-square shapes, where most of the square Z-space the recursion
// splits lies outside the matrix: BFS frontiers (one root per row, and a
// later, fuller level), a single row and the dense n x 64 panel of a
// chain's right operand.
class PartitionerPinNonSquareTest : public PartitionerPinTest {};

CooMatrix NonSquareMatrix(std::string_view id) {
  if (id == "Frontier16") {
    CooMatrix coo(16, 16384);
    for (index_t s = 0; s < 16; ++s) coo.Add(s, (s * 7919) % 16384, 1.0);
    return coo;
  }
  if (id == "Frontier2000") return RandomCoo(16, 16384, 2000, /*seed=*/7);
  if (id == "Row") return RandomCoo(1, 5000, 300, /*seed=*/8);
  return DenseToCoo(GenerateFullDense(3000, 64, /*seed=*/9));  // "Panel"
}

TEST_P(PartitionerPinNonSquareTest, AllModes) {
  const PinnedOutput& pin = GetParam();
  ExpectPinnedOutput(NonSquareMatrix(pin.id), pin);
}

constexpr PinnedOutput kPinnedNonSquare[] = {
    {"Frontier16", 0x2de58768345b5971ULL, 0x8c0ded0b61eb6f6fULL,
     0x2de58768345b5971ULL},
    {"Frontier2000", 0x36ff0a9d2cb5eaa1ULL, 0xe24347a646b21511ULL,
     0x36ff0a9d2cb5eaa1ULL},
    {"Row", 0xce67f9c3fec58d3cULL, 0x451a2d507b79d5adULL,
     0xce67f9c3fec58d3cULL},
    {"Panel", 0x6f643905efa7c083ULL, 0x6f643905efa7c083ULL,
     0x49bb3b4bb395f8f3ULL},
};

INSTANTIATE_TEST_SUITE_P(, PartitionerPinNonSquareTest,
                         ::testing::ValuesIn(kPinnedNonSquare),
                         [](const auto& info) {
                           return std::string(info.param.id);
                         });

TEST(PartitionerTest, RepeatedCoordinatesSum) {
  // (3, 15) appears twice: repeats sum, as in the MatrixMarket reader, and
  // the result is the partitioning of the coalesced table in every mode.
  // The second table holds the repeat in a full block, a dense tile.
  CooMatrix diagonal(64, 64);
  for (index_t i = 0; i < 64; ++i) diagonal.Add(i, (5 * i) % 64, 1.0);
  CooMatrix block(64, 64);
  for (index_t i = 0; i < 16; ++i) {
    for (index_t j = 0; j < 16; ++j) block.Add(i, j, 1.0);
  }
  for (CooMatrix coo : {diagonal, block}) {
    coo.Add(3, 15, 2.0);
    CooMatrix coalesced = coo;
    coalesced.CoalesceDuplicates();
    for (TilingMode mode :
         {TilingMode::kAdaptive, TilingMode::kFixed, TilingMode::kNone}) {
      AtmConfig config = SmallConfig(16);
      config.tiling = mode;
      const ATMatrix atm = PartitionToAtm(coo, config);
      const Status valid = ValidateAtMatrix(atm);
      EXPECT_TRUE(valid.ok()) << TilingModeName(mode) << ": "
                              << valid.ToString();
      EXPECT_EQ(atm.At(3, 15), 3.0) << TilingModeName(mode);
      EXPECT_EQ(HashAtm(atm), HashAtm(PartitionToAtm(coalesced, config)))
          << TilingModeName(mode);
    }
  }
}

}  // namespace
}  // namespace atmx
