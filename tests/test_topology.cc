#include <gtest/gtest.h>

#include "topology/system_topology.h"
#include "topology/tile_size_policy.h"

namespace atmx {
namespace {

TEST(SystemTopologyTest, DetectReturnsSaneValues) {
  SystemTopology topo = SystemTopology::Detect();
  EXPECT_GE(topo.num_sockets, 1);
  EXPECT_GE(topo.cores_per_socket, 1);
  EXPECT_GT(topo.llc_bytes, 0);
}

TEST(SystemTopologyTest, PaperMachine) {
  SystemTopology topo = SystemTopology::PaperMachine();
  EXPECT_EQ(topo.num_sockets, 4);
  EXPECT_EQ(topo.cores_per_socket, 10);
  EXPECT_EQ(topo.llc_bytes, 24LL * 1024 * 1024);
  EXPECT_EQ(topo.TotalCores(), 40);
}

TEST(SystemTopologyTest, ApplyToConfig) {
  AtmConfig config;
  SystemTopology::PaperMachine().ApplyTo(&config);
  EXPECT_EQ(config.num_sockets, 4);
  EXPECT_EQ(config.llc_bytes, 24LL * 1024 * 1024);
  // With the paper topology applied, the derived b_atomic is 1024 (k=10).
  EXPECT_EQ(config.AtomicBlockSize(), 1024);
}

TEST(TileSizePolicyTest, PaperValues) {
  AtmConfig config;
  SystemTopology::PaperMachine().ApplyTo(&config);
  TileSizePolicy policy(config);
  // Eq. (1): sqrt(24 MB / (3 * 8 B)) = 1024.
  EXPECT_EQ(policy.max_dense_tile(), 1024);
  // Eq. (2) dimension bound: 24 MB / (3 * 8 B) = 1 M rows, so even a
  // 300k x 300k hypersparse matrix passes the dimension criterion (the
  // paper's example); the memory criterion caps the element count at
  // LLC / alpha = 8 MB (512k elements of 16 B).
  EXPECT_EQ(policy.max_sparse_dim(), 1024 * 1024);
  EXPECT_EQ(policy.max_sparse_bytes(), 8LL * 1024 * 1024);
  EXPECT_TRUE(policy.SparseTileFits(300000, 400000));
  EXPECT_FALSE(policy.SparseTileFits(300000, 900000));
  EXPECT_FALSE(policy.SparseTileFits(2000000, 1000));  // dimension bound
  EXPECT_FALSE(policy.DenseTileFits(2048));
  EXPECT_TRUE(policy.DenseTileFits(1024));
}

TEST(TileSizePolicyTest, SparseMemoryBoundRejectsHeavyTiles) {
  AtmConfig config;
  config.llc_bytes = 1024 * 1024;
  config.b_atomic = 64;
  TileSizePolicy policy(config);
  // 1 MB / 3 bytes budget => about 21845 elements of 16 B.
  EXPECT_TRUE(policy.SparseTileFits(1000, 20000));
  EXPECT_FALSE(policy.SparseTileFits(1000, 30000));
}

}  // namespace
}  // namespace atmx
