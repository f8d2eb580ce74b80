// Global configuration knobs for the AT MATRIX representation and the
// ATMULT operator.
//
// The defaults mirror the paper's configuration (section IV-A): alpha = beta
// = 3, read density threshold rho0_R = 0.25, atomic block size derived from
// the last-level cache so that b_atomic equals the maximum dense tile edge
// (k = 10 / b_atomic = 1024 for a 24 MB LLC).

#ifndef ATMX_COMMON_CONFIG_H_
#define ATMX_COMMON_CONFIG_H_

#include <cstddef>
#include <limits>
#include <string>

#include "common/types.h"

namespace atmx {

// Which tiling strategy the partitioner applies. Steps (1)-(6) of the
// paper's Fig. 10 ablation are expressed through these flags.
enum class TilingMode {
  kNone,      // single tile, plain representation (step 1 baseline)
  kFixed,     // fixed b_atomic x b_atomic grid (steps 2-4)
  kAdaptive,  // recursive quadtree melting (steps 5-6, the AT MATRIX)
};

const char* TilingModeName(TilingMode mode);

struct AtmConfig {
  // --- Simulated/actual machine topology -------------------------------
  // Last-level cache size per socket in bytes. Drives the maximum tile
  // sizes of Eq. (1) and Eq. (2). The paper's machine has 24 MB (adjusted
  //, 30 MB raw); our scaled default keeps tile geometry proportional to the
  // scaled-down workloads.
  index_t llc_bytes = 4 * 1024 * 1024;
  // Number of NUMA sockets (worker teams are formed per socket).
  int num_sockets = 2;
  // Physical threads per socket available to a worker team.
  int cores_per_socket = 2;

  // --- Tile geometry (section II-B) -------------------------------------
  // At least `alpha` tiles must fit in the LLC simultaneously.
  int alpha = 3;
  // At least `beta` accumulator arrays of one tile width must fit in LLC.
  int beta = 3;
  // Atomic (minimum) tile edge; must be a power of two. Zero means derive
  // from the LLC as in the paper: the largest power of two <= tau_max_dense.
  index_t b_atomic = 0;

  // --- Density thresholds (sections II-C3, III-C) ------------------------
  // Read threshold rho0_R: tiles denser than this are materialized dense.
  double rho_read = 0.25;
  // Write threshold rho0_W: estimated result blocks denser than this are
  // written as dense tiles. Much lower than rho_read because sparse writes
  // are much more expensive than sparse reads (read/write asymmetry).
  double rho_write = 0.03;

  // --- Memory SLA (section III-E) ----------------------------------------
  // Flexible upper bound on the result matrix size; the water-level method
  // lowers the effective write threshold until the estimate fits.
  std::size_t result_mem_limit_bytes = std::numeric_limits<std::size_t>::max();

  // --- Feature toggles (Fig. 10 optimization steps) ----------------------
  TilingMode tiling = TilingMode::kAdaptive;
  // Step 3+: estimate the result density map and write dense target tiles.
  bool density_estimation = true;
  // Step 4+: allow dense tiles in the *operand* representation.
  bool mixed_tiles = true;
  // Step 6: dynamic just-in-time tile conversions in the optimizer.
  bool dynamic_conversion = true;
  // Fused chain execution (docs/CHAINS.md): ExecuteChain runs the planned
  // parenthesization as one tile-granular task DAG — downstream products
  // start as soon as their input result-tiles complete, and intermediate
  // tiles are dropped after their last consumer finishes. Results are
  // bitwise identical to product-at-a-time execution; off restores the
  // per-product barrier. A finite result_mem_limit_bytes stays fused: the
  // chain-scope water level plans every product's write threshold up front
  // from the estimated density maps and the scheduler admission-gates tile
  // tasks against the shared budget (docs/CHAINS.md "Memory budget");
  // only estimation disabled or a budget below the minimum achievable
  // footprint downgrades to product-at-a-time.
  bool fused_chains = true;

  // --- Parallelism (section III-F) ---------------------------------------
  // Locality-aware work stealing in the team scheduler: home queues are
  // drained longest-task-first (ordered by the cost model) and an idle
  // team steals whole tile tasks from the tail of the NUMA-nearest
  // victim's queue. Results are bitwise identical either way; off restores
  // the paper's static per-team queues (used by the replay benches).
  bool work_stealing = true;

  // Derived values ---------------------------------------------------------
  // Effective atomic block edge (power of two), resolving b_atomic == 0.
  index_t AtomicBlockSize() const;
  // Maximum dense tile edge tau_max^d (Eq. 1), rounded down to a power of
  // two so tiles stay aligned to the quadtree grid.
  index_t MaxDenseTileSize() const;

  // One worker team per socket (the partitioner places tiles by
  // num_sockets), cores_per_socket threads per team.
  int EffectiveTeams() const { return num_sockets; }
  int EffectiveThreadsPerTeam() const { return cores_per_socket; }

  std::string ToString() const;
};

}  // namespace atmx

#endif  // ATMX_COMMON_CONFIG_H_
