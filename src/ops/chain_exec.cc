#include "ops/chain_exec.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/math_util.h"
#include "common/mutex.h"
#include "common/timer.h"
#include "estimate/density_estimator.h"
#include "estimate/water_level.h"
#include "kernels/kernel_dispatch.h"
#include "obs/obs.h"
#if defined(ATMX_OBS_ENABLED)
#include "obs/audit_ledger.h"
#endif
#include "ops/executor.h"
#include "ops/optimizer.h"
#include "ops/product_task.h"
#include "tile/tile_lifetime.h"
#include "topology/thread_pool.h"

namespace atmx::internal {

bool CanFuseChain(const std::vector<const ATMatrix*>& chain,
                  const AtmConfig& config, std::string* reason) {
  if (chain.size() < 3) {  // fewer than two products
    if (reason != nullptr) *reason = "short_chain";
    return false;
  }
  // A finite memory SLA is served by the chain-scope water level
  // (PlanChainBudget), which needs the density estimator for the
  // planning-time intermediate topologies; without estimation nothing can
  // bound the resident set, so those chains stay product-at-a-time.
  if (config.result_mem_limit_bytes !=
          std::numeric_limits<std::size_t>::max() &&
      !config.density_estimation) {
    if (reason != nullptr) *reason = "no_estimation";
    return false;
  }
  return true;
}

void AccumulateProductStats(const AtMultStats& s, AtMultStats* total) {
  total->estimate_seconds += s.estimate_seconds;
  total->optimize_seconds += s.optimize_seconds;
  total->multiply_seconds += s.multiply_seconds;
  total->total_seconds += s.total_seconds;
  // The chain's threshold is the minimum across its products — the
  // binding one for representation decisions (0.0 means "not set yet").
  if (total->effective_write_threshold == 0.0) {
    total->effective_write_threshold = s.effective_write_threshold;
  } else if (s.effective_write_threshold > 0.0) {
    total->effective_write_threshold = std::min(
        total->effective_write_threshold, s.effective_write_threshold);
  }
  total->pair_multiplications += s.pair_multiplications;
  total->sparse_to_dense_conversions += s.sparse_to_dense_conversions;
  total->dense_to_sparse_conversions += s.dense_to_sparse_conversions;
  total->dense_result_tiles += s.dense_result_tiles;
  total->sparse_result_tiles += s.sparse_result_tiles;
  total->compressed_result_tiles += s.compressed_result_tiles;
  for (int v = 0; v < kNumKernelTypes; ++v) {
    total->kernel_invocations[v] += s.kernel_invocations[v];
  }
  total->tasks_stolen += s.tasks_stolen;
  if (total->team_busy_seconds.size() < s.team_busy_seconds.size()) {
    total->team_busy_seconds.resize(s.team_busy_seconds.size(), 0.0);
  }
  for (std::size_t t = 0; t < s.team_busy_seconds.size(); ++t) {
    total->team_busy_seconds[t] += s.team_busy_seconds[t];
  }
  if (total->team_cpu_seconds.size() < s.team_cpu_seconds.size()) {
    total->team_cpu_seconds.resize(s.team_cpu_seconds.size(), 0.0);
  }
  for (std::size_t t = 0; t < s.team_cpu_seconds.size(); ++t) {
    total->team_cpu_seconds[t] += s.team_cpu_seconds[t];
  }
  total->local_read_bytes += s.local_read_bytes;
  total->remote_read_bytes += s.remote_read_bytes;
  total->local_write_bytes += s.local_write_bytes;
  total->remote_write_bytes += s.remote_write_bytes;
}

namespace {

// Runtime state of one product node of a graph (see ProductNodeSpec).
struct ProductNode {
  ProductNodeSpec spec;
  int parent = -1;  // consuming node; -1 for the root
  bool is_left_of_parent = false;

  index_t num_ti = 0;       // result row bands (left operand's row bands)
  index_t num_tj = 0;       // result col bands (right operand's col bands)
  index_t task_offset = 0;  // global id of this node's task (0, 0)

  // The materializing result grid: slot ti * num_tj + tj.
  std::vector<Tile> tiles;
  std::vector<index_t> row_bounds;
  std::vector<index_t> col_bounds;
  DensityMap map;                    // actual densities, filled per task
  std::vector<double> block_counts;  // per-atomic-block nnz counts
  // Estimator output, filled per task when the spec brings no estimate.
  DensityMap estimate;
  // Planning-time result map (LPT costs, admission): the spec's planned
  // map, or its up-front estimate.
  const DensityMap* planned = nullptr;

  // JIT conversions of this node's result tiles, when a consuming task
  // prefers the other representation.
  std::unique_ptr<ConversionCache> result_cache;

  ProductContext ctx;
  AtMultStats stats;

  // Consumer countdowns for dropping this node's result tiles: as the
  // left operand of the parent, row band ti is retired when all parent
  // tasks (ti, *) finished; as the right operand, col band tj when all
  // (*, tj) finished.
  std::vector<std::atomic<index_t>> remaining;

  // Block-grid region [bi0, bi1) x [bj0, bj1) of the tile of local task
  // t = ti * num_tj + tj.
  struct BlockRegion {
    index_t bi0, bi1, bj0, bj1;
  };
  BlockRegion TaskBlocks(index_t t, index_t block) const {
    const auto ti = static_cast<std::size_t>(t / num_tj);
    const auto tj = static_cast<std::size_t>(t % num_tj);
    return {row_bounds[ti] / block, CeilDiv(row_bounds[ti + 1], block),
            col_bounds[tj] / block, CeilDiv(col_bounds[tj + 1], block)};
  }
};

using NodeVec = std::vector<std::unique_ptr<ProductNode>>;

const DensityMap& LeftActualMap(const NodeVec& nodes,
                                const ProductNode& node) {
  return node.spec.left != nullptr
             ? node.spec.left->density_map()
             : nodes[static_cast<std::size_t>(node.spec.left_node)]->map;
}

const DensityMap& RightActualMap(const NodeVec& nodes,
                                 const ProductNode& node) {
  return node.spec.right != nullptr
             ? node.spec.right->density_map()
             : nodes[static_cast<std::size_t>(node.spec.right_node)]->map;
}

const DensityMap& LeftPlannedMap(const NodeVec& nodes,
                                 const ProductNode& node) {
  return node.spec.left != nullptr
             ? node.spec.left->density_map()
             : *nodes[static_cast<std::size_t>(node.spec.left_node)]->planned;
}

const DensityMap& RightPlannedMap(const NodeVec& nodes,
                                  const ProductNode& node) {
  return node.spec.right != nullptr
             ? node.spec.right->density_map()
             : *nodes[static_cast<std::size_t>(node.spec.right_node)]
                    ->planned;
}

// Appends the products of the subchain (i..j) to `nodes` in post-order
// (left subtree, right subtree, self) — the per-product order of the
// product-at-a-time executor — and returns the subchain root's node id,
// or -1 for a single matrix. `tasks` accumulates the tile-task count.
int BuildNodes(const std::vector<const ATMatrix*>& chain,
               const ChainPlan& plan, int i, int j,
               const std::function<ConversionCache*(const ATMatrix*)>& cache,
               std::vector<ProductNodeSpec>* nodes, index_t* tasks) {
  if (i == j) return -1;
  const int k = plan.split[static_cast<std::size_t>(i)]
                          [static_cast<std::size_t>(j)];
  ProductNodeSpec node;
  node.left_node = BuildNodes(chain, plan, i, k, cache, nodes, tasks);
  node.right_node = BuildNodes(chain, plan, k + 1, j, cache, nodes, tasks);
  if (node.left_node < 0) {
    node.left = chain[static_cast<std::size_t>(i)];
    node.left_cache = cache(node.left);
  }
  if (node.right_node < 0) {
    node.right = chain[static_cast<std::size_t>(j)];
    node.right_cache = cache(node.right);
  }
  *tasks += chain[static_cast<std::size_t>(i)]->num_row_bands() *
            chain[static_cast<std::size_t>(j)]->num_col_bands();
  nodes->push_back(node);
  return static_cast<int>(nodes->size()) - 1;
}

}  // namespace

ChainBudgetPlan PlanChainBudget(const std::vector<const ATMatrix*>& chain,
                                const ChainPlan& plan, const AtMult& op) {
  ChainBudgetPlan budget;
  const AtmConfig& config = op.config();
  const int n = static_cast<int>(chain.size());
  if (n < 2) return budget;
  // Every product's topology, estimated bottom-up along the plan tree
  // (leaves use the inputs' actual maps), and its consuming parent.
  std::vector<ProductNodeSpec> nodes;
  index_t tasks = 0;
  BuildNodes(
      chain, plan, 0, n - 1, [](const ATMatrix*) { return nullptr; }, &nodes,
      &tasks);
  std::vector<int> parents(nodes.size(), -1);
  budget.planned_maps.reserve(nodes.size());
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    const ProductNodeSpec& node = nodes[id];
    budget.planned_maps.push_back(EstimateProductDensity(
        node.left != nullptr
            ? node.left->density_map()
            : budget.planned_maps[static_cast<std::size_t>(node.left_node)],
        node.right != nullptr
            ? node.right->density_map()
            : budget.planned_maps[static_cast<std::size_t>(node.right_node)]));
    for (const int child : {node.left_node, node.right_node}) {
      if (child >= 0) {
        parents[static_cast<std::size_t>(child)] = static_cast<int>(id);
      }
    }
  }
  budget.rho_w.assign(budget.planned_maps.size(), config.rho_write);
  // Chain-scope budgeting needs a finite limit, the estimator for the
  // planned topologies, and at least two products — a single product is
  // exactly the operator's own per-product water level, which MultiplyNode
  // already runs.
  if (config.result_mem_limit_bytes ==
          std::numeric_limits<std::size_t>::max() ||
      !config.density_estimation || budget.planned_maps.size() < 2) {
    return budget;
  }
  budget.active = true;
  budget.budget_bytes = config.result_mem_limit_bytes;
  std::vector<const DensityMap*> maps;
  maps.reserve(budget.planned_maps.size());
  for (const DensityMap& m : budget.planned_maps) maps.push_back(&m);
  const ChainWaterLevelResult wl = SolveChainWaterLevel(
      maps, parents, config.rho_write, budget.budget_bytes);
  budget.rho_w = wl.thresholds;
  budget.feasible = wl.feasible;
  budget.projected_peak_bytes = wl.projected_peak_bytes;
  return budget;
}

ATMatrix RunProductGraph(const std::vector<ProductNodeSpec>& specs,
                         const AtMult& op, std::uint64_t budget_bytes,
                         ChainExecStats* stats) {
  ATMX_CHECK(stats != nullptr);
  ATMX_CHECK(!specs.empty());
  ATMX_CHECK(specs.front().left != nullptr);
  const AtmConfig& config = op.config();
  const index_t block = specs.front().left->b_atomic();
  // More than one product: a fused chain, traced and counted as such.
  const bool fused = specs.size() > 1;

#if defined(ATMX_OBS_ENABLED)
  const bool ledger_enabled = obs::AuditLedger::Global().enabled();
  if (ledger_enabled) {
    // The counterfactual replay re-runs DecidePairRepresentations with
    // the parameters this graph actually decided with.
    obs::AuditLedger::Global().SetCostParams(op.cost_model().params());
  }
#endif
  Mutex stats_mutex;
  ResidentTileSet resident;
  if (budget_bytes > 0) resident.set_budget_bytes(budget_bytes);
  // Parked zero accumulators, one slot per team, shared by every node
  // (ProductContext::parked); freed once every task has run.
  const int teams = config.EffectiveTeams();
  std::vector<DenseMatrix> parked(static_cast<std::size_t>(teams));

  NodeVec nodes;
  nodes.reserve(specs.size());
  for (const ProductNodeSpec& spec : specs) {
    auto node = std::make_unique<ProductNode>();
    node->spec = spec;
    nodes.push_back(std::move(node));
  }
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    const ProductNodeSpec& spec = nodes[id]->spec;
    for (const int child : {spec.left_node, spec.right_node}) {
      if (child < 0) continue;
      ATMX_CHECK_LT(static_cast<std::size_t>(child), id);  // post-order
      nodes[static_cast<std::size_t>(child)]->parent = static_cast<int>(id);
      nodes[static_cast<std::size_t>(child)]->is_left_of_parent =
          child == spec.left_node;
    }
  }

  // JIT conversion counts are graph-wide deltas over every distinct cache
  // (leaf caches may be shared across nodes, and across graphs when the
  // product-at-a-time executor threads a chain's caches through them).
  std::map<ConversionCache*, std::pair<index_t, index_t>> leaf_caches;

  // --- Per-node setup (children before parents: post-order ids). --------
  index_t total_tasks = 0;
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    ProductNode& node = *nodes[id];
    const ProductNodeSpec& spec = node.spec;
    ProductContext& ctx = node.ctx;
    if (spec.left != nullptr) {
      ATMX_CHECK_EQ(spec.left->b_atomic(), block);
      ctx.a = OperandView::FromMatrix(*spec.left);
      ctx.a_cache = spec.left_cache;
    } else {
      ProductNode& l = *nodes[static_cast<std::size_t>(spec.left_node)];
      ctx.a = OperandView::FromGrid(&l.tiles, &l.row_bounds, &l.col_bounds,
                                    &l.map);
      ctx.a_cache = l.result_cache.get();
    }
    if (spec.right != nullptr) {
      ATMX_CHECK_EQ(spec.right->b_atomic(), block);
      // A leaf right operand's tasks read its wide sparse tiles through
      // their column-band slices, built here (once per matrix) before any
      // task runs.
      ctx.b = OperandView::FromMatrix(*spec.right, /*col_band_slices=*/true);
      ctx.b_cache = spec.right_cache;
    } else {
      ProductNode& r = *nodes[static_cast<std::size_t>(spec.right_node)];
      ctx.b = OperandView::FromGrid(&r.tiles, &r.row_bounds, &r.col_bounds,
                                    &r.map);
      ctx.b_cache = r.result_cache.get();
    }
    ATMX_CHECK_EQ(ctx.a.cols(), ctx.b.rows());
    ATMX_CHECK(ctx.a_cache != nullptr && ctx.b_cache != nullptr);
    for (ConversionCache* cache : {spec.left_cache, spec.right_cache}) {
      if (cache != nullptr && leaf_caches.count(cache) == 0) {
        leaf_caches[cache] = {cache->sparse_to_dense_count(),
                              cache->dense_to_sparse_count()};
      }
    }
    node.row_bounds = ctx.a.row_bounds();
    node.col_bounds = ctx.b.col_bounds();
    node.num_ti = ctx.a.num_row_bands();
    node.num_tj = ctx.b.num_col_bands();
    node.task_offset = total_tasks;
    total_tasks += node.num_ti * node.num_tj;

    const index_t rows = ctx.a.rows();
    const index_t cols = ctx.b.cols();
    node.tiles.resize(static_cast<std::size_t>(node.num_ti * node.num_tj));
    node.map = DensityMap(rows, cols, block);
    node.block_counts.assign(static_cast<std::size_t>(node.map.grid_rows()) *
                                 static_cast<std::size_t>(node.map.grid_cols()),
                             0.0);
    node.result_cache = std::make_unique<ConversionCache>();

    ctx.block = block;
    ctx.use_estimate = config.density_estimation;
    if (spec.estimate != nullptr) {
      ctx.estimate = spec.estimate;
    } else {
      ATMX_CHECK(spec.c_init == nullptr || !ctx.use_estimate);
      if (ctx.use_estimate) node.estimate = DensityMap(rows, cols, block);
      ctx.estimate = &node.estimate;
    }
    ATMX_CHECK_GE(spec.rho_w, 0.0);
    ctx.rho_w = spec.rho_w;
    ctx.rho_write = config.rho_write;
    ctx.dynamic_conversion = config.dynamic_conversion;
    ctx.cost_model = &op.cost_model();
    ctx.c_init = spec.c_init;
    ctx.c_tiles = &node.tiles;
    ctx.block_counts = &node.block_counts;
    ctx.grid_cols = node.map.grid_cols();
    ctx.parked = &parked;
    ctx.stats = &node.stats;
    ctx.stats_mutex = &stats_mutex;
    node.stats.effective_write_threshold = ctx.rho_w;
#if defined(ATMX_OBS_ENABLED)
    ctx.ledger_enabled = ledger_enabled;
    ctx.op_id = spec.op_id != 0 || !ledger_enabled
                    ? spec.op_id
                    : obs::AuditLedger::Global().NextOpId();
#endif

    // Planning-time result map: LPT costs and admission price tasks with
    // it, and a consumer prices its operand bands with it before this
    // node's actual map exists (order is a performance hint only —
    // results are unaffected). A one-node graph plans with its up-front
    // estimate (or, without estimation, needs none); a fused graph's
    // nodes carry the chain plan's maps.
    ATMX_CHECK(!fused || spec.planned_map != nullptr);
    node.planned = spec.planned_map != nullptr ? spec.planned_map
                                               : spec.estimate;
  }
  // Retire countdowns: sized by the operand band the parent consumes;
  // parents have larger ids, so their band counts exist only after the
  // setup pass.
  for (auto& node_ptr : nodes) {
    ProductNode& node = *node_ptr;
    if (node.parent < 0) continue;
    ProductNode& p = *nodes[static_cast<std::size_t>(node.parent)];
    const std::size_t bands = static_cast<std::size_t>(
        node.is_left_of_parent ? node.num_ti : node.num_tj);
    const index_t consumers = node.is_left_of_parent ? p.num_tj : p.num_ti;
    node.remaining = std::vector<std::atomic<index_t>>(bands);
    for (auto& r : node.remaining) {
      r.store(consumers, std::memory_order_relaxed);
    }
  }

  // --- Dependency graph over the global task space. ---------------------
  // Task (ti, tj) of a product reads the left operand's entire row band ti
  // and the right operand's entire col band tj, so it depends on every
  // left-child task (ti, *) and every right-child task (*, tj).
  std::vector<index_t> dep_count(static_cast<std::size_t>(total_tasks), 0);
  std::vector<std::vector<index_t>> successors(
      static_cast<std::size_t>(total_tasks));
  for (auto& node_ptr : nodes) {
    ProductNode& node = *node_ptr;
    const index_t deps =
        (node.spec.left_node >= 0
             ? nodes[static_cast<std::size_t>(node.spec.left_node)]->num_tj
             : 0) +
        (node.spec.right_node >= 0
             ? nodes[static_cast<std::size_t>(node.spec.right_node)]->num_ti
             : 0);
    for (index_t t = 0; t < node.num_ti * node.num_tj; ++t) {
      dep_count[static_cast<std::size_t>(node.task_offset + t)] = deps;
    }
    if (node.parent < 0) continue;
    ProductNode& p = *nodes[static_cast<std::size_t>(node.parent)];
    for (index_t ti = 0; ti < node.num_ti; ++ti) {
      for (index_t tj = 0; tj < node.num_tj; ++tj) {
        auto& succ = successors[static_cast<std::size_t>(
            node.task_offset + ti * node.num_tj + tj)];
        if (node.is_left_of_parent) {
          succ.reserve(static_cast<std::size_t>(p.num_tj));
          for (index_t j = 0; j < p.num_tj; ++j) {
            succ.push_back(p.task_offset + ti * p.num_tj + j);
          }
        } else {
          succ.reserve(static_cast<std::size_t>(p.num_ti));
          for (index_t i = 0; i < p.num_ti; ++i) {
            succ.push_back(p.task_offset + i * p.num_tj + tj);
          }
        }
      }
    }
  }

  // Global task id -> owning node, via the offsets (nodes are in offset
  // order by construction).
  std::vector<index_t> offsets;
  offsets.reserve(nodes.size());
  for (const auto& node_ptr : nodes) offsets.push_back(node_ptr->task_offset);
  auto node_of = [&](index_t task) {
    return static_cast<int>(std::upper_bound(offsets.begin(), offsets.end(),
                                             task) -
                            offsets.begin()) -
           1;
  };

  // --- LPT queue ordering. ------------------------------------------------
  // Per-task FLOP/byte cost estimates, O(1) per task from per-band
  // aggregate densities of the operands' planned maps (actual maps for
  // finished matrices; the per-pair refinement happens later inside the
  // task, queue order only needs magnitudes).
  ScheduleOptions sched_options;
  sched_options.work_stealing = config.work_stealing;
  if (config.work_stealing && total_tasks > 0) {
    auto task_cost = std::make_shared<std::vector<double>>(
        static_cast<std::size_t>(total_tasks));
    for (auto& node_ptr : nodes) {
      ProductNode& node = *node_ptr;
      const DensityMap& amap = LeftPlannedMap(nodes, node);
      const DensityMap& bmap = RightPlannedMap(nodes, node);
      const index_t k = amap.cols();
      const index_t k_blocks = CeilDiv(k, block);
      std::vector<double> rho_a_band(static_cast<std::size_t>(node.num_ti));
      for (index_t ti = 0; ti < node.num_ti; ++ti) {
        const index_t r0 = node.row_bounds[static_cast<std::size_t>(ti)];
        const index_t m =
            node.row_bounds[static_cast<std::size_t>(ti) + 1] - r0;
        rho_a_band[static_cast<std::size_t>(ti)] =
            amap.RegionDensity(r0 / block, 0, CeilDiv(m, block), k_blocks);
      }
      std::vector<double> rho_b_band(static_cast<std::size_t>(node.num_tj));
      for (index_t tj = 0; tj < node.num_tj; ++tj) {
        const index_t c0 = node.col_bounds[static_cast<std::size_t>(tj)];
        const index_t w =
            node.col_bounds[static_cast<std::size_t>(tj) + 1] - c0;
        rho_b_band[static_cast<std::size_t>(tj)] =
            bmap.RegionDensity(0, c0 / block, k_blocks, CeilDiv(w, block));
      }
      for (index_t ti = 0; ti < node.num_ti; ++ti) {
        for (index_t tj = 0; tj < node.num_tj; ++tj) {
          MultiplyShape shape;
          shape.m = node.row_bounds[static_cast<std::size_t>(ti) + 1] -
                    node.row_bounds[static_cast<std::size_t>(ti)];
          shape.k = k;
          shape.n = node.col_bounds[static_cast<std::size_t>(tj) + 1] -
                    node.col_bounds[static_cast<std::size_t>(tj)];
          shape.rho_a = rho_a_band[static_cast<std::size_t>(ti)];
          shape.rho_b = rho_b_band[static_cast<std::size_t>(tj)];
          if (node.ctx.use_estimate) {
            shape.rho_c = node.planned->RegionDensity(
                node.row_bounds[static_cast<std::size_t>(ti)] / block,
                node.col_bounds[static_cast<std::size_t>(tj)] / block,
                CeilDiv(shape.m, block), CeilDiv(shape.n, block));
          }
          (*task_cost)[static_cast<std::size_t>(node.task_offset +
                                                ti * node.num_tj + tj)] =
              EstimateTaskCost(op.cost_model(), shape);
        }
      }
    }
    sched_options.cost_of = [task_cost](index_t task) {
      return (*task_cost)[static_cast<std::size_t>(task)];
    };
  }

  // --- Admission control against the budget. ----------------------------
  // Each task's projected output bytes at its product's planned threshold,
  // priced by EstimateMemoryBytes over the task's block region. A ready
  // task reserves its projection before launching; the reservation
  // converts to real charges as tiles materialize and is dropped when the
  // task finishes, so parked tasks re-enter as completed consumers retire
  // upstream tiles. ScheduleOptions::admit guarantees forward progress by
  // force-admitting the oldest parked task when nothing is in flight.
  std::vector<std::uint64_t> task_bytes;
  if (budget_bytes > 0) {
    task_bytes.assign(static_cast<std::size_t>(total_tasks), 0);
    for (const auto& node_ptr : nodes) {
      const ProductNode& node = *node_ptr;
      ATMX_CHECK(node.planned != nullptr);
      for (index_t t = 0; t < node.num_ti * node.num_tj; ++t) {
        const auto [bi0, bi1, bj0, bj1] = node.TaskBlocks(t, block);
        task_bytes[static_cast<std::size_t>(node.task_offset + t)] =
            EstimateMemoryBytes(*node.planned, node.ctx.rho_w, bi0, bi1, bj0,
                                bj1);
      }
    }
    sched_options.admit = [&resident, &task_bytes](index_t task,
                                                   bool force) {
      const std::uint64_t bytes =
          task_bytes[static_cast<std::size_t>(task)];
      if (force) {
        resident.ForceReserve(bytes);
        ATMX_COUNTER_INC("atmult.fused.admission.forced");
        return true;
      }
      if (!resident.TryReserve(bytes)) {
        ATMX_COUNTER_INC("atmult.fused.admission.parked");
        return false;
      }
      return true;
    };
  }

  // --- Run the DAG. -----------------------------------------------------
  auto run_task = [&](WorkerTeam& team, index_t task) {
    ProductNode& node = *nodes[static_cast<std::size_t>(node_of(task))];
    const index_t local = task - node.task_offset;
    const index_t ti = local / node.num_tj;
    const index_t tj = local % node.num_tj;
    const auto [bi0, bi1, bj0, bj1] = node.TaskBlocks(local, block);
    if (node.ctx.use_estimate && node.spec.estimate == nullptr) {
      // Region-by-region estimate from the operands' *actual* maps —
      // bitwise identical to the full up-front estimate, because the
      // dependency edges guarantee the operand bands this region reads
      // are final.
      WallTimer est_timer;
      EstimateProductDensityRegion(LeftActualMap(nodes, node),
                                   RightActualMap(nodes, node), bi0, bi1, bj0,
                                   bj1, &node.estimate);
      const double est_seconds = est_timer.ElapsedSeconds();
      MutexLock lock(stats_mutex);
      node.stats.estimate_seconds += est_seconds;
    }

    RunProductTileTask(node.ctx, team, local);

    // Actual result densities of the task's region, for downstream
    // estimates and the result's density map (tasks write disjoint grid
    // regions).
    node.map.SetFromCounts(node.block_counts, bi0, bi1, bj0, bj1);
    // Root tiles charge too: the resident peak (and any budget) covers the
    // whole footprint the graph holds, result included — the root's
    // charge is released at the end when ownership passes to the caller.
    resident.Charge(node.tiles[static_cast<std::size_t>(local)].MemoryBytes());

    // Retire operand bands whose last consumer this task was. acq_rel on
    // the countdown orders every consumer's reads before the release.
    if (node.spec.left_node >= 0) {
      ProductNode& l = *nodes[static_cast<std::size_t>(node.spec.left_node)];
      if (l.remaining[static_cast<std::size_t>(ti)].fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        std::vector<index_t> band(static_cast<std::size_t>(l.num_tj));
        for (index_t j = 0; j < l.num_tj; ++j) {
          band[static_cast<std::size_t>(j)] = ti * l.num_tj + j;
        }
        resident.Retire(&l.tiles, band);
      }
    }
    if (node.spec.right_node >= 0) {
      ProductNode& r = *nodes[static_cast<std::size_t>(node.spec.right_node)];
      if (r.remaining[static_cast<std::size_t>(tj)].fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        std::vector<index_t> band(static_cast<std::size_t>(r.num_ti));
        for (index_t i = 0; i < r.num_ti; ++i) {
          band[static_cast<std::size_t>(i)] = i * r.num_tj + tj;
        }
        resident.Retire(&r.tiles, band);
      }
    }
    if (budget_bytes > 0) {
      // The projection is real charges now (or never materialized): hand
      // the reservation back so parked tasks can re-enter.
      resident.ReleaseReservation(
          task_bytes[static_cast<std::size_t>(task)]);
    }
  };
  auto run_fused_task = [&](WorkerTeam& team, index_t task) {
#if defined(ATMX_OBS_ENABLED)
    const int node_id = node_of(task);
    const ProductNode& node = *nodes[static_cast<std::size_t>(node_id)];
    const index_t local = task - node.task_offset;
    ATMX_TRACE_SPAN_ARGS("chain", "fused_tile", {"product", node_id},
                         {"ti", local / node.num_tj},
                         {"tj", local % node.num_tj});
    ATMX_COUNTER_INC("atmult.fused.tiles");
#endif
    run_task(team, task);
  };

  ScheduleStats sched_stats;
  // On a pooled scheduler of the config's shape, lent for this statement
  // only (ops/executor.h).
  SchedulerLease(config)->RunTaskGraph(
      total_tasks, dep_count, successors,
      [&](index_t task) {
        // Tasks follow their result tile-row's round-robin home within
        // their own product (III-F); with work stealing this is the
        // *initial* queue, and RunProductTileTask accounts locality against
        // the team that actually executes (its WorkerTeam::team_id), so
        // stolen tasks honestly show up as remote reads of their A tiles.
        const ProductNode& node = *nodes[static_cast<std::size_t>(
            node_of(task))];
        return static_cast<int>(((task - node.task_offset) / node.num_tj) %
                                static_cast<index_t>(teams));
      },
      fused ? std::function<void(WorkerTeam&, index_t)>(run_fused_task)
            : std::function<void(WorkerTeam&, index_t)>(run_task),
      sched_options, &sched_stats);
#if defined(ATMX_OBS_ENABLED)
  for (const DenseMatrix& d : parked) {
    obs::MemTracker::Global().RecordFree(d.MemoryBytes());
  }
#endif
  parked.clear();

  // --- Close out stats. -------------------------------------------------
  stats->total = AtMultStats();
  stats->per_product.clear();
  stats->fused = fused;
  stats->fused_tasks = fused ? total_tasks : 0;
  stats->resident_peak_bytes = resident.peak_bytes();
  stats->per_product.reserve(nodes.size());
  for (auto& node_ptr : nodes) {
    ProductNode& node = *node_ptr;
    node.stats.total_seconds = node.stats.PhaseSeconds();
    AccumulateProductStats(node.stats, &stats->total);
    stats->per_product.push_back(node.stats);
  }
  // Conversions and the scheduler outcome are graph-wide: products of a
  // fused graph interleave on shared caches and teams.
  AtMultStats& total = stats->total;
  for (const auto& [cache, before] : leaf_caches) {
    total.sparse_to_dense_conversions +=
        cache->sparse_to_dense_count() - before.first;
    total.dense_to_sparse_conversions +=
        cache->dense_to_sparse_count() - before.second;
  }
  for (const auto& node_ptr : nodes) {
    total.sparse_to_dense_conversions +=
        node_ptr->result_cache->sparse_to_dense_count();
    total.dense_to_sparse_conversions +=
        node_ptr->result_cache->dense_to_sparse_count();
  }
  total.tasks_stolen = static_cast<index_t>(sched_stats.TotalSteals());
  total.team_busy_seconds = sched_stats.busy_seconds;
  total.team_cpu_seconds = sched_stats.cpu_seconds;

#if defined(ATMX_OBS_ENABLED)
  // Registry close-out: the same quantities as the stats, accumulated
  // across operations (every product node is one ATMULT operation).
  auto& registry = obs::MetricsRegistry::Global();
  ATMX_COUNTER_ADD("atmult.operations", nodes.size());
  ATMX_COUNTER_ADD("atmult.pairs", total.pair_multiplications);
  ATMX_COUNTER_ADD("atmult.result_tiles.dense", total.dense_result_tiles);
  ATMX_COUNTER_ADD("atmult.result_tiles.sparse", total.sparse_result_tiles);
  ATMX_COUNTER_ADD("atmult.result_tiles.compressed",
                   total.compressed_result_tiles);
  ATMX_COUNTER_ADD("atmult.bytes.local_read", total.local_read_bytes);
  ATMX_COUNTER_ADD("atmult.bytes.remote_read", total.remote_read_bytes);
  ATMX_COUNTER_ADD("atmult.bytes.local_write", total.local_write_bytes);
  ATMX_COUNTER_ADD("atmult.bytes.remote_write", total.remote_write_bytes);
  // Per-variant invocation counters: names are per-variant, so the
  // function-local-static caching macro does not apply; registration
  // cost is once per graph, not per pair.
  for (int v = 0; v < kNumKernelTypes; ++v) {
    if (total.kernel_invocations[v] > 0) {
      registry.GetCounter(KernelMetricName(static_cast<KernelType>(v)))
          .Add(static_cast<std::uint64_t>(total.kernel_invocations[v]));
    }
  }
  // Estimator telemetry: predicted vs. actual per-block density error of
  // every product, joined into the prediction audit ledger when one is
  // armed — before the root's map is moved into the result matrix.
  for (const auto& node_ptr : nodes) {
    const ProductNode& node = *node_ptr;
    const DensityMap& estimate = *node.ctx.estimate;
    const DensityMap& actual = node.map;
    if (!node.ctx.use_estimate ||
        estimate.grid_rows() != actual.grid_rows() ||
        estimate.grid_cols() != actual.grid_cols()) {
      continue;
    }
    for (index_t bi = 0; bi < actual.grid_rows(); ++bi) {
      for (index_t bj = 0; bj < actual.grid_cols(); ++bj) {
        const double err = std::abs(estimate.At(bi, bj) - actual.At(bi, bj));
        ATMX_HISTOGRAM_OBSERVE_WITH("atmult.estimator.abs_error", err, 0.001,
                                    0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0);
        if (ledger_enabled) {
          obs::DensityAuditRecord r;
          r.op = node.ctx.op_id;
          r.bi = bi;
          r.bj = bj;
          r.predicted = estimate.At(bi, bj);
          r.actual = actual.At(bi, bj);
          obs::AuditLedger::Global().RecordDensity(r);
        }
      }
    }
    ATMX_GAUGE_SET("atmult.estimator.predicted_nnz", estimate.ExpectedNnz());
    ATMX_GAUGE_SET("atmult.estimator.actual_nnz", actual.ExpectedNnz());
  }
#endif

  ProductNode& root = *nodes.back();
  std::uint64_t root_bytes = 0;
  for (const Tile& t : root.tiles) root_bytes += t.MemoryBytes();
  ATMatrix result(root.row_bounds.back(), root.col_bounds.back(), block,
                  std::move(root.tiles), std::move(root.map));
  // Ownership of the root tiles passes to the caller: uncharge them from
  // the resident set (the peak keeps the high-water mark; with the
  // observability layer in, ReleaseCharge also returns the bytes to the
  // MemTracker exactly as their Charge recorded them).
  resident.ReleaseCharge(root_bytes);

#if defined(ATMX_OBS_ENABLED)
  // Placement balance across the worker teams (first-touch home nodes of
  // the result tiles). Dynamic names => direct registry calls.
  std::vector<index_t> node_tiles(static_cast<std::size_t>(teams), 0);
  for (const Tile& t : result.tiles()) {
    const int home = t.home_node();
    if (home >= 0 && home < teams) ++node_tiles[static_cast<std::size_t>(home)];
  }
  index_t min_tiles = std::numeric_limits<index_t>::max();
  index_t max_tiles = 0;
  for (int home = 0; home < teams; ++home) {
    const index_t count = node_tiles[static_cast<std::size_t>(home)];
    registry
        .GetGauge("atmult.placement.node." + std::to_string(home) +
                  ".result_tiles")
        .Set(static_cast<double>(count));
    min_tiles = std::min(min_tiles, count);
    max_tiles = std::max(max_tiles, count);
  }
  ATMX_GAUGE_SET("atmult.placement.balance",
                 max_tiles > 0 ? static_cast<double>(min_tiles) /
                                     static_cast<double>(max_tiles)
                               : 1.0);
  // The realized result size: compare against
  // atmult.waterlevel.predicted_bytes.
  ATMX_GAUGE_SET("atmult.result_bytes",
                 static_cast<double>(result.MemoryBytes()));
#endif
  return result;
}

ATMatrix ExecuteChainNodes(const std::vector<const ATMatrix*>& chain,
                           const ChainPlan& plan, const AtMult& op,
                           const ChainBudgetPlan& budget, bool fused,
                           ChainExecStats* stats) {
  ATMX_CHECK(stats != nullptr);
  const AtmConfig& config = op.config();
  const int n = static_cast<int>(chain.size());

  // Shared JIT conversion caches, one per distinct input matrix — a
  // matrix appearing in several products (or twice in one) converts each
  // tile at most once per chain. Intermediates get a fresh cache of their
  // own.
  std::map<const ATMatrix*, std::unique_ptr<ConversionCache>> caches;
  auto cache_for = [&caches](const ATMatrix* m) {
    auto& slot = caches[m];
    if (slot == nullptr) slot = std::make_unique<ConversionCache>();
    return slot.get();
  };
  std::vector<ProductNodeSpec> nodes;
  nodes.reserve(static_cast<std::size_t>(n) - 1);
  index_t tasks = 0;
  BuildNodes(chain, plan, 0, n - 1, cache_for, &nodes, &tasks);
  ATMX_CHECK(!budget.active || budget.rho_w.size() == nodes.size());

  if (!fused) {
    // Product-at-a-time, the bitwise reference of the fused graph: one
    // one-node graph per product, earlier products' results as leaves.
    // Under an active chain budget the planned threshold replaces the
    // operator's own water level, mirroring the fused executor decision
    // for decision.
    std::vector<ATMatrix> results(nodes.size());
    for (std::size_t id = 0; id < nodes.size(); ++id) {
      ProductNodeSpec node = nodes[id];
      ConversionCache left_cache;
      ConversionCache right_cache;
      if (node.left_node >= 0) {
        node.left = &results[static_cast<std::size_t>(node.left_node)];
        node.left_cache = &left_cache;
        node.left_node = -1;
      }
      if (node.right_node >= 0) {
        node.right = &results[static_cast<std::size_t>(node.right_node)];
        node.right_cache = &right_cache;
        node.right_node = -1;
      }
      if (budget.active) node.rho_w = budget.rho_w[id];
      AtMultStats product_stats;
      results[id] = MultiplyNode(op, node, &product_stats);
      // Intermediate operands are dead now (their caches die with this
      // iteration).
      for (const int child : {nodes[id].left_node, nodes[id].right_node}) {
        if (child >= 0) results[static_cast<std::size_t>(child)] = ATMatrix();
      }
      AccumulateProductStats(product_stats, &stats->total);
      stats->per_product.push_back(std::move(product_stats));
    }
    return std::move(results.back());
  }

  ATMX_CHECK_EQ(budget.planned_maps.size(), nodes.size());
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    // Unbounded budget: the performance-optimal threshold, exactly as the
    // product-at-a-time path's EffectiveWriteThreshold fast path. Finite
    // budget: the chain-scope water level's per-product threshold, which
    // the product-at-a-time path imposes identically — same
    // representation decisions, bitwise-identical results.
    nodes[id].rho_w = budget.active ? budget.rho_w[id] : config.rho_write;
    nodes[id].planned_map = &budget.planned_maps[id];
  }

  ATMatrix result;
  {
    ATMX_TRACE_SPAN_ARGS("chain", "fused_exec",
                         {"products", static_cast<index_t>(nodes.size())},
                         {"tasks", tasks});
    result = RunProductGraph(nodes, op, budget.active ? budget.budget_bytes : 0,
                             stats);
  }
#if defined(ATMX_OBS_ENABLED)
  ATMX_COUNTER_INC("atmult.fused.chains");
  ATMX_COUNTER_ADD("atmult.fused.products",
                   static_cast<std::uint64_t>(nodes.size()));
  ATMX_GAUGE_SET("atmult.fused.resident_bytes_peak",
                 static_cast<double>(stats->resident_peak_bytes));
  if (budget.active) {
    ATMX_GAUGE_SET("atmult.fused.budget_bytes",
                   static_cast<double>(budget.budget_bytes));
  }
#endif
  return result;
}

}  // namespace atmx::internal
