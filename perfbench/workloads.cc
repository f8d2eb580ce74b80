#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <random>
#include <utility>

#include "estimate/density_estimator.h"
#include "estimate/water_level.h"
#include "gen/rmat.h"
#include "gen/workloads.h"
#include "kernels/sparse_kernels.h"
#include "ops/chain.h"
#include "reference.h"
#include "spans.h"
#include "storage/convert.h"
#include "tile/partitioner.h"

namespace perfbench {

using atmx::AtMult;
using atmx::AtMultStats;
using atmx::ATMatrix;
using atmx::ChainExecStats;
using atmx::ChainPlan;
using atmx::CooMatrix;
using atmx::DensityMap;

namespace {

// Linear scale of the Table I surrogates: calls take milliseconds, not
// microseconds, so fixed per-call noise stays small.
constexpr double kScale = 0.1;
// Threads of the reference build and the checks, which run while the
// library is idle.
constexpr int kRefThreads = 4;
// Chain: the most skewed G-series R-MAT times a dense n x 64 panel, so the
// block densities of A*X range widely and the water level has choices.
constexpr const char* kChainMatrix = "G9";
constexpr atmx::index_t kPanelCols = 64;
// BFS: R-MAT graph of average degree 8, searched level by level from
// kBfsBatches batches of kBfsSources roots each. Many small searches per
// pass keep per-level latency quantiles stable across seeds.
constexpr atmx::index_t kBfsNodes = 1 << 14;
constexpr atmx::index_t kBfsSources = 16;
constexpr int kBfsBatches = 8;

// Indexed by atmx::KernelType.
constexpr const char* kVariantKeys[atmx::kNumKernelTypes] = {
    "ddd", "dsd", "sdd", "ssd", "dds", "dss", "sds", "sss"};

double Mb(double bytes) { return bytes / (1024.0 * 1024.0); }

// Partitions a copy of `coo` (PartitionToAtm reorders its input) and adds
// the tile.* layers; returns the partitioning wall seconds.
double Partition(const CooMatrix& coo, const atmx::AtmConfig& config,
                 ATMatrix* out, Layers* layers) {
  CooMatrix copy = coo;
  *out = ATMatrix();
  atmx::PartitionStats ps;
  Span span("tile", "PartitionToAtm");
  *out = atmx::PartitionToAtm(std::move(copy), config, &ps);
  const double seconds = span.Stop();
  Layers& l = *layers;
  l["tile.partition_s"] += seconds;
  l["tile.sort_s"] += ps.sort_seconds;
  l["tile.blockcount_s"] += ps.blockcount_seconds;
  l["tile.recursion_s"] += ps.recursion_seconds;
  l["tile.materialize_s"] += ps.materialize_seconds;
  l["tile.dense_tiles"] += static_cast<double>(ps.dense_tiles);
  l["tile.sparse_tiles"] += static_cast<double>(ps.sparse_tiles);
  return seconds;
}

// The negative control's benchmark-side delay: repeats the estimate call
// the operator is about to make.
void MaybeInject(const Pinned& pinned, const ATMatrix& a, const ATMatrix& b) {
  if (pinned.inject_layer != "estimate") return;
  for (int r = 0; r < pinned.inject_repeats; ++r) {
    (void)atmx::EstimateProductDensity(a.density_map(), b.density_map());
  }
}

// A probe pass's own calls ahead of a product: the estimate the operator
// is about to make and its water-level threshold, each timed as a span.
DensityMap Probe(const DensityMap& a, const DensityMap& b,
                 const Pinned& pinned, std::size_t mem_limit) {
  DensityMap estimate;
  {
    Span span("estimate", "EstimateProductDensity");
    estimate = atmx::EstimateProductDensity(a, b);
  }
  Span span("estimate", "EffectiveWriteThreshold");
  (void)atmx::EffectiveWriteThreshold(estimate, pinned.config.rho_write,
                                      mem_limit);
  return estimate;
}

// Adds one product call to the pass: its decision counts, per-layer
// totals from the call's stats, and the unattributed remainder of its wall
// time. `serial_estimate` is false for fused chains, whose estimates run
// inside the tile tasks (and so inside team busy time). `flops` and
// `operand_bytes` are computed by the caller; kernel.bytes adds the
// result's bytes.
void RecordProduct(const AtMultStats& stats, double wall_seconds,
                   bool serial_estimate, double flops, double operand_bytes,
                   const ATMatrix& result, PassResult* pass) {
  Layers& l = pass->layers;
  const atmx::index_t conversions =
      stats.sparse_to_dense_conversions + stats.dense_to_sparse_conversions;
  pass->decisions.insert(pass->decisions.end(),
                         {stats.pair_multiplications, conversions,
                          stats.dense_result_tiles, stats.sparse_result_tiles});
  for (int v = 0; v < atmx::kNumKernelTypes; ++v) {
    pass->kernel_split.push_back(stats.kernel_invocations[v]);
    l[std::string("kernel.invocations.") + kVariantKeys[v]] +=
        static_cast<double>(stats.kernel_invocations[v]);
  }
  const double result_bytes = static_cast<double>(result.MemoryBytes());
  pass->result_bytes += result_bytes;
  l["estimate.actual_nnz"] += static_cast<double>(result.nnz());
  l["estimate.s"] += stats.estimate_seconds;
  l["optimize.s"] += stats.optimize_seconds;
  l["optimize.conversions"] += static_cast<double>(conversions);
  l["ops.pairs"] += static_cast<double>(stats.pair_multiplications);
  l["ops.result_tiles.dense"] += static_cast<double>(stats.dense_result_tiles);
  l["ops.result_tiles.sparse"] +=
      static_cast<double>(stats.sparse_result_tiles);
  l["kernel.multiply_s"] += stats.multiply_seconds;
  l["kernel.flops"] += flops;
  l["kernel.bytes"] += operand_bytes + result_bytes;

  const double max_busy = stats.MaxTeamBusySeconds();
  double busy = 0.0;
  for (double s : stats.team_busy_seconds) busy += s;
  l["sched.max_team_busy_s"] += max_busy;
  l["sched.busy_s"] += busy;
  l["sched.capacity_s"] +=
      static_cast<double>(stats.team_busy_seconds.size()) * wall_seconds;
  l["sched.tasks_stolen"] += static_cast<double>(stats.tasks_stolen);
  l["numa.local_bytes"] +=
      static_cast<double>(stats.local_read_bytes + stats.local_write_bytes);
  l["numa.remote_bytes"] +=
      static_cast<double>(stats.remote_read_bytes + stats.remote_write_bytes);

  // Call wall time = serial estimate + the busiest team + the rest
  // (scheduler start-up, idle waiting, assembly). The rest is clamped at
  // zero for the reconciliation, so an over-attributing layer shows up as
  // a reconciliation error instead of cancelling out.
  const double serial = serial_estimate ? stats.estimate_seconds : 0.0;
  const double rest = wall_seconds - serial - max_busy;
  l["ops.unattributed_s"] += rest;
  l["recon.attributed_s"] += serial + max_busy + std::max(0.0, rest);
  l["waterlevel.rho_w"] =
      std::max(l["waterlevel.rho_w"], stats.effective_write_threshold);
}

// ---------------------------------------------------------------------------
// spgemm_dense / spgemm_hypersparse: C = A * A over Table I surrogates.

class SpgemmWorkload : public Workload {
 public:
  SpgemmWorkload(const Pinned& pinned, std::vector<std::string> ids)
      : pinned_(pinned), ids_(std::move(ids)),
        op_(pinned.config, pinned.cost_model) {}

  void Generate(std::uint64_t seed) override {
    for (const std::string& id : ids_) {
      Input in;
      in.id = id;
      in.coo = atmx::MakeWorkloadMatrix(id, kScale, seed);
      in.ref = RefFromCoo(in.coo);
      in.flops = RefFlops(in.ref, in.ref);
      inputs_.push_back(std::move(in));
    }
  }

  double Setup(Layers* layers) override {
    double seconds = 0.0;
    for (Input& in : inputs_) {
      seconds += Partition(in.coo, pinned_.config, &in.atm, layers);
    }
    return seconds;
  }

  void RunPass(bool probe, PassResult* pass) override {
    for (const Input& in : inputs_) {
      Tracer::Get().NewOp();
      if (probe) {
        pass->layers["estimate.expected_nnz"] +=
            Probe(in.atm.density_map(), in.atm.density_map(), pinned_,
                  pinned_.config.result_mem_limit_bytes)
                .ExpectedNnz();
      }
      AtMultStats stats;
      ATMatrix c;
      double wall = 0.0;
      {
        Span span("op", "Multiply");
        MaybeInject(pinned_, in.atm, in.atm);
        c = op_.Multiply(in.atm, in.atm, &stats);
        wall = span.Stop();
      }
      pass->op_seconds.push_back(wall);
      pass->layers["op.wall_s"] += wall;
      RecordProduct(stats, wall, true, in.flops,
                    2.0 * static_cast<double>(in.atm.MemoryBytes()), c, pass);
      Span span("check", "check");
      const CheckResult check =
          CheckProduct(c, in.ref, in.ref, kRefThreads);
      pass->attempted++;
      if (!check.ok) {
        pass->failed++;
        std::fprintf(stderr, "check: %s: %lld mismatches (max rel err %g)\n",
                     in.id.c_str(), (long long)check.mismatches,
                     check.max_rel_err);
      }
      pass->checksum += check.checksum;
    }
  }

  bool RunBaselines() override {
    // Baselines write a dense n x n array; skip them where that array
    // would not fit comfortably in memory.
    constexpr double kMaxDenseBytes = 512.0 * 1024 * 1024;
    // Speed ratios as in the paper's Fig. 8a: baseline time over ATMULT
    // time (> 1 = ATMULT faster).
    std::printf("reference: %-4s %12s %12s %12s %14s %14s\n", "id",
                "atmult[s]", "spspsp[s]", "spspd[s]", "atmult/spspsp",
                "atmult/spspd");
    for (const Input& in : inputs_) {
      const atmx::CsrMatrix csr = atmx::CooToCsr(in.coo);
      std::vector<double> atmult;
      for (int rep = 0; rep < 3; ++rep) {
        Span span("op", "Multiply");
        const ATMatrix c = op_.Multiply(in.atm, in.atm);
        atmult.push_back(span.Stop());
      }
      std::sort(atmult.begin(), atmult.end());
      double spspsp = 0.0;
      {
        Span span("baseline", "spspsp");
        const atmx::CsrMatrix c = atmx::SpGemmCsr(csr, csr);
        spspsp = span.Stop();
      }
      char spspd[2][32] = {"skipped", "skipped"};
      const double dense_bytes = 8.0 * static_cast<double>(csr.rows()) *
                                 static_cast<double>(csr.cols());
      if (dense_bytes <= kMaxDenseBytes) {
        Span span("baseline", "spspd");
        const atmx::DenseMatrix c = atmx::SpGemmDense(csr, csr);
        const double seconds = span.Stop();
        std::snprintf(spspd[0], sizeof(spspd[0]), "%.6f", seconds);
        std::snprintf(spspd[1], sizeof(spspd[1]), "%.3f", seconds / atmult[1]);
      }
      std::printf("reference: %-4s %12.6f %12.6f %12s %14.3f %14s\n",
                  in.id.c_str(), atmult[1], spspsp, spspd[0],
                  spspsp / atmult[1], spspd[1]);
    }
    return true;
  }

 private:
  struct Input {
    std::string id;
    CooMatrix coo;
    RefCsr ref;  // A, whose square the check recomputes row by row
    double flops = 0.0;
    ATMatrix atm;
  };

  const Pinned& pinned_;
  const std::vector<std::string> ids_;
  const AtMult op_;
  std::vector<Input> inputs_;
};

// ---------------------------------------------------------------------------
// chain_budget: fused A * (A * X) under the tightest feasible budget.

class ChainWorkload : public Workload {
 public:
  explicit ChainWorkload(const Pinned& pinned)
      : pinned_(pinned), config_(pinned.config) {}

  void Generate(std::uint64_t seed) override {
    a_coo_ = atmx::MakeWorkloadMatrix(kChainMatrix, kScale, seed);
    const atmx::index_t n = a_coo_.cols();
    x_coo_ = CooMatrix(n, kPanelCols);
    x_coo_.Reserve(static_cast<std::size_t>(n * kPanelCols));
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 17);
    std::uniform_real_distribution<double> value(0.5, 1.5);
    for (atmx::index_t i = 0; i < n; ++i) {
      for (atmx::index_t j = 0; j < kPanelCols; ++j) x_coo_.Add(i, j, value(rng));
    }
    ref_a_ = RefFromCoo(a_coo_);
    const RefCsr x = RefFromCoo(x_coo_);
    ref_ax_ = RefMultiply(ref_a_, x, kRefThreads);
    flops_ = RefFlops(ref_a_, x) + RefFlops(ref_a_, ref_ax_);
  }

  double Setup(Layers* layers) override {
    return Partition(a_coo_, pinned_.config, &a_, layers) +
           Partition(x_coo_, pinned_.config, &x_, layers);
  }

  // Picks the budget: the memory-minimal projected peak, read from a run
  // under a budget nothing can meet. At that budget the chain still runs
  // fused and feasible, admission control has no slack, and the water
  // level raises write thresholds above rho_write wherever a sparse block
  // saves memory. Then builds the product-at-a-time result the fused one
  // must equal bitwise.
  bool Prepare() override {
    atmx::AtmConfig config = pinned_.config;
    config.result_mem_limit_bytes = 1;
    ChainExecStats infeasible;
    Execute(config, &infeasible);
    // +1: the reported peak is truncated to whole bytes.
    config.result_mem_limit_bytes = infeasible.projected_peak_bytes + 1;
    ChainExecStats stats;
    Execute(config, &stats);
    double rho_w = 0.0;
    for (const AtMultStats& p : stats.per_product) {
      rho_w = std::max(rho_w, p.effective_write_threshold);
    }
    std::printf("chain: budget %.3f MB, fused %d, feasible %d, max rho_w %g\n",
                Mb(static_cast<double>(config.result_mem_limit_bytes)),
                stats.fused, stats.budget_feasible, rho_w);
    if (!stats.fused || !stats.budget_feasible) return false;
    budget_ = config.result_mem_limit_bytes;
    config_ = config;
    atmx::AtmConfig unfused = config_;
    unfused.fused_chains = false;
    ChainExecStats unfused_stats;
    unfused_ = Execute(unfused, &unfused_stats);
    const CheckResult check =
        CheckProduct(unfused_, ref_a_, ref_ax_, kRefThreads);
    if (!check.ok) {
      std::fprintf(stderr, "chain: product-at-a-time result: %lld mismatches\n",
                   (long long)check.mismatches);
    }
    return check.ok && !unfused_stats.fused;
  }

  void RunPass(bool probe, PassResult* pass) override {
    Tracer::Get().NewOp();
    if (probe) {
      const DensityMap ax =
          Probe(a_.density_map(), x_.density_map(), pinned_, budget_);
      pass->layers["estimate.expected_nnz"] +=
          Probe(a_.density_map(), ax, pinned_, budget_).ExpectedNnz();
    }
    ChainExecStats stats;
    ATMatrix c;
    double wall = 0.0, plan_seconds = 0.0, exec_seconds = 0.0;
    {
      Span span("op", "chain");
      MaybeInject(pinned_, a_, x_);
      c = Execute(config_, &stats, &plan_seconds, &exec_seconds);
      wall = span.Stop();
    }
    pass->op_seconds.push_back(wall);
    Layers& l = pass->layers;
    l["op.wall_s"] += wall;
    l["chain.plan_s"] += plan_seconds;
    l["chain.fused_tasks"] += static_cast<double>(stats.fused_tasks);
    l["chain.fused"] = stats.fused ? 1.0 : 0.0;
    l["chain.resident_peak_mb"] +=
        Mb(static_cast<double>(stats.resident_peak_bytes));
    l["chain.projected_peak_mb"] +=
        Mb(static_cast<double>(stats.projected_peak_bytes));
    l["chain.budget_mb"] += Mb(static_cast<double>(stats.budget_bytes));
    RecordProduct(stats.total, exec_seconds, !stats.fused, flops_,
                  2.0 * static_cast<double>(a_.MemoryBytes()) +
                      static_cast<double>(x_.MemoryBytes()),
                  c, pass);
    // The total carries the smallest threshold; the budget shows in the
    // largest.
    for (const AtMultStats& p : stats.per_product) {
      l["waterlevel.rho_w"] =
          std::max(l["waterlevel.rho_w"], p.effective_write_threshold);
    }
    pass->decisions.push_back(stats.fused ? 1 : 0);
    pass->decisions.push_back(stats.fused_tasks);

    Span span("check", "check");
    pass->attempted++;
    if (!stats.fused || !BitwiseEqual(c, unfused_)) {
      pass->failed++;
      std::fprintf(stderr, "check: fused chain differs from product-at-a-time\n");
    }
    pass->checksum += Checksum(c);
  }

 private:
  ATMatrix Execute(const atmx::AtmConfig& config, ChainExecStats* stats,
                   double* plan_seconds = nullptr,
                   double* exec_seconds = nullptr) const {
    const std::vector<const ATMatrix*> chain = {&a_, &a_, &x_};
    const std::vector<const DensityMap*> maps = {
        &a_.density_map(), &a_.density_map(), &x_.density_map()};
    atmx::ChainCostOptions options;
    options.fused = config.fused_chains;
    options.result_mem_limit_bytes = config.result_mem_limit_bytes;
    ChainPlan plan;
    {
      Span span("chain", "PlanChain");
      plan = atmx::PlanChain(maps, pinned_.cost_model, config.rho_write,
                             options);
      if (plan_seconds != nullptr) *plan_seconds = span.Stop();
    }
    const AtMult op(config, pinned_.cost_model);
    Span span("op", "ExecuteChain");
    ATMatrix c = atmx::ExecuteChain(chain, plan, op, stats);
    if (exec_seconds != nullptr) *exec_seconds = span.Stop();
    return c;
  }

  const Pinned& pinned_;
  atmx::AtmConfig config_;
  CooMatrix a_coo_, x_coo_;
  RefCsr ref_a_, ref_ax_;  // A and A * X, the check's operands
  double flops_ = 0.0;
  ATMatrix a_, x_, unfused_;
  std::size_t budget_ = 0;
};

// ---------------------------------------------------------------------------
// bfs_frontier: multi-source BFS, one PartitionToAtm + Multiply per level.

class BfsWorkload : public Workload {
 public:
  explicit BfsWorkload(const Pinned& pinned)
      : pinned_(pinned), op_(pinned.config, pinned.cost_model) {}

  void Generate(std::uint64_t seed) override {
    atmx::RmatParams params;
    params.rows = params.cols = kBfsNodes;
    params.nnz = kBfsNodes * 8;
    params.a = 0.57;
    params.b = 0.19;
    params.c = 0.19;
    params.seed = seed;
    adj_coo_ = atmx::GenerateRmat(params);
    const RefCsr adj = RefFromCoo(adj_coo_);
    out_degree_.resize(static_cast<std::size_t>(kBfsNodes));
    for (atmx::index_t u = 0; u < kBfsNodes; ++u) {
      out_degree_[static_cast<std::size_t>(u)] =
          static_cast<double>(adj.row_ptr[u + 1] - adj.row_ptr[u]);
    }
    // Distinct roots with at least one out-edge.
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 29);
    std::vector<char> taken(static_cast<std::size_t>(kBfsNodes), 0);
    batches_.resize(static_cast<std::size_t>(kBfsBatches));
    for (Batch& batch : batches_) {
      while (static_cast<atmx::index_t>(batch.sources.size()) < kBfsSources) {
        const atmx::index_t v = static_cast<atmx::index_t>(
            rng() % static_cast<std::uint64_t>(kBfsNodes));
        if (taken[v] || out_degree_[v] == 0.0) continue;
        taken[v] = 1;
        batch.sources.push_back(v);
      }
      batch.discoveries = RefBfsDiscoveries(adj, batch.sources);
    }
  }

  double Setup(Layers* layers) override {
    return Partition(adj_coo_, pinned_.config, &adj_, layers);
  }

  void RunPass(bool probe, PassResult* pass) override {
    for (const Batch& batch : batches_) Search(batch, probe, pass);
  }

 private:
  // Roots searched together (one frontier row each) and the queue BFS's
  // discoveries per level.
  struct Batch {
    std::vector<atmx::index_t> sources;
    std::vector<atmx::index_t> discoveries;
  };

  void Search(const Batch& batch, bool probe, PassResult* pass) {
    const atmx::index_t n = kBfsNodes;
    std::vector<char> visited(static_cast<std::size_t>(kBfsSources * n), 0);
    CooMatrix frontier(kBfsSources, n);
    for (atmx::index_t s = 0; s < kBfsSources; ++s) {
      const atmx::index_t root = batch.sources[static_cast<std::size_t>(s)];
      frontier.Add(s, root, 1.0);
      visited[static_cast<std::size_t>(s * n + root)] = 1;
    }
    Layers& l = pass->layers;
    for (std::size_t level = 0;; ++level) {
      double flops = 0.0;
      for (const atmx::CooEntry& e : frontier.entries()) {
        flops += out_degree_[static_cast<std::size_t>(e.col)];
      }
      ATMatrix f;
      ATMatrix c;
      AtMultStats stats;
      double wall = 0.0, multiply_seconds = 0.0;
      Tracer::Get().NewOp();
      {
        Span span("op", "level");
        Partition(frontier, pinned_.config, &f, &l);
        if (probe) {
          l["estimate.expected_nnz"] +=
              Probe(f.density_map(), adj_.density_map(), pinned_,
                    pinned_.config.result_mem_limit_bytes)
                  .ExpectedNnz();
        }
        MaybeInject(pinned_, f, adj_);
        Span multiply("op", "Multiply");
        c = op_.Multiply(f, adj_, &stats);
        multiply_seconds = multiply.Stop();
        wall = span.Stop();
      }
      pass->op_seconds.push_back(wall);
      l["op.wall_s"] += wall;
      RecordProduct(stats, multiply_seconds, true, flops,
                    static_cast<double>(f.MemoryBytes() + adj_.MemoryBytes()),
                    c, pass);

      // Check: the next frontier is every reached, unvisited node; its size
      // must equal the queue BFS's discoveries at this level.
      Span span("check", "check");
      CooMatrix next(kBfsSources, n);
      ForEachStored(c, [&](atmx::index_t s, atmx::index_t v, double value) {
        char& seen = visited[static_cast<std::size_t>(s * n + v)];
        if (value != 0.0 && !seen) {
          seen = 1;
          next.Add(s, v, 1.0);
        }
      });
      const atmx::index_t expected =
          level < batch.discoveries.size() ? batch.discoveries[level] : 0;
      pass->attempted++;
      if (next.nnz() != expected) {
        pass->failed++;
        std::fprintf(stderr, "check: level %zu discovered %lld, expected %lld\n",
                     level + 1, (long long)next.nnz(), (long long)expected);
      }
      pass->checksum += Checksum(c);
      if (next.nnz() == 0) break;
      frontier = std::move(next);
    }
  }

  const Pinned& pinned_;
  const AtMult op_;
  CooMatrix adj_coo_;
  std::vector<double> out_degree_;
  std::vector<Batch> batches_;
  ATMatrix adj_;
};

}  // namespace

Pinned Pinned::Default() {
  Pinned pinned;
  // 2 teams x 2 threads: each team's own scheduling thread works as its
  // thread 0, so this is 2 scheduling threads plus 2 workers, one per core
  // of a 4-core host. LLC as the repository's benches default to (1 MiB).
  pinned.config.num_sockets = 2;
  pinned.config.cores_per_socket = 2;
  pinned.config.llc_bytes = 1 << 20;
  return pinned;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "spgemm_dense", "spgemm_hypersparse", "chain_budget", "bfs_frontier"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Pinned& pinned) {
  // Three matrices per pass: call latencies cluster per matrix, and with
  // an odd count op_ms.p50 falls inside one cluster instead of on the
  // edge between two. spgemm_dense leaves out R2, whose generator (the
  // scale-free gene-correlation surrogate) R4 already covers.
  if (name == "spgemm_dense") {
    return std::make_unique<SpgemmWorkload>(
        pinned, std::vector<std::string>{"R1", "R3", "R4"});
  }
  if (name == "spgemm_hypersparse") {
    return std::make_unique<SpgemmWorkload>(
        pinned, std::vector<std::string>{"R7", "R8", "R9"});
  }
  if (name == "chain_budget") return std::make_unique<ChainWorkload>(pinned);
  if (name == "bfs_frontier") return std::make_unique<BfsWorkload>(pinned);
  return nullptr;
}

}  // namespace perfbench
