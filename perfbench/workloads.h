// The benchmark's four closed-loop workloads. One caller issues each call
// only after the previous one returned; the library sees only the inputs
// generated here from the workload seed.

#ifndef ATMX_PERFBENCH_WORKLOADS_H_
#define ATMX_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "cost/cost_model.h"

namespace perfbench {

// Per-layer values of one set-up or one pass, keyed by metric name.
using Layers = std::map<std::string, double>;

// Decisions and layer totals of one pass over a workload's call list.
struct PassResult {
  std::vector<double> op_seconds;  // wall time of every call
  double result_bytes = 0.0;       // bytes of every result the pass produced
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  // Decision counts of every call in call order: pairs, conversions and
  // dense/sparse result tiles, which must repeat exactly in every pass.
  std::vector<std::int64_t> decisions;
  // Kernel invocations per variant of every call. Reported, not required
  // to repeat: with two teams, whether a pair finds its operand tile
  // already converted by the other team changes the pair's kernel.
  std::vector<std::int64_t> kernel_split;
  std::uint64_t checksum = 0;  // sum of the results' checksums
  Layers layers;
};

// Fixed decisions every workload runs under: the cost model's default
// constants (never calibrated per run) and 2 teams x 2 threads.
struct Pinned {
  atmx::AtmConfig config;
  atmx::CostModel cost_model;
  // Benchmark-side delay for the negative control: the layer whose call
  // is repeated ("estimate" or empty) and how many extra times.
  std::string inject_layer;
  int inject_repeats = 0;

  static Pinned Default();
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Generates the inputs from `seed` and builds the references the calls
  // are checked against. Not part of the set-up time.
  virtual void Generate(std::uint64_t seed) = 0;
  // Partitions every operand from COO; returns the partitioning wall
  // seconds (the set-up time) and adds the tile.* layers.
  virtual double Setup(Layers* layers) = 0;
  // One-time preparation after set-up that a caller would also do once
  // (e.g. choosing a memory budget). Returns false if a check failed.
  virtual bool Prepare() { return true; }
  // One pass over the call list, checking every call. With `probe` set,
  // each product is preceded by the benchmark's own EstimateProductDensity
  // and EffectiveWriteThreshold calls, which yield estimate.nnz_ratio; a
  // probe pass is never timed.
  virtual void RunPass(bool probe, PassResult* pass) = 0;
  // Un-gated paper baselines (Fig. 8a ratios); false if the workload has
  // none.
  virtual bool RunBaselines() { return false; }
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Pinned& pinned);

// Names of every workload, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

}  // namespace perfbench

#endif  // ATMX_PERFBENCH_WORKLOADS_H_
