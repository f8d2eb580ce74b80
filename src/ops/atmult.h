// ATMULT (section III, Alg. 2): the tile-granular matrix multiplication
// operator C = A * B over AT MATRICES.
//
// Pipeline per operation:
//   1. estimate the result density map (probability propagation, III-D),
//   2. derive the effective write threshold rhoD_W via the water-level
//      method under the configured memory limit (III-E),
//   3. form (tile-row of A) x (tile-col of B) pairs; each pair is one task
//      producing one C tile, scheduled on the worker team of the tile-row's
//      home NUMA node (III-F),
//   4. per matching tile pair, compute the reference windows (III-B), let
//      the dynamic optimizer pick representations / trigger JIT conversions
//      (III-C), and run the corresponding kernel (III-A).
// Steps 3-4 run as a one-node product graph (ops/chain_exec.h), the same
// pipeline a fused chain runs once per product.

#ifndef ATMX_OPS_ATMULT_H_
#define ATMX_OPS_ATMULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "cost/cost_model.h"
#include "kernels/kernel_common.h"
#include "tile/at_matrix.h"

namespace atmx {

// Timing breakdown and counters of one ATMULT operation (the quantities
// behind Figs. 8b, 9c, 9d of the paper).
struct AtMultStats {
  double estimate_seconds = 0.0;
  double optimize_seconds = 0.0;  // decisions + JIT conversions
  double multiply_seconds = 0.0;  // kernel execution
  double total_seconds = 0.0;

  double effective_write_threshold = 0.0;
  index_t pair_multiplications = 0;
  index_t sparse_to_dense_conversions = 0;
  index_t dense_to_sparse_conversions = 0;
  index_t dense_result_tiles = 0;
  index_t sparse_result_tiles = 0;
  // Result tiles planned dense but stored as CSR because their realized
  // density fell below rho0_W at close; a subset of sparse_result_tiles.
  index_t compressed_result_tiles = 0;

  // Executed tile-pair multiplications by kernel variant, indexed by
  // static_cast<int>(KernelType). Every pair is counted exactly once in
  // the variant it actually ran in (after JIT conversions), so the sum
  // over all variants equals pair_multiplications. When the observability
  // layer is built in (ATMX_OBS), the same counts feed the process-wide
  // `atmult.kernel.<variant>.invocations` registry counters — this struct
  // is the single source of truth for one operation, the registry the
  // accumulation across operations.
  index_t kernel_invocations[kNumKernelTypes] = {};

  index_t TotalKernelInvocations() const {
    index_t total = 0;
    for (index_t count : kernel_invocations) total += count;
    return total;
  }

  // Work-stealing scheduler outcome (see docs/SCHEDULER.md): tasks that
  // ran off their home team and the per-team task execution time. Zero /
  // uniform when `AtmConfig::work_stealing` is off or queues stay level.
  // busy is wall time inside tasks; cpu is the driver thread's CPU time,
  // which stays meaningful when more teams than cores timeshare the host.
  index_t tasks_stolen = 0;
  std::vector<double> team_busy_seconds;
  std::vector<double> team_cpu_seconds;

  // Largest per-team busy time — the makespan a topology-faithful machine
  // (one real socket per team) would observe for the multiply phase.
  double MaxTeamBusySeconds() const;
  // Same over CPU time: preferred on hosts with fewer cores than teams.
  double MaxTeamCpuSeconds() const;

  // NUMA locality accounting: operand, seed and result bytes each tile
  // task read or wrote, split by the executing team's node.
  std::uint64_t local_read_bytes = 0;
  std::uint64_t remote_read_bytes = 0;
  std::uint64_t local_write_bytes = 0;
  std::uint64_t remote_write_bytes = 0;

  // Fractions are computed against the summed phase times: multiply and
  // optimize accumulate per-task across worker teams (CPU-seconds), so
  // dividing by the wall-clock total would undercount under parallelism.
  double PhaseSeconds() const {
    return estimate_seconds + optimize_seconds + multiply_seconds;
  }
  double OptimizeFraction() const {
    const double phases = PhaseSeconds();
    return phases > 0 ? optimize_seconds / phases : 0.0;
  }
  double EstimateFraction() const {
    const double phases = PhaseSeconds();
    return phases > 0 ? estimate_seconds / phases : 0.0;
  }
  double LocalFraction() const;

  std::string ToString() const;
};

class AtMult {
 public:
  explicit AtMult(const AtmConfig& config,
                  const CostModel& cost_model = CostModel());

  const AtmConfig& config() const { return config_; }
  const CostModel& cost_model() const { return cost_model_; }

  // C = A * B. Both operands must share the atomic block size. Runs as a
  // one-node product graph (ops/chain_exec.h), each operand with its own
  // private JIT conversion cache.
  ATMatrix Multiply(const ATMatrix& a, const ATMatrix& b,
                    AtMultStats* stats = nullptr) const;

  // C' = C + A * B — the full operator signature of section III. The
  // accumulator C must have shape a.rows() x b.cols() and the same atomic
  // block size; its tiling may be arbitrary (it is re-tiled into the
  // result's band structure while accumulating).
  ATMatrix MultiplyAdd(const ATMatrix& c, const ATMatrix& a,
                       const ATMatrix& b, AtMultStats* stats = nullptr) const;

  // Convenience overloads for the plain operand types the paper's
  // operator accepts (CSR and dense arrays). The plain operand is
  // partitioned internally with this operator's configuration; prefer the
  // AT MATRIX overload when the operand is reused across multiplications
  // (partitioning then amortizes, cf. Fig. 7).
  ATMatrix Multiply(const CsrMatrix& a, const ATMatrix& b,
                    AtMultStats* stats = nullptr) const;
  ATMatrix Multiply(const ATMatrix& a, const CsrMatrix& b,
                    AtMultStats* stats = nullptr) const;
  ATMatrix Multiply(const DenseMatrix& a, const ATMatrix& b,
                    AtMultStats* stats = nullptr) const;
  ATMatrix Multiply(const ATMatrix& a, const DenseMatrix& b,
                    AtMultStats* stats = nullptr) const;

 private:
  ATMatrix MultiplyImpl(const ATMatrix* c_init, const ATMatrix& a,
                        const ATMatrix& b, AtMultStats* stats) const;

  AtmConfig config_;
  CostModel cost_model_;
};

}  // namespace atmx

#endif  // ATMX_OPS_ATMULT_H_
