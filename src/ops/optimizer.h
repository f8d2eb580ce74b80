// Dynamic multiplication optimizer (section III-C): per tile-pair it
// decides — via the cost model — which representation each operand window
// should be multiplied in, converting tiles just-in-time when that lowers
// the projected runtime. Conversions are cached for the remainder of the
// operation ("just-in-time partial data conversions").

#ifndef ATMX_OPS_OPTIMIZER_H_
#define ATMX_OPS_OPTIMIZER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "cost/cost_model.h"
#include "kernels/kernel_common.h"
#include "tile/tile.h"

namespace atmx {

// Which representations the pair multiplication should run with.
struct PairDecision {
  bool a_dense = false;
  bool b_dense = false;
  bool a_converted = false;  // decision differs from the stored kind
  bool b_converted = false;
  double projected_cost = 0.0;
  // Cost of running with the stored representations (no conversions); the
  // audit ledger reports projected_cost against this baseline.
  double stored_cost = 0.0;
};

// Chooses representations for one pair multiplication. `a_cached` /
// `b_cached` flag whether the *other* representation of the tile is already
// available (cached conversion => zero conversion cost in the comparison).
PairDecision DecidePairRepresentations(const CostModel& model,
                                       const MultiplyShape& shape,
                                       bool a_is_dense, bool b_is_dense,
                                       bool a_cached, bool b_cached,
                                       bool c_dense, bool allow_conversion);

// One per-pair representation decision, carrying every input
// DecidePairRepresentations consumed so the audit ledger's counterfactual
// pass can re-run it bit-for-bit with rho_c_actual in place of rho_c_pred.
// The pair planner (ops/product_task.h) builds one per contributing pair;
// execution runs the pair from it, EXPLAIN returns it, and the audit ledger
// stores it as its `repr` class, including runs without a density estimate
// or without dynamic conversion (the counterfactual pass replays only
// records that have both).
struct ReprAuditRecord {
  std::uint64_t op = 0;
  index_t ti = 0, tj = 0;    // C tile coordinates
  index_t k0 = 0, k1 = 0;    // contraction window of this pair
  index_t m = 0, k = 0, n = 0;
  double rho_a = 0.0, rho_b = 0.0;  // exact operand window densities
  double rho_c_pred = 0.0;   // estimated result-region density; < 0 = none
  double rho_c_actual = 0.0; // measured result-tile density; < 0 = unknown
  double rho_w = 0.0;
  bool a_stored_dense = false, b_stored_dense = false;
  bool a_cached = false, b_cached = false;  // JIT conversion cache hits
  bool allow_conversion = false;  // dynamic conversion was on
  bool c_dense = false;      // chosen C representation
  int kernel = 0;            // chosen KernelType
  double stored_cost = 0.0, chosen_cost = 0.0;

  // Chosen operand representations, decoded from `kernel` (false when
  // `kernel` is no KernelType).
  bool a_dense() const;
  bool b_dense() const;
  // A fresh JIT conversion of the operand: the chosen representation
  // differs from the stored one and no cached conversion served it.
  bool a_converted() const;
  bool b_converted() const;

  friend bool operator==(const ReprAuditRecord&,
                         const ReprAuditRecord&) = default;
};

// Thread-safe cache of the converted tile payloads of one operand matrix,
// keyed by tile index. Standalone ATMULT gives each operand its own cache
// for one operation; the chain executor keeps one per source matrix for the
// whole chain.
class ConversionCache {
 public:
  ConversionCache() = default;
  // Releases the cache's contribution to the allocation tracker (the
  // converted payloads themselves die with the maps).
  ~ConversionCache();
  ConversionCache(const ConversionCache&) = delete;
  ConversionCache& operator=(const ConversionCache&) = delete;

  // Dense payload of `tile` (converting and caching on first use).
  const DenseMatrix& GetDense(index_t tile_idx, const Tile& tile);

  // Sparse payload of `tile`, analogous.
  const CsrMatrix& GetSparse(index_t tile_idx, const Tile& tile);

  bool HasDense(index_t tile_idx) const;
  bool HasSparse(index_t tile_idx) const;

  // Conversion counts so far. Locked: tasks on other teams may still be
  // converting while a caller polls (the pre-annotation accessors read the
  // guarded counters unlocked, a defect the thread-safety migration
  // surfaced — see ConversionCacheTest.ConversionCountersAreLockProtected).
  index_t sparse_to_dense_count() const {
    MutexLock lock(mutex_);
    return sparse_to_dense_count_;
  }
  index_t dense_to_sparse_count() const {
    MutexLock lock(mutex_);
    return dense_to_sparse_count_;
  }

  // Bytes of converted payloads currently held by the cache.
  std::uint64_t cached_bytes() const {
    MutexLock lock(mutex_);
    return cached_bytes_;
  }

 private:
  mutable Mutex mutex_;
  std::unordered_map<index_t, std::unique_ptr<DenseMatrix>> dense_
      ATMX_GUARDED_BY(mutex_);
  std::unordered_map<index_t, std::unique_ptr<CsrMatrix>> sparse_
      ATMX_GUARDED_BY(mutex_);
  index_t sparse_to_dense_count_ ATMX_GUARDED_BY(mutex_) = 0;
  index_t dense_to_sparse_count_ ATMX_GUARDED_BY(mutex_) = 0;
  std::uint64_t cached_bytes_ ATMX_GUARDED_BY(mutex_) = 0;
};

}  // namespace atmx

#endif  // ATMX_OPS_OPTIMIZER_H_
