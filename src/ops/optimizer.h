// Dynamic multiplication optimizer (section III-C): per tile-pair it
// decides — via the cost model — which representation each operand window
// should be multiplied in, converting tiles just-in-time when that lowers
// the projected runtime. Conversions are cached for the remainder of the
// operation ("just-in-time partial data conversions").

#ifndef ATMX_OPS_OPTIMIZER_H_
#define ATMX_OPS_OPTIMIZER_H_

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
