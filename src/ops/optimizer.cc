#include "ops/optimizer.h"

#include "obs/obs.h"
#include "storage/convert.h"

namespace atmx {

PairDecision DecidePairRepresentations(const CostModel& model,
                                       const MultiplyShape& shape,
                                       bool a_is_dense, bool b_is_dense,
                                       bool a_cached, bool b_cached,
                                       bool c_dense, bool allow_conversion) {
  PairDecision best;
  best.a_dense = a_is_dense;
  best.b_dense = b_is_dense;
  best.projected_cost = model.ComputeCost(
      MakeKernelType(a_is_dense, b_is_dense, c_dense), shape);
  best.stored_cost = best.projected_cost;
  if (!allow_conversion) return best;

  for (int a_choice = 0; a_choice < 2; ++a_choice) {
    for (int b_choice = 0; b_choice < 2; ++b_choice) {
      const bool a_dense = a_choice == 1;
      const bool b_dense = b_choice == 1;
      if (a_dense == a_is_dense && b_dense == b_is_dense) continue;
      double cost = model.ComputeCost(
          MakeKernelType(a_dense, b_dense, c_dense), shape);
      // Conversion is charged on the *whole tile* the window belongs to
      // but reused across pairs once cached; the shape's m/k/n describe
      // the window, which is the lower bound of the converted area — the
      // cautious choice: we only convert when even the window-local
      // benefit pays for it.
      if (a_dense != a_is_dense && !a_cached) {
        cost += model.ConversionCost(a_dense, shape.m, shape.k, shape.rho_a);
      }
      if (b_dense != b_is_dense && !b_cached) {
        cost += model.ConversionCost(b_dense, shape.k, shape.n, shape.rho_b);
      }
      if (cost < best.projected_cost) {
        best.projected_cost = cost;
        best.a_dense = a_dense;
        best.b_dense = b_dense;
      }
    }
  }
  best.a_converted = best.a_dense != a_is_dense;
  best.b_converted = best.b_dense != b_is_dense;
  return best;
}

namespace {

bool IsKernelType(int kernel) {
  return kernel >= 0 && kernel < kNumKernelTypes;
}

}  // namespace

bool ReprAuditRecord::a_dense() const {
  const auto k = static_cast<KernelType>(kernel);
  return k == KernelType::kDDD || k == KernelType::kDSD ||
         k == KernelType::kDDS || k == KernelType::kDSS;
}

bool ReprAuditRecord::b_dense() const {
  const auto k = static_cast<KernelType>(kernel);
  return k == KernelType::kDDD || k == KernelType::kSDD ||
         k == KernelType::kDDS || k == KernelType::kSDS;
}

bool ReprAuditRecord::a_converted() const {
  return IsKernelType(kernel) && a_dense() != a_stored_dense && !a_cached;
}

bool ReprAuditRecord::b_converted() const {
  return IsKernelType(kernel) && b_dense() != b_stored_dense && !b_cached;
}

ConversionCache::~ConversionCache() {
#if defined(ATMX_OBS_ENABLED)
  std::uint64_t bytes;
  {
    MutexLock lock(mutex_);
    bytes = cached_bytes_;
  }
  obs::MemTracker::Global().RecordFree(bytes);
#endif
}

const DenseMatrix& ConversionCache::GetDense(index_t tile_idx,
                                             const Tile& tile) {
  ATMX_CHECK(!tile.is_dense());
  MutexLock lock(mutex_);
  auto it = dense_.find(tile_idx);
  if (it == dense_.end()) {
    ATMX_TRACE_SPAN_ARGS("convert", "sparse_to_dense",
                         {"rows", tile.sparse().rows()},
                         {"cols", tile.sparse().cols()},
                         {"nnz", tile.sparse().nnz()});
    auto converted = std::make_unique<DenseMatrix>(CsrToDense(tile.sparse()));
    ++sparse_to_dense_count_;
    ATMX_COUNTER_INC("atmult.conversions.sparse_to_dense");
#if defined(ATMX_OBS_ENABLED)
    {
      const std::uint64_t bytes = converted->MemoryBytes();
      cached_bytes_ += bytes;
      obs::MemTracker::Global().RecordAlloc(bytes);
    }
#endif
    it = dense_.emplace(tile_idx, std::move(converted)).first;
  }
  return *it->second;
}

const CsrMatrix& ConversionCache::GetSparse(index_t tile_idx,
                                            const Tile& tile) {
  ATMX_CHECK(tile.is_dense());
  MutexLock lock(mutex_);
  auto it = sparse_.find(tile_idx);
  if (it == sparse_.end()) {
    ATMX_TRACE_SPAN_ARGS("convert", "dense_to_sparse",
                         {"rows", tile.dense().rows()},
                         {"cols", tile.dense().cols()});
    auto converted = std::make_unique<CsrMatrix>(DenseToCsr(tile.dense()));
    ++dense_to_sparse_count_;
    ATMX_COUNTER_INC("atmult.conversions.dense_to_sparse");
#if defined(ATMX_OBS_ENABLED)
    {
      const std::uint64_t bytes = converted->MemoryBytes();
      cached_bytes_ += bytes;
      obs::MemTracker::Global().RecordAlloc(bytes);
    }
#endif
    it = sparse_.emplace(tile_idx, std::move(converted)).first;
  }
  return *it->second;
}

bool ConversionCache::HasDense(index_t tile_idx) const {
  MutexLock lock(mutex_);
  return dense_.count(tile_idx) > 0;
}

bool ConversionCache::HasSparse(index_t tile_idx) const {
  MutexLock lock(mutex_);
  return sparse_.count(tile_idx) > 0;
}

}  // namespace atmx
