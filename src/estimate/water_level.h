// Water-level method (section III-E, Fig. 5): given the estimated density
// map of the result matrix and a flexible memory limit, find the write
// density threshold rhoD_W such that storing all blocks with estimated
// density >= rhoD_W as dense (and the rest sparse) stays within the limit.
//
// Imagined as a water level over the 2D block-density histogram that is
// lowered from the top: the densest blocks surface first (most promising to
// store dense); lowering stops when the accumulated memory hits the limit.

#ifndef ATMX_ESTIMATE_WATER_LEVEL_H_
#define ATMX_ESTIMATE_WATER_LEVEL_H_

#include <cstddef>
#include <vector>

#include "estimate/density_map.h"

namespace atmx {

// Effective write threshold for the ATMULT operator: the performance-optimal
// rho0_W, raised if necessary so the projected result memory meets the
// limit. Returns rho0_W when EstimateMemoryBytes at rho0_W fits; otherwise
// the one-product SolveChainWaterLevel solve, so a single product and a
// chain share one solver. `*feasible` (when non-null) is set to false when
// even the memory-minimal layout misses the limit and the returned
// threshold is the clamped floor.
//
// Note: Alg. 2 line 3 of the paper prints `min`; complying with the memory
// SLA requires *raising* the threshold above rho0_W when the limit binds
// (fewer dense blocks => less memory for rho < 0.5), so this implements the
// max semantics the surrounding text describes ("sacrifice performance in
// favor of a lower memory consumption").
double EffectiveWriteThreshold(const DensityMap& estimate, double rho_write,
                               std::size_t mem_limit_bytes,
                               bool* feasible = nullptr);

// Chain-scope water level: one shared memory budget for a whole product
// chain instead of a per-product limit. Product i (post-order id) is
// resident from its production step i through the step of its last
// consumer (`last_consumer[i]`; the root, which outlives the chain, uses
// the final step). The solver picks one write threshold per product so
// that at every step the summed footprint of the resident products stays
// within the budget.
struct ChainWaterLevelResult {
  // Per-product write thresholds, indexed by post-order product id. Never
  // below rho_write: the performance-optimal level is only ever raised to
  // meet the budget (the max semantics noted at EffectiveWriteThreshold).
  std::vector<double> thresholds;
  // Projected resident-set peak at the committed thresholds, and the
  // production step where it occurs.
  std::size_t projected_peak_bytes = 0;
  int peak_step = 0;
  // False when no assignment of thresholds keeps the peak within the
  // budget; thresholds are then clamped to the memory-minimal level (the
  // lowest block density >= 0.5, "above all bars" when there is none,
  // never below rho_write) and the `waterlevel.infeasible` counter is
  // bumped. Callers decide whether to accept the SLA miss or fall back to
  // unfused execution.
  bool feasible = true;
};

ChainWaterLevelResult SolveChainWaterLevel(
    const std::vector<const DensityMap*>& products,
    const std::vector<int>& last_consumer, double rho_write,
    std::size_t budget_bytes);

}  // namespace atmx

#endif  // ATMX_ESTIMATE_WATER_LEVEL_H_
