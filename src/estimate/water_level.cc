#include "estimate/water_level.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <vector>

#include "estimate/density_estimator.h"
#include "obs/obs.h"

namespace atmx {

double EffectiveWriteThreshold(const DensityMap& estimate, double rho_write,
                               std::size_t mem_limit_bytes, bool* feasible) {
  if (feasible != nullptr) *feasible = true;
  // Fast path: unlimited memory keeps the performance-optimal threshold.
  if (EstimateMemoryBytes(estimate, rho_write) <= mem_limit_bytes) {
    return rho_write;
  }
  const ChainWaterLevelResult wl =
      SolveChainWaterLevel({&estimate}, {-1}, rho_write, mem_limit_bytes);
  if (feasible != nullptr) *feasible = wl.feasible;
  return wl.thresholds[0];
}

namespace {

// The level above every block density: everything stored sparse.
constexpr double kAboveAllBars = 1.0 + 1e-12;

// Per-product density histogram with the bars sorted descending and prefix
// sums, so the projected bytes at a threshold resolve in O(log bars). The
// arithmetic mirrors EstimateMemoryBytes (8 B/elem dense where rho >= t,
// 16 B/elem * rho sparse below), but the solver's own sums are
// authoritative for feasibility: prefix sums accumulate in density order
// while EstimateMemoryBytes accumulates in block order, and the two can
// drift by rounding.
struct ProductBars {
  std::vector<double> density;       // descending
  std::vector<double> dense_area;    // prefix: sum of area over bars [0, j)
  std::vector<double> sparse_bytes;  // prefix: sum of rho*area*16 over [0, j)

  explicit ProductBars(const DensityMap& map) {
    struct Bar {
      double density;
      double area;
    };
    std::vector<Bar> bars;
    bars.reserve(static_cast<std::size_t>(map.grid_rows()) *
                 static_cast<std::size_t>(map.grid_cols()));
    for (index_t bi = 0; bi < map.grid_rows(); ++bi) {
      for (index_t bj = 0; bj < map.grid_cols(); ++bj) {
        bars.push_back({map.At(bi, bj),
                        static_cast<double>(map.BlockArea(bi, bj))});
      }
    }
    std::sort(bars.begin(), bars.end(), [](const Bar& a, const Bar& b) {
      return a.density > b.density;
    });
    density.reserve(bars.size());
    dense_area.assign(1, 0.0);
    sparse_bytes.assign(1, 0.0);
    for (const Bar& b : bars) {
      density.push_back(b.density);
      dense_area.push_back(dense_area.back() + b.area);
      sparse_bytes.push_back(sparse_bytes.back() +
                             b.density * b.area * kSparseElemBytes);
    }
  }

  // Number of bars at or above level t: the blocks stored dense.
  std::size_t DenseCount(double t) const {
    const auto it = std::lower_bound(
        density.begin(), density.end(), t,
        [](double bar, double level) { return bar >= level; });
    return static_cast<std::size_t>(it - density.begin());
  }

  // Projected bytes with blocks of density >= t stored dense.
  double BytesAt(double t) const {
    const std::size_t k = DenseCount(t);
    return dense_area[k] * kDenseElemBytes +
           (sparse_bytes.back() - sparse_bytes[k]);
  }

  // The memory-minimal level: dense exactly where rho >= 0.5, since a
  // dense block (8 B/elem) is no larger than a sparse one (16 B/elem * rho)
  // there and strictly larger below. "Above all bars" when no block
  // reaches 0.5.
  double MemoryMinimalLevel() const {
    const std::size_t k = DenseCount(0.5);
    return k == 0 ? kAboveAllBars : density[k - 1];
  }
};

}  // namespace

ChainWaterLevelResult SolveChainWaterLevel(
    const std::vector<const DensityMap*>& products,
    const std::vector<int>& last_consumer, double rho_write,
    std::size_t budget_bytes) {
  const std::size_t n = products.size();
  ChainWaterLevelResult result;
  result.thresholds.assign(n, rho_write);
  if (n == 0) return result;

  std::vector<ProductBars> bars;
  bars.reserve(n);
  for (const DensityMap* map : products) bars.emplace_back(*map);

  // Product i is resident from its production step i through the step of
  // its last consumer; the root (negative last_consumer) outlives the
  // chain and stays resident through the final step.
  std::vector<std::vector<std::size_t>> live(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t last = n - 1;
    if (i < last_consumer.size() && last_consumer[i] >= 0) {
      last = std::min(n - 1, static_cast<std::size_t>(last_consumer[i]));
    }
    for (std::size_t p = i; p <= last; ++p) live[p].push_back(i);
  }

  // Candidate levels: the performance-optimal floor, every distinct block
  // density above it (the threshold comparison is `>=`, so only block
  // densities change the projection), and "above all bars" (everything
  // sparse). Ascending, so a scan commits the lowest workable level. Each
  // product's bars are already sorted, so the levels merge in.
  std::vector<double> candidates{rho_write};
  for (const ProductBars& pb : bars) {
    const auto merged = static_cast<std::ptrdiff_t>(candidates.size());
    std::copy_if(pb.density.rbegin(), pb.density.rend(),
                 std::back_inserter(candidates),
                 [rho_write](double d) { return d > rho_write; });
    std::inplace_merge(candidates.begin(), candidates.begin() + merged,
                       candidates.end());
  }
  candidates.push_back(kAboveAllBars);
  std::inplace_merge(candidates.begin(), candidates.end() - 1,
                     candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  // lvl[i] indexes product i's level in `candidates`; bytes[i] is its
  // projected footprint there, priced only when a scan reaches the level.
  std::vector<std::size_t> lvl(n, 0);
  std::vector<double> bytes(n);
  const auto set_level = [&](std::size_t i, std::size_t c) {
    lvl[i] = c;
    bytes[i] = bars[i].BytesAt(candidates[c]);
  };
  // Peak over steps of the resident-set footprint at the current levels.
  const auto peak_of = [&](int* step) {
    double peak = 0.0;
    int peak_step = 0;
    for (std::size_t p = 0; p < n; ++p) {
      double sum = 0.0;
      for (std::size_t i : live[p]) sum += bytes[i];
      if (sum > peak) {
        peak = sum;
        peak_step = static_cast<int>(p);
      }
    }
    if (step != nullptr) *step = peak_step;
    return peak;
  };
  const double budget = static_cast<double>(budget_bytes);

  // Fast path: the performance-optimal level everywhere already fits.
  for (std::size_t i = 0; i < n; ++i) set_level(i, 0);
  double peak = peak_of(&result.peak_step);
  if (peak <= budget) {
    result.projected_peak_bytes = static_cast<std::size_t>(peak);
    return result;
  }

  // The peak is separable: each product's bytes enter every step it is
  // live in with positive sign, so the minimum-achievable peak is reached
  // with every product at its own memory-minimal level (never below the
  // floor). If even that misses the budget no assignment can fit — clamp
  // to those levels and report infeasible.
  for (std::size_t i = 0; i < n; ++i) {
    const double minimal =
        std::max(rho_write, bars[i].MemoryMinimalLevel());
    set_level(i, static_cast<std::size_t>(
                     std::lower_bound(candidates.begin(), candidates.end(),
                                      minimal) -
                     candidates.begin()));
  }
  peak = peak_of(&result.peak_step);
  if (peak > budget) {
    result.feasible = false;
    ATMX_COUNTER_INC("waterlevel.infeasible");
  } else {
    // Feasible: relax each product in turn to the lowest candidate level
    // that keeps the peak within the budget given the other products'
    // current levels. The product's own memory-minimal level always
    // qualifies (the budget held entering each step), so the scan
    // terminates with a valid assignment.
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t minimal = lvl[i];
      for (std::size_t c = 0; c <= minimal; ++c) {
        set_level(i, c);
        if (peak_of(nullptr) <= budget) break;
      }
    }
    peak = peak_of(&result.peak_step);
  }

  for (std::size_t i = 0; i < n; ++i) {
    result.thresholds[i] = std::max(rho_write, candidates[lvl[i]]);
  }
  result.projected_peak_bytes = static_cast<std::size_t>(peak);
  return result;
}

}  // namespace atmx
