// Reproduces Fig. 5: the water-level method. Left panel — the 1D
// histogram of logical-block densities of an estimated result matrix;
// right panel — the projected memory consumption as a function of the
// write density threshold, with the flexible memory limit and the
// resulting threshold chosen by the method.

#include <cstdio>

#include "bench/bench_common.h"
#include "estimate/density_estimator.h"
#include "estimate/water_level.h"
#include "storage/convert.h"
#include "tile/partitioner.h"

namespace atmx::bench {
namespace {

void Run() {
  BenchEnv env = BenchEnv::FromEnvironment();
  std::printf("=== Fig. 5: water-level method ===\n");
  std::printf("%s\n\n", env.Describe().c_str());

  CooMatrix coo = MakeWorkloadMatrix("R3", env.scale);
  // A finer block grid than the multiplication default: Fig. 5 is about
  // the block-density *histogram*, which needs enough blocks to resolve
  // the dense-block / halo / background mixture.
  AtmConfig config = env.config;
  config.b_atomic = std::max<index_t>(16, config.AtomicBlockSize() / 4);
  ATMatrix atm = PartitionToAtm(coo, config);
  DensityMap estimate =
      EstimateProductDensity(atm.density_map(), atm.density_map());

  // Left: histogram of logical block densities (10 bins + empty bin).
  std::printf("--- block-density histogram of the estimated C = A*A ---\n");
  TablePrinter histogram({"density bin", "blocks", "bar"});
  constexpr int kBins = 10;
  std::vector<index_t> bins(kBins + 1, 0);
  for (index_t bi = 0; bi < estimate.grid_rows(); ++bi) {
    for (index_t bj = 0; bj < estimate.grid_cols(); ++bj) {
      const double rho = estimate.At(bi, bj);
      if (rho <= 0.0) {
        bins[0]++;
      } else {
        bins[1 + std::min(kBins - 1, static_cast<int>(rho * kBins))]++;
      }
    }
  }
  index_t max_bin = 1;
  for (index_t b : bins) max_bin = std::max(max_bin, b);
  for (int b = 0; b <= kBins; ++b) {
    char label[32];
    if (b == 0) {
      std::snprintf(label, sizeof(label), "empty");
    } else {
      std::snprintf(label, sizeof(label), "(%.1f, %.1f]",
                    (b - 1) / static_cast<double>(kBins),
                    b / static_cast<double>(kBins));
    }
    histogram.AddRow({label, std::to_string(bins[b]),
                      std::string(static_cast<std::size_t>(
                                      40.0 * bins[b] / max_bin),
                                  '#')});
  }
  histogram.Print();

  // Right: memory consumption vs. threshold, plus the water-level answer
  // for a sweep of memory limits.
  std::printf("\n--- projected memory vs. write density threshold ---\n");
  TablePrinter memory({"threshold", "projected memory"});
  for (double threshold :
       {1.01, 0.9, 0.7, 0.5, 0.3, 0.2, 0.1, 0.05, 0.02, 0.0}) {
    memory.AddRow({TablePrinter::Fmt(threshold, 2),
                   TablePrinter::FmtBytes(
                       EstimateMemoryBytes(estimate, threshold))});
  }
  memory.Print();

  std::printf("\n--- water-level solution for sliding memory limits ---\n");
  TablePrinter solution(
      {"mem limit", "threshold", "projected", "feasible"});
  const std::size_t dense_all = EstimateMemoryBytes(estimate, 0.0);
  // Minimum possible memory (dense exactly where rho >= 0.5).
  const std::size_t min_mem = EstimateMemoryBytes(estimate, 0.5);
  for (double fraction : {1.0, 0.8, 0.6, 0.4, 0.25, 0.1, 0.02, -0.05}) {
    const auto limit = static_cast<std::size_t>(
        min_mem + fraction * static_cast<double>(dense_all - min_mem));
    // The level alone: the floor rho_W = 0, raised only as the limit
    // demands.
    bool feasible = false;
    const double threshold =
        EffectiveWriteThreshold(estimate, 0.0, limit, &feasible);
    solution.AddRow({TablePrinter::FmtBytes(limit),
                     TablePrinter::Fmt(threshold, 4),
                     TablePrinter::FmtBytes(
                         EstimateMemoryBytes(estimate, threshold)),
                     feasible ? "yes" : "no (best effort)"});
  }
  solution.Print();
  std::printf(
      "\nShape check: lowering the limit raises the chosen threshold "
      "(fewer dense blocks), approaching the limit from the right as in "
      "the paper's Fig. 5.\n");
}

}  // namespace
}  // namespace atmx::bench

int main(int argc, char** argv) {
  atmx::bench::InitBenchTelemetry("fig5_waterlevel", argc, argv);
  atmx::bench::Run();
  return 0;
}
