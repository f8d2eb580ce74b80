// Reproduces Fig. 7: duration of the partitioning-process components
// (ZBlockCnts creation, the stable scatter into atomic-block Z-order,
// quadtree recursion, tile materialization), reported relative to one
// execution of the traditional spspsp_gemm multiplication — the paper's
// criterion for whether the restructuring cost amortizes within a single
// multiplication.
//
// Expected shape (paper IV-B): partitioning < 1 multiplication for all
// matrices except R8-like cases (small product, large dimensions); the
// materialization dominates the partitioning time.

#include <cstdio>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "kernels/sparse_kernels.h"
#include "storage/convert.h"
#include "tile/partitioner.h"

namespace atmx::bench {
namespace {

void Run() {
  BenchEnv env = BenchEnv::FromEnvironment();
  std::printf("=== Fig. 7: partitioning component breakdown ===\n");
  std::printf("%s\n\n", env.Describe().c_str());
  std::printf(
      "All columns are fractions of one spspsp_gemm execution (C = A*A); "
      "'total<1' means the partitioning pays for itself within a single "
      "multiplication.\n\n");

  TablePrinter table({"Matrix", "blockcnt", "scatter", "recursion",
                      "materialize", "total", "spspsp[s]", "tiles(d/sp)"});
  for (const WorkloadSpec& spec : Table1Specs()) {
    // Fig. 7 uses the real-world matrices plus one generated instance.
    if (spec.id[0] == 'G' && spec.id != "G1") continue;
    CooMatrix coo = MakeWorkloadMatrix(spec.id, env.scale);
    CsrMatrix csr = CooToCsr(coo);

    const BaselineResult mult = RunSpspsp(csr, csr);

    PartitionStats stats;
    ATMatrix atm = PartitionToAtm(coo, env.config, &stats);

    auto rel = [&](double seconds) {
      return TablePrinter::Fmt(seconds / mult.seconds, 3);
    };
    table.AddRow({spec.id, rel(stats.blockcount_seconds),
                  rel(stats.sort_seconds),
                  rel(stats.recursion_seconds),
                  rel(stats.materialize_seconds),
                  rel(stats.TotalSeconds()),
                  TablePrinter::Fmt(mult.seconds, 4),
                  std::to_string(stats.dense_tiles) + "/" +
                      std::to_string(stats.sparse_tiles)});
  }
  table.Print();
}

}  // namespace
}  // namespace atmx::bench

int main(int argc, char** argv) {
  atmx::bench::InitBenchTelemetry("fig7_partitioning", argc, argv);
  atmx::bench::Run();
  return 0;
}
