// Google-benchmark microbenchmarks of the eight multiplication kernels
// (section III-A) on cache-sized tiles, including windowed (referenced
// submatrix) variants, and of the operator's per-call fixed cost
// (BM_SmallMultiply). The kernel numbers are what the cost model
// abstracts; run with --benchmark_filter=... to narrow.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "gen/rmat.h"
#include "gen/synthetic.h"
#include "kernels/dense_kernels.h"
#include "kernels/mixed_kernels.h"
#include "kernels/sparse_kernels.h"
#include "ops/atmult.h"
#include "storage/convert.h"
#include "tile/partitioner.h"

namespace atmx {
namespace {

constexpr index_t kTile = 256;
constexpr double kDensity = 0.05;

CsrMatrix ProbeCsr(std::uint64_t seed) {
  return CooToCsr(GenerateUniform(
      kTile, kTile, static_cast<index_t>(kDensity * kTile * kTile), seed));
}

void BM_DddGemm(benchmark::State& state) {
  DenseMatrix a = GenerateFullDense(kTile, kTile, 1);
  DenseMatrix b = GenerateFullDense(kTile, kTile, 2);
  DenseMatrix c(kTile, kTile);
  for (auto _ : state) {
    DddGemm(a.View(), b.View(), c.MutView(), 0, kTile);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * kTile * kTile * kTile);
}
BENCHMARK(BM_DddGemm);

void BM_SddGemm(benchmark::State& state) {
  CsrMatrix a = ProbeCsr(3);
  DenseMatrix b = GenerateFullDense(kTile, kTile, 4);
  DenseMatrix c(kTile, kTile);
  for (auto _ : state) {
    SddGemm(a, Window::Full(kTile, kTile), b.View(), c.MutView(), 0, kTile);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz() * kTile);
}
BENCHMARK(BM_SddGemm);

void BM_DsdGemm(benchmark::State& state) {
  DenseMatrix a = GenerateFullDense(kTile, kTile, 5);
  CsrMatrix b = ProbeCsr(6);
  DenseMatrix c(kTile, kTile);
  for (auto _ : state) {
    DsdGemm(a.View(), b, Window::Full(kTile, kTile), c.MutView(), 0, kTile);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * kTile * b.nnz());
}
BENCHMARK(BM_DsdGemm);

void BM_SsdGemm(benchmark::State& state) {
  CsrMatrix a = ProbeCsr(7);
  CsrMatrix b = ProbeCsr(8);
  DenseMatrix c(kTile, kTile);
  for (auto _ : state) {
    SsdGemm(a, Window::Full(kTile, kTile), b, Window::Full(kTile, kTile),
            c.MutView(), 0, kTile);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_SsdGemm);

void BM_SpGemmCsr_sss(benchmark::State& state) {
  CsrMatrix a = ProbeCsr(9);
  CsrMatrix b = ProbeCsr(10);
  for (auto _ : state) {
    CsrMatrix c = SpGemmCsr(a, b);
    benchmark::DoNotOptimize(c.nnz());
  }
}
BENCHMARK(BM_SpGemmCsr_sss);

void BM_SparseTargetRow_sds(benchmark::State& state) {
  CsrMatrix a = ProbeCsr(11);
  DenseMatrix b = GenerateFullDense(kTile, kTile, 12);
  for (auto _ : state) {
    CsrBuilder builder(kTile, kTile);
    SparseAccumulator spa(kTile);
    for (index_t i = 0; i < kTile; ++i) {
      SdsAccumulateRow(a, Window::Full(kTile, kTile), b.View(), i, &spa);
      spa.FlushToBuilder(&builder);
      builder.FinishRowsUpTo(i + 1);
    }
    CsrMatrix c = builder.Build();
    benchmark::DoNotOptimize(c.nnz());
  }
}
BENCHMARK(BM_SparseTargetRow_sds);

void BM_SparseTargetRow_dss(benchmark::State& state) {
  DenseMatrix a = GenerateFullDense(kTile, kTile, 13);
  CsrMatrix b = ProbeCsr(14);
  for (auto _ : state) {
    CsrBuilder builder(kTile, kTile);
    SparseAccumulator spa(kTile);
    for (index_t i = 0; i < kTile; ++i) {
      DssAccumulateRow(a.View(), b, Window::Full(kTile, kTile), i, &spa);
      spa.FlushToBuilder(&builder);
      builder.FinishRowsUpTo(i + 1);
    }
    CsrMatrix c = builder.Build();
    benchmark::DoNotOptimize(c.nnz());
  }
}
BENCHMARK(BM_SparseTargetRow_dss);

void BM_SparseTargetRow_dds(benchmark::State& state) {
  DenseMatrix a = GenerateFullDense(kTile, kTile, 15);
  DenseMatrix b = GenerateFullDense(kTile, kTile, 16);
  for (auto _ : state) {
    CsrBuilder builder(kTile, kTile);
    SparseAccumulator spa(kTile);
    for (index_t i = 0; i < kTile; ++i) {
      DdsAccumulateRow(a.View(), b.View(), i, &spa);
      spa.FlushToBuilder(&builder);
      builder.FinishRowsUpTo(i + 1);
    }
    CsrMatrix c = builder.Build();
    benchmark::DoNotOptimize(c.nnz());
  }
}
BENCHMARK(BM_SparseTargetRow_dds);

// Windowed vs. full-tile sparse multiplication: the referenced-submatrix
// overhead (binary column searches) the paper accepts in section III-B.
void BM_SsdGemm_Windowed(benchmark::State& state) {
  CsrMatrix a = ProbeCsr(17);
  CsrMatrix b = ProbeCsr(18);
  const Window wa{kTile / 4, 3 * kTile / 4, kTile / 4, 3 * kTile / 4};
  const Window wb{kTile / 4, 3 * kTile / 4, kTile / 4, 3 * kTile / 4};
  DenseMatrix c(kTile / 2, kTile / 2);
  for (auto _ : state) {
    SsdGemm(a, wa, b, wb, c.MutView(), 0, kTile / 2);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_SsdGemm_Windowed);

// Conversion kernels used by the JIT optimizer.
void BM_Convert_CsrToDense(benchmark::State& state) {
  CsrMatrix a = ProbeCsr(19);
  for (auto _ : state) {
    DenseMatrix d = CsrToDense(a);
    benchmark::DoNotOptimize(d.data());
  }
}
BENCHMARK(BM_Convert_CsrToDense);

void BM_Convert_DenseToCsr(benchmark::State& state) {
  DenseMatrix a = CsrToDense(ProbeCsr(20));
  for (auto _ : state) {
    CsrMatrix s = DenseToCsr(a);
    benchmark::DoNotOptimize(s.nnz());
  }
}
BENCHMARK(BM_Convert_DenseToCsr);

// Per-call fixed cost of the operator: one BFS level, a 16 x 16384
// frontier holding range(0) entries times a degree-8 R-MAT adjacency, on
// range(1) teams of range(1) threads at the 1 MiB LLC setting. At 16
// entries the product is a few hundred flops, so the time is what every
// call pays regardless of its size.
void BM_SmallMultiply(benchmark::State& state) {
  constexpr index_t kNodes = 1 << 14;
  AtmConfig config;
  config.llc_bytes = 1 << 20;
  config.num_sockets = static_cast<int>(state.range(1));
  config.cores_per_socket = static_cast<int>(state.range(1));
  RmatParams params;
  params.rows = params.cols = kNodes;
  params.nnz = kNodes * 8;
  params.a = 0.57;
  params.b = 0.19;
  params.c = 0.19;
  params.seed = 21;
  const ATMatrix adjacency = PartitionToAtm(GenerateRmat(params), config);
  const ATMatrix frontier = PartitionToAtm(
      GenerateUniform(16, kNodes, state.range(0), /*seed=*/22), config);
  const AtMult op(config);
  for (auto _ : state) {
    ATMatrix c = op.Multiply(frontier, adjacency);
    benchmark::DoNotOptimize(c.nnz());
  }
}
BENCHMARK(BM_SmallMultiply)
    ->ArgsProduct({{16, 256, 2000}, {1, 2}})
    ->Unit(benchmark::kMicrosecond);
// Four callers of one shape at once, each on its own operands: the wall
// time over the calls of all four, the inverse of their throughput.
BENCHMARK(BM_SmallMultiply)
    ->ArgsProduct({{256}, {1, 2}})
    ->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace atmx

BENCHMARK_MAIN();
