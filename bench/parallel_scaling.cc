// Parallelization and NUMA placement (section III-F): sweeps the
// (worker teams) x (threads per team) grid and reports wall time and the
// NUMA locality fraction from the round-robin tile-row placement. On a
// single-socket host the time column mainly shows scheduling overhead
// while the locality column shows exactly the placement quality a
// multi-socket machine would see (see DESIGN.md, substitutions).
//
// --skew: hub-heavy RMAT workload comparing the paper's static per-team
// queues against the locality-aware work-stealing scheduler
// (docs/SCHEDULER.md) at equal thread count. Reports wall time, per-team
// busy times (their max is the makespan a topology-faithful machine would
// observe), busy-time spread, and the steal count.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench/bench_common.h"
#include "common/math_util.h"
#include "gen/rmat.h"
#include "ops/atmult.h"
#include "storage/convert.h"
#include "tile/partitioner.h"

namespace atmx::bench {
namespace {

void Run() {
  BenchEnv env = BenchEnv::FromEnvironment();
  std::printf("=== Parallel resource distribution and NUMA locality ===\n");
  std::printf("%s\n\n", env.Describe().c_str());

  CooMatrix coo = MakeWorkloadMatrix("R3", env.scale);

  TablePrinter table({"teams x threads", "atmult[s]", "local fraction",
                      "remote read MB"});
  for (const auto& [teams, threads] :
       std::vector<std::pair<int, int>>{
           {1, 1}, {1, 2}, {1, 4}, {2, 1}, {2, 2}, {4, 1}, {4, 2}}) {
    AtmConfig config = env.config;
    config.num_sockets = teams;
    config.cores_per_socket = threads;

    // Placement happens at partitioning time (tile-rows round-robin over
    // the configured sockets), so re-partition per topology.
    ATMatrix atm = PartitionToAtm(coo, config);
    AtMult op(config, env.cost_model);
    AtMultStats stats;
    const double seconds =
        MeasureSeconds([&] { op.Multiply(atm, atm, &stats); });
    table.AddRow(
        {std::to_string(teams) + " x " + std::to_string(threads),
         TablePrinter::Fmt(seconds, 4),
         TablePrinter::Fmt(stats.LocalFraction(), 3),
         TablePrinter::Fmt(
             static_cast<double>(stats.remote_read_bytes) / (1 << 20), 2)});
  }
  table.Print();
  std::printf(
      "\nShape check: with 1 team everything is local; with multiple "
      "teams, A-tile reads stay team-local by construction (tasks follow "
      "their tile-row home) while B-tile reads split across nodes — the "
      "remote fraction the paper's round-robin placement accepts.\n");
}

void RunSkew() {
  BenchEnv env = BenchEnv::FromEnvironment();
  const int teams =
      env.config.num_sockets > 1 ? env.config.num_sockets : 4;
  const int threads = env.config.EffectiveThreadsPerTeam();
  std::printf("=== Skewed workload: static vs work-stealing scheduler ===\n");
  std::printf("%s\n\n", env.Describe().c_str());

  // Hub-heavy RMAT (Graph500-style parameters): non-zeros pile into the
  // first tile-rows, so the static round-robin queues hand one team a few
  // dominating hub tasks — exactly the makespan pathology of Sec. VII.
  RmatParams params;
  params.rows = params.cols =
      std::max<index_t>(256, static_cast<index_t>(env.scale * 32768));
  params.nnz = params.rows * 12;
  params.a = 0.57;
  params.b = 0.19;
  params.c = 0.19;
  CooMatrix coo = GenerateRmat(params);
  // Fix the tile grid so the matrix splits into well more tile-rows than
  // teams. Under adaptive tiling the scaled-down workload is homogeneous
  // enough that melting collapses it into a single band — one task, nothing
  // to schedule — and the band structure would shift with the env-measured
  // density thresholds, making runs incomparable.
  AtmConfig base_config = env.config;
  base_config.tiling = TilingMode::kFixed;
  base_config.b_atomic =
      std::max<index_t>(16, PrevPowerOfTwo(params.rows / 16));
  std::printf(
      "RMAT %lld x %lld, nnz=%lld, b_atomic=%lld, teams=%d, "
      "threads/team=%d\n\n",
      static_cast<long long>(params.rows),
      static_cast<long long>(params.cols),
      static_cast<long long>(params.nnz),
      static_cast<long long>(base_config.b_atomic), teams, threads);

  TablePrinter table({"scheduler", "atmult[s]", "busy max[s]", "busy min[s]",
                      "spread", "steals"});
  double static_makespan = 0.0;
  double stealing_makespan = 0.0;
  for (const bool stealing : {false, true}) {
    AtmConfig config = base_config;
    config.num_sockets = teams;
    config.cores_per_socket = threads;
    config.work_stealing = stealing;
    ATMatrix atm = PartitionToAtm(coo, config);
    if (!stealing) {
      std::printf("partitioned into %zu x %zu bands\n\n",
                  atm.row_bounds().size() - 1, atm.col_bounds().size() - 1);
    }
    AtMult op(config, env.cost_model);
    AtMultStats stats;
    const double seconds =
        MeasureSeconds([&] { op.Multiply(atm, atm, &stats); });
    // Per-team CPU time, not wall time: with more teams than physical
    // cores the drivers timeshare, and a task's wall duration counts
    // slices where *other* teams ran (which inflates precisely the
    // schedules that keep every team busy). CPU time is what each team's
    // tasks would take on a dedicated socket; its per-team max is the
    // multiply-phase makespan a topology-faithful machine would see.
    double busy_min = stats.team_cpu_seconds.empty()
                          ? 0.0
                          : stats.team_cpu_seconds[0];
    for (double s : stats.team_cpu_seconds) busy_min = std::min(busy_min, s);
    const double busy_max = stats.MaxTeamCpuSeconds();
    (stealing ? stealing_makespan : static_makespan) = busy_max;
    table.AddRow({stealing ? "stealing" : "static",
                  TablePrinter::Fmt(seconds, 4),
                  TablePrinter::Fmt(busy_max, 4),
                  TablePrinter::Fmt(busy_min, 4),
                  TablePrinter::Fmt(
                      busy_max > 0 ? 1.0 - busy_min / busy_max : 0.0, 3),
                  std::to_string(stats.tasks_stolen)});
  }
  table.Print();
  if (static_makespan > 0.0) {
    std::printf(
        "\nMakespan (max per-team busy time): static %.4fs -> stealing "
        "%.4fs, reduction %.1f%%\n",
        static_makespan, stealing_makespan,
        100.0 * (1.0 - stealing_makespan / static_makespan));
  }
  std::printf(
      "Shape check: the hub tile-rows pin the static makespan to one "
      "team's queue; stealing levels the busy times while home tasks keep "
      "first-touch locality (stolen tasks are the cheap cold tail).\n");
}

}  // namespace
}  // namespace atmx::bench

int main(int argc, char** argv) {
  atmx::bench::InitBenchTelemetry("parallel_scaling", argc, argv);
  bool skew = false;
  // --repeat=N re-runs the selected workload N times: a long-lived
  // process for live-scrape / flight-recorder scenarios (CI polls
  // /metrics until flight.refreshes advances, then crashes the process).
  int repeat = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--skew") == 0) skew = true;
    static constexpr char kRepeat[] = "--repeat=";
    if (std::strncmp(argv[i], kRepeat, sizeof(kRepeat) - 1) == 0) {
      repeat = std::atoi(argv[i] + sizeof(kRepeat) - 1);
    }
  }
  if (repeat < 1) repeat = 1;
  for (int run = 0; run < repeat; ++run) {
    if (repeat > 1) std::printf("=== repetition %d/%d ===\n", run + 1, repeat);
    if (skew) {
      atmx::bench::RunSkew();
    } else {
      atmx::bench::Run();
    }
  }
  return 0;
}
