// End-to-end benchmark of the ATMULT operator and the chain executor.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>] [--reference] [--inject estimate:<k>]
//
// One closed-loop caller issues each call after the previous one returned,
// checks every result, and prints human-readable lines followed by one
// JSON object as the last line: the end-to-end metrics with --trace 0, the
// per-layer metrics (from the benchmark's own spans around each public
// call plus the stats structs the calls return) with --trace 1.
// --reference instead measures the paper's Fig. 8a ratios once (un-gated).
// --inject repeats the estimate call k extra times before every product:
// the negative control of perfbench/test_perfbench.py.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool reference = false;
  std::string inject;
};

// A run measures at least this many calls so op_ms.p90 has ten samples
// beyond it, and stops early only to stay within a 180 s run limit.
constexpr std::size_t kMinOps = 100;
constexpr double kMaxMeasureSeconds = 120.0;
// Set-up is repeated at least kMinSetupReps times and until it has taken
// kMinSetupSeconds (at most kMaxSetupReps times); setup_s is the median.
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 100;
constexpr double kMinSetupSeconds = 1.0;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--reference") {
      args->reference = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--inject") {
      args->inject = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

// Linear-interpolation quantile (q in [0, 1]) of unsorted samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double Get(const Layers& l, const char* key) {
  const auto it = l.find(key);
  return it == l.end() ? 0.0 : it->second;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Per-pass derived layer metrics.
Layers Derive(const PassResult& p, int teams) {
  Layers l = p.layers;
  const double busy = Get(l, "sched.busy_s");
  l["sched.busy_imbalance"] =
      Ratio(Get(l, "sched.max_team_busy_s"), busy / teams);
  l["sched.idle_frac"] = 1.0 - Ratio(busy, Get(l, "sched.capacity_s"));
  const double local = Get(l, "numa.local_bytes");
  l["numa.local_frac"] = Ratio(local, local + Get(l, "numa.remote_bytes"));
  l["kernel.gflops"] =
      Ratio(Get(l, "kernel.flops"), Get(l, "kernel.multiply_s")) / 1e9;
  l["kernel.flops_per_byte"] =
      Ratio(Get(l, "kernel.flops"), Get(l, "kernel.bytes"));
  // Layers of the calls (in-pass partitioning, chain planning, serial
  // estimate, busiest team, non-negative remainder) against the calls'
  // wall time; the gap is time inside a call span that no layer covers.
  const double wall = Get(l, "op.wall_s");
  const double layers = Get(l, "recon.attributed_s") +
                        Get(l, "tile.partition_s") + Get(l, "chain.plan_s");
  l["trace.reconcile_err"] = Ratio(std::fabs(wall - layers), wall);
  l["pass_s"] = Sum(p.op_seconds);
  return l;
}

struct Metric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order.
const Metric kLayerMetrics[] = {
    {"tile.partition_s", "s"},
    {"tile.sort_s", "s"},
    {"tile.blockcount_s", "s"},
    {"tile.recursion_s", "s"},
    {"tile.materialize_s", "s"},
    {"tile.dense_tiles", "count"},
    {"tile.sparse_tiles", "count"},
    {"estimate.s", "s"},
    {"estimate.nnz_ratio", "ratio"},
    {"waterlevel.rho_w", "density"},
    {"optimize.s", "s"},
    {"optimize.conversions", "count"},
    {"ops.pairs", "count"},
    {"ops.result_tiles.dense", "count"},
    {"ops.result_tiles.sparse", "count"},
    {"ops.unattributed_s", "s"},
    {"kernel.multiply_s", "s"},
    {"kernel.invocations.ddd", "count"},
    {"kernel.invocations.dds", "count"},
    {"kernel.invocations.dsd", "count"},
    {"kernel.invocations.dss", "count"},
    {"kernel.invocations.sdd", "count"},
    {"kernel.invocations.sds", "count"},
    {"kernel.invocations.ssd", "count"},
    {"kernel.invocations.sss", "count"},
    {"kernel.split_drift", "count"},
    {"kernel.flops", "madd"},
    {"kernel.bytes", "B"},
    {"kernel.gflops", "Gmadd/s"},
    {"kernel.flops_per_byte", "madd/B"},
    {"sched.max_team_busy_s", "s"},
    {"sched.busy_imbalance", "ratio"},
    {"sched.tasks_stolen", "count"},
    {"sched.idle_frac", "ratio"},
    {"numa.local_frac", "ratio"},
    {"chain.plan_s", "s"},
    {"chain.fused_tasks", "count"},
    {"chain.fused", "count"},
    {"chain.resident_peak_mb", "MB"},
    {"chain.projected_peak_mb", "MB"},
    {"chain.budget_mb", "MB"},
    {"trace.overhead_s", "s"},
    {"trace.reconcile_err", "ratio"},
};

void PrintResult(bool correct, std::int64_t attempted, std::int64_t failed,
                 const std::vector<std::pair<Metric, double>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", (long long)attempted,
              (long long)failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].second) ? metrics[i].second : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.name, v,
                metrics[i].first.unit);
  }
  std::printf("}}\n");
}

int Run(const Args& args) {
  Pinned pinned = Pinned::Default();
  if (!args.inject.empty()) {
    const std::size_t colon = args.inject.find(':');
    pinned.inject_layer = args.inject.substr(0, colon);
    pinned.inject_repeats =
        colon == std::string::npos ? 1 : std::atoi(args.inject.c_str() + colon + 1);
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, pinned);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const int teams = pinned.config.EffectiveTeams();
  std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), (unsigned long long)args.seed,
              args.seconds, args.trace ? 1 : 0);
  std::printf("pinned: teams=%dx%d %s\n", teams,
              pinned.config.EffectiveThreadsPerTeam(),
              pinned.config.ToString().c_str());
  std::printf("pinned: cost model defaults, not calibrated: %s\n",
              pinned.cost_model.params().ToString().c_str());
  if (!pinned.inject_layer.empty()) {
    std::printf("inject: %s x%d\n", pinned.inject_layer.c_str(),
                pinned.inject_repeats);
  }

  double t0 = Now();
  workload->Generate(args.seed);
  std::printf("generate+reference: %.3f s\n", Now() - t0);

  std::vector<double> setup_seconds;
  std::vector<Layers> setup_layers;
  while (static_cast<int>(setup_seconds.size()) < kMaxSetupReps &&
         (static_cast<int>(setup_seconds.size()) < kMinSetupReps ||
          Sum(setup_seconds) < kMinSetupSeconds)) {
    setup_layers.emplace_back();
    setup_seconds.push_back(workload->Setup(&setup_layers.back()));
  }
  std::printf("setup: %zu repetitions, min %.6f median %.6f max %.6f s\n",
              setup_seconds.size(), Quantile(setup_seconds, 0.0),
              Median(setup_seconds), Quantile(setup_seconds, 1.0));
  t0 = Now();
  if (!workload->Prepare()) {
    std::fprintf(stderr, "perfbench: preparing %s failed\n",
                 args.workload.c_str());
    return 1;
  }
  std::printf("prepare: %.3f s\n", Now() - t0);

  if (args.reference) {
    if (!workload->RunBaselines()) {
      std::fprintf(stderr, "perfbench: no baselines for %s\n",
                   args.workload.c_str());
      return 2;
    }
    PrintResult(true, 1, 0, {});
    return 0;
  }

  // Warm-up pass: fills caches and fixes the decisions and checksum every
  // later pass must repeat exactly.
  PassResult warm;
  workload->RunPass(false, &warm);
  std::int64_t attempted = warm.attempted;
  std::int64_t failed = warm.failed;
  std::int64_t drifted = 0;
  std::int64_t split_drift = 0;
  std::printf("checksum: %016llx\n", (unsigned long long)warm.checksum);

  std::vector<PassResult> untraced, traced;
  std::size_t ops = 0;
  const double start = Now();
  for (int i = 0;; ++i) {
    const double elapsed = Now() - start;
    if ((elapsed >= args.seconds && ops >= kMinOps) ||
        elapsed >= kMaxMeasureSeconds) {
      break;
    }
    const bool trace_pass = args.trace && i % 2 == 1;
    Tracer::Get().set_enabled(trace_pass);
    PassResult pass;
    {
      Span span("pass", "pass");
      workload->RunPass(false, &pass);
    }
    Tracer::Get().set_enabled(false);
    attempted += pass.attempted;
    failed += pass.failed;
    if (pass.decisions != warm.decisions || pass.checksum != warm.checksum) {
      if (drifted++ == 0) {
        std::fprintf(stderr,
                     "perfbench: pass %d: decisions or checksum differ from "
                     "the warm-up pass\n", i);
      }
    }
    if (pass.kernel_split != warm.kernel_split) split_drift++;
    if (!trace_pass) ops += pass.op_seconds.size();
    (trace_pass ? traced : untraced).push_back(std::move(pass));
  }
  bool correct = failed == 0 && drifted == 0;

  std::vector<double> pass_s, op_ms, result_mb;
  for (const PassResult& p : untraced) {
    pass_s.push_back(Sum(p.op_seconds));
    result_mb.push_back(p.result_bytes / (1024.0 * 1024.0));
    for (double s : p.op_seconds) op_ms.push_back(s * 1e3);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::printf("passes: %zu untraced, %zu traced; calls: %zu (%zu beyond p90)\n",
              untraced.size(), traced.size(), op_ms.size(),
              op_ms.size() - static_cast<std::size_t>(0.9 * op_ms.size()));
  std::printf("op_ms deciles:");
  for (int d = 1; d <= 9; ++d) std::printf(" %.4g", Quantile(op_ms, d / 10.0));
  std::printf("\n");
  std::printf("pass_s: min %.6f q1 %.6f median %.6f q3 %.6f max %.6f\n",
              Quantile(pass_s, 0.0), Quantile(pass_s, 0.25), Median(pass_s),
              Quantile(pass_s, 0.75), Quantile(pass_s, 1.0));
  std::printf("failed_ops: %lld/%lld = %g; decision drift: %lld passes; "
              "kernel split drift: %lld passes\n",
              (long long)failed, (long long)attempted,
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              (long long)drifted, (long long)split_drift);

  std::vector<std::pair<Metric, double>> metrics;
  if (!args.trace) {
    metrics = {
        {{"setup_s", "s"}, Median(setup_seconds)},
        {{"pass_s", "s"}, Median(pass_s)},
        {{"op_ms.p50", "ms"}, Quantile(op_ms, 0.5)},
        {{"op_ms.p90", "ms"}, Quantile(op_ms, 0.9)},
        {{"result_mb", "MB"}, Median(result_mb)},
        {{"peak_rss_mb", "MB"}, peak_rss_mb},
    };
    for (const auto& [m, v] : metrics) {
      std::printf("metric: %-12s %14.6f %s\n", m.name, v, m.unit);
    }
    PrintResult(correct, attempted, failed, metrics);
    return 0;
  }

  // Traced run: per-layer medians over the traced passes; tile.* adds the
  // set-up partitioning (median over set-up repetitions).
  const std::size_t traced_passes = std::max<std::size_t>(1, traced.size());
  std::map<std::string, double> self = Tracer::Get().SelfSecondsByName();
  std::vector<Layers> derived;
  for (const PassResult& p : traced) derived.push_back(Derive(p, teams));
  auto median_of = [](const std::vector<Layers>& v, const char* key) {
    std::vector<double> values;
    for (const Layers& l : v) values.push_back(Get(l, key));
    return Median(values);
  };

  Tracer::Get().set_enabled(true);
  PassResult probe;
  workload->RunPass(true, &probe);
  Tracer::Get().set_enabled(false);
  attempted += probe.attempted;
  failed += probe.failed;
  correct = correct && probe.failed == 0;

  std::printf("self time per traced pass (benchmark spans):\n");
  for (const auto& [name, seconds] : self) {
    std::printf("  self: %-24s %12.6f s\n", name.c_str(),
                seconds / static_cast<double>(traced_passes));
  }
  for (const Metric& m : kLayerMetrics) {
    const std::string name = m.name;
    double v = 0.0;
    if (name == "estimate.nnz_ratio") {
      v = Ratio(Get(probe.layers, "estimate.expected_nnz"),
                Get(probe.layers, "estimate.actual_nnz"));
    } else if (name == "kernel.split_drift") {
      v = static_cast<double>(split_drift);
    } else if (name == "trace.overhead_s") {
      v = median_of(derived, "pass_s") - Median(pass_s);
    } else {
      v = median_of(derived, m.name);
      if (name.rfind("tile.", 0) == 0) v += median_of(setup_layers, m.name);
    }
    metrics.push_back({m, v});
    std::printf("layer: %-26s %16.6f %s\n", m.name, v, m.unit);
  }
  if (!args.trace_out.empty()) {
    if (!Tracer::Get().WriteChromeTrace(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
    std::printf("trace: wrote %s (%zu spans)\n", args.trace_out.c_str(),
                Tracer::Get().size());
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <path>] [--reference] "
                 "[--inject estimate:<k>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
