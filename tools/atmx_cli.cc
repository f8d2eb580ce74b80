// atmx — command-line utility around the library.
//
//   atmx info <file>                     matrix facts (any supported format)
//   atmx partition <in> <out.atm>        partition into an AT MATRIX
//   atmx multiply <a> <b> <out>          C = A * B through ATMULT
//   atmx explain <a> <b>                 plan C = A * B without executing
//   atmx render <in> <out.pgm>           tile layout / density map image
//   atmx convert <in> <out>              between .mtx and binary formats
//   atmx gen <workload-id> <scale> <out> generate a Table I workload
//   atmx trace <a> <b> <out.trace.json>  multiply with tracing + audit
//                                        ledger, write a Chrome trace
//   atmx decisions <a> <b> [<c> ...]     multiply a chain through the
//                                        planner with the audit ledger
//                                        on; print the chosen plan, the
//                                        fusion outcome, and every pair
//                                        representation decision (--json:
//                                        the ledger document)
//   atmx metrics <a> <b> [--json]        multiply, dump the metrics
//                                        registry (table or JSON)
//   atmx profile <a> <b>                 multiply with hardware counters,
//                                        print a per-kernel-variant table
//                                        (cycles, IPC, LLC miss rate, ...)
//   atmx watch <url>                     poll a live stats endpoint
//                                        (bench --stats-port=...) and
//                                        render a rate table per tick
//   atmx audit <ledger.json>             replay a prediction-vs-outcome
//                                        audit ledger (--audit-out):
//                                        per-class error distributions,
//                                        worst mispredictions, regret
//                                        counts, optional drift gate
//                                        (--gate=<baseline>)
//
// Files ending in .mtx are MatrixMarket; .atm/.bin are the library's
// binary format (AT MATRIX or staged COO). Config knobs come from the
// same ATMX_* environment variables as the benchmarks.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "common/config.h"
#include "common/table_printer.h"
#include "gen/workloads.h"
#include "kernels/kernel_dispatch.h"
#include "obs/obs.h"
#if defined(ATMX_OBS_ENABLED)
#include "obs/audit_ledger.h"
#include "obs/json_util.h"
#include "obs/stats_server.h"
#endif
#include "ops/atmult.h"
#include "ops/chain.h"
#include "ops/explain.h"
#include "storage/convert.h"
#include "storage/matrix_market.h"
#include "storage/serialize.h"
#include "tile/partitioner.h"
#include "viz/render.h"

namespace {

using namespace atmx;

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

AtmConfig ConfigFromEnv() {
  AtmConfig config;
  if (const char* llc = std::getenv("ATMX_LLC")) {
    config.llc_bytes = std::atoll(llc);
  }
  if (const char* teams = std::getenv("ATMX_TEAMS")) {
    config.num_sockets = std::atoi(teams);
  }
  if (const char* threads = std::getenv("ATMX_THREADS")) {
    config.cores_per_socket = std::atoi(threads);
  }
  return config;
}

// Loads any supported file as an AT MATRIX (partitioning when the source
// is a raw format).
Result<ATMatrix> LoadAsAtm(const std::string& path, const AtmConfig& config) {
  if (EndsWith(path, ".mtx")) {
    Result<CooMatrix> coo = ReadMatrixMarket(path);
    if (!coo.ok()) return coo.status();
    return PartitionToAtm(std::move(coo).value(), config);
  }
  Result<std::string> type = PeekMatrixType(path);
  if (!type.ok()) return type.status();
  if (type.value() == "atm") return LoadATMatrix(path);
  if (type.value() == "coo") {
    Result<CooMatrix> coo = LoadCooMatrix(path);
    if (!coo.ok()) return coo.status();
    return PartitionToAtm(std::move(coo).value(), config);
  }
  if (type.value() == "csr") {
    Result<CsrMatrix> csr = LoadCsrMatrix(path);
    if (!csr.ok()) return csr.status();
    return AtmFromCsr(csr.value(), config);
  }
  Result<DenseMatrix> dense = LoadDenseMatrix(path);
  if (!dense.ok()) return dense.status();
  return AtmFromDense(dense.value(), config);
}

int CmdInfo(const std::string& path) {
  AtmConfig config = ConfigFromEnv();
  Result<ATMatrix> atm = LoadAsAtm(path, config);
  if (!atm.ok()) {
    std::fprintf(stderr, "error: %s\n", atm.status().ToString().c_str());
    return 1;
  }
  const ATMatrix& m = atm.value();
  std::printf("file:        %s\n", path.c_str());
  std::printf("dimensions:  %lld x %lld\n", (long long)m.rows(),
              (long long)m.cols());
  std::printf("non-zeros:   %lld (density %.6f%%)\n", (long long)m.nnz(),
              m.Density() * 100);
  std::printf("tiles:       %lld (%lld dense, %lld sparse)\n",
              (long long)m.num_tiles(), (long long)m.NumDenseTiles(),
              (long long)m.NumSparseTiles());
  std::printf("b_atomic:    %lld\n", (long long)m.b_atomic());
  std::printf("memory:      %s\n",
              TablePrinter::FmtBytes(m.MemoryBytes()).c_str());
  std::printf("row bands:   %lld, col bands: %lld\n",
              (long long)m.num_row_bands(), (long long)m.num_col_bands());
  std::printf("\n%s", RenderTileLayoutAscii(m, 40).c_str());
  return 0;
}

int CmdPartition(const std::string& in, const std::string& out) {
  AtmConfig config = ConfigFromEnv();
  Result<ATMatrix> atm = LoadAsAtm(in, config);
  if (!atm.ok()) {
    std::fprintf(stderr, "error: %s\n", atm.status().ToString().c_str());
    return 1;
  }
  Status saved = SaveMatrix(atm.value(), out);
  if (!saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %lld tiles, %s\n", out.c_str(),
              (long long)atm.value().num_tiles(),
              TablePrinter::FmtBytes(atm.value().MemoryBytes()).c_str());
  return 0;
}

int CmdMultiply(const std::string& a_path, const std::string& b_path,
                const std::string& out) {
  AtmConfig config = ConfigFromEnv();
  Result<ATMatrix> a = LoadAsAtm(a_path, config);
  Result<ATMatrix> b = LoadAsAtm(b_path, config);
  if (!a.ok() || !b.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 (!a.ok() ? a.status() : b.status()).ToString().c_str());
    return 1;
  }
  if (a.value().cols() != b.value().rows()) {
    std::fprintf(stderr, "error: shape mismatch %lld != %lld\n",
                 (long long)a.value().cols(), (long long)b.value().rows());
    return 1;
  }
  AtMult op(config);
  AtMultStats stats;
  ATMatrix c = op.Multiply(a.value(), b.value(), &stats);
  std::printf("%s\n", stats.ToString().c_str());
  Status saved = EndsWith(out, ".mtx") ? WriteMatrixMarket(c.ToCoo(), out)
                                       : SaveMatrix(c, out);
  if (!saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %lld x %lld, %lld non-zeros\n", out.c_str(),
              (long long)c.rows(), (long long)c.cols(), (long long)c.nnz());
  return 0;
}

int CmdExplain(const std::string& a_path, const std::string& b_path) {
  AtmConfig config = ConfigFromEnv();
  Result<ATMatrix> a = LoadAsAtm(a_path, config);
  Result<ATMatrix> b = LoadAsAtm(b_path, config);
  if (!a.ok() || !b.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 (!a.ok() ? a.status() : b.status()).ToString().c_str());
    return 1;
  }
  MultiplyPlan plan = ExplainMultiply(a.value(), b.value(), config);
  std::printf("%s", plan.ToString().c_str());
  return 0;
}

int CmdRender(const std::string& in, const std::string& out) {
  AtmConfig config = ConfigFromEnv();
  Result<ATMatrix> atm = LoadAsAtm(in, config);
  if (!atm.ok()) {
    std::fprintf(stderr, "error: %s\n", atm.status().ToString().c_str());
    return 1;
  }
  Status status = WriteTileLayoutPgm(atm.value(), out);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int CmdConvert(const std::string& in, const std::string& out) {
  AtmConfig config = ConfigFromEnv();
  // Normalize through COO.
  CooMatrix coo;
  if (EndsWith(in, ".mtx")) {
    Result<CooMatrix> read = ReadMatrixMarket(in);
    if (!read.ok()) {
      std::fprintf(stderr, "error: %s\n", read.status().ToString().c_str());
      return 1;
    }
    coo = std::move(read).value();
  } else {
    Result<ATMatrix> atm = LoadAsAtm(in, config);
    if (!atm.ok()) {
      std::fprintf(stderr, "error: %s\n", atm.status().ToString().c_str());
      return 1;
    }
    coo = atm.value().ToCoo();
  }
  Status saved = EndsWith(out, ".mtx") ? WriteMatrixMarket(coo, out)
                                       : SaveMatrix(coo, out);
  if (!saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%lld entries)\n", out.c_str(),
              (long long)coo.nnz());
  return 0;
}

int CmdGen(const std::string& id, double scale, const std::string& out) {
  CooMatrix coo = MakeWorkloadMatrix(id, scale);
  Status saved = EndsWith(out, ".mtx") ? WriteMatrixMarket(coo, out)
                                       : SaveMatrix(coo, out);
  if (!saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %lld x %lld, %lld non-zeros\n", out.c_str(),
              (long long)coo.rows(), (long long)coo.cols(),
              (long long)coo.nnz());
  return 0;
}

#if defined(ATMX_OBS_ENABLED)
// Loads both operands, checking shapes; shared by trace/metrics.
std::optional<std::pair<ATMatrix, ATMatrix>> LoadPair(
    const std::string& a_path, const std::string& b_path,
    const AtmConfig& config) {
  Result<ATMatrix> a = LoadAsAtm(a_path, config);
  Result<ATMatrix> b = LoadAsAtm(b_path, config);
  if (!a.ok() || !b.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 (!a.ok() ? a.status() : b.status()).ToString().c_str());
    return std::nullopt;
  }
  if (a.value().cols() != b.value().rows()) {
    std::fprintf(stderr, "error: shape mismatch %lld != %lld\n",
                 (long long)a.value().cols(), (long long)b.value().rows());
    return std::nullopt;
  }
  return std::make_pair(std::move(a).value(), std::move(b).value());
}
#endif  // ATMX_OBS_ENABLED

int CmdTrace(const std::string& a_path, const std::string& b_path,
             const std::string& out) {
#if defined(ATMX_OBS_ENABLED)
  AtmConfig config = ConfigFromEnv();
  auto operands = LoadPair(a_path, b_path, config);
  if (!operands) return 1;
  obs::AuditLedger& ledger = obs::AuditLedger::Global();
  obs::TraceRecorder::Global().Enable();
  ledger.SetEnabled(true);
  AtMult op(config);
  AtMultStats stats;
  ATMatrix c = op.Multiply(operands->first, operands->second, &stats);
  obs::TraceRecorder::Global().Disable();
  ledger.SetEnabled(false);
  std::printf("%s\n", stats.ToString().c_str());
  std::printf("%s", FormatDecisionLog(ledger.Snapshot().repr).c_str());
  Status saved = obs::TraceRecorder::Global().WriteJson(out);
  if (!saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %lld events (%llu dropped)\n", out.c_str(),
              (long long)obs::TraceRecorder::Global().EventCount(),
              (unsigned long long)obs::TraceRecorder::Global()
                  .DroppedEvents());
  (void)c;
  return 0;
#else
  (void)a_path;
  (void)b_path;
  (void)out;
  std::fprintf(stderr,
               "error: this binary was built with -DATMX_OBS=OFF; "
               "rebuild with -DATMX_OBS=ON for tracing\n");
  return 1;
#endif
}

// Multiplies a chain of matrices through the chain planner with the
// audit ledger on, then renders what the optimizer chose: the chain-level
// records (parenthesization, planned vs left-to-right cost, fusion
// outcome) and the per-pair representation decisions — or, with --json,
// the ledger document itself.
int CmdDecisions(const std::vector<std::string>& paths, bool as_json) {
#if defined(ATMX_OBS_ENABLED)
  AtmConfig config = ConfigFromEnv();
  std::vector<ATMatrix> matrices;
  matrices.reserve(paths.size());
  for (const std::string& path : paths) {
    Result<ATMatrix> m = LoadAsAtm(path, config);
    if (!m.ok()) {
      std::fprintf(stderr, "error: %s\n", m.status().ToString().c_str());
      return 1;
    }
    if (!matrices.empty() &&
        matrices.back().cols() != m.value().rows()) {
      std::fprintf(stderr, "error: shape mismatch %lld != %lld at %s\n",
                   (long long)matrices.back().cols(),
                   (long long)m.value().rows(), path.c_str());
      return 1;
    }
    matrices.push_back(std::move(m).value());
  }

  std::vector<const ATMatrix*> chain;
  std::vector<const DensityMap*> maps;
  for (const ATMatrix& m : matrices) {
    chain.push_back(&m);
    maps.push_back(&m.density_map());
  }

  AtMult op(config);
  ChainCostOptions cost_options;
  cost_options.fused = config.fused_chains;
  ChainPlan plan =
      PlanChain(maps, op.cost_model(), config.rho_write, cost_options);
  obs::AuditLedger& ledger = obs::AuditLedger::Global();
  ledger.SetEnabled(true);
  ChainExecStats stats;
  ATMatrix c = ExecuteChain(chain, plan, op, &stats);
  ledger.SetEnabled(false);
  if (as_json) {
    std::printf("%s\n", ledger.ToJson().c_str());
  } else {
    const obs::AuditLedgerDoc doc = ledger.Snapshot();
    std::printf("%s\n", stats.total.ToString().c_str());
    std::printf("%s", FormatChainDecisions(doc.chain).c_str());
    std::printf("%s", FormatDecisionLog(doc.repr).c_str());
  }
  (void)c;
  return 0;
#else
  (void)paths;
  (void)as_json;
  std::fprintf(stderr,
               "error: this binary was built with -DATMX_OBS=OFF; "
               "rebuild with -DATMX_OBS=ON for the decision audit\n");
  return 1;
#endif
}

int CmdMetrics(const std::string& a_path, const std::string& b_path,
               bool as_json) {
#if defined(ATMX_OBS_ENABLED)
  AtmConfig config = ConfigFromEnv();
  auto operands = LoadPair(a_path, b_path, config);
  if (!operands) return 1;
  AtMult op(config);
  AtMultStats stats;
  ATMatrix c = op.Multiply(operands->first, operands->second, &stats);
  if (as_json) {
    std::printf("%s\n", obs::MetricsRegistry::Global().ToJson().c_str());
  } else {
    std::printf("%s\n%s", stats.ToString().c_str(),
                obs::MetricsRegistry::Global().ToTable().c_str());
  }
  (void)c;
  return 0;
#else
  (void)a_path;
  (void)b_path;
  (void)as_json;
  std::fprintf(stderr,
               "error: this binary was built with -DATMX_OBS=OFF; "
               "rebuild with -DATMX_OBS=ON for metrics\n");
  return 1;
#endif
}

int CmdProfile(const std::string& a_path, const std::string& b_path) {
#if defined(ATMX_OBS_ENABLED)
  AtmConfig config = ConfigFromEnv();
  auto operands = LoadPair(a_path, b_path, config);
  if (!operands) return 1;
  AtMult op(config);
  AtMultStats stats;
  ATMatrix c = op.Multiply(operands->first, operands->second, &stats);
  (void)c;
  std::printf("%s\n\n", stats.ToString().c_str());

  // Index the registry snapshot by name.
  std::map<std::string, const obs::MetricSample*> by_name;
  const std::vector<obs::MetricSample> snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  for (const obs::MetricSample& sample : snapshot) {
    by_name[sample.name] = &sample;
  }
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    auto it = by_name.find(name);
    return it != by_name.end() ? it->second->counter_value : 0;
  };
  const auto gauge = [&](const std::string& name) -> double {
    auto it = by_name.find(name);
    return it != by_name.end() ? it->second->gauge_value : 0.0;
  };

  if (gauge("perf.available") == 0.0) {
    std::printf(
        "note: hardware counters unavailable (perf_event_open failed or "
        "ATMX_PERF=0) — timing-only profile.\n\n");
  } else if (gauge("perf.hw_available") == 0.0) {
    std::printf(
        "note: PMU hardware events unavailable on this machine — software "
        "counters (task clock) only.\n\n");
  }

  // Kernel variants = the eight GEMM kernels plus the pseudo-variant of a
  // tile task's row loop that mixes variants, and the SpMV entry points.
  std::vector<std::string> variants;
  for (int k = 0; k < kNumKernelTypes; ++k) {
    variants.push_back(KernelPerfMetricPrefix(static_cast<KernelType>(k)));
  }
  variants.push_back("kernel.mixed_loop");
  variants.push_back("kernel.spmv_csr");
  variants.push_back("kernel.spmv_atm");
  variants.push_back("kernel.spmv_atm_parallel");

  TablePrinter table({"Variant", "invocations", "cycles", "instr", "ipc",
                      "llc_loads", "llc_miss%", "task_clock[ms]"});
  for (const std::string& prefix : variants) {
    const std::string variant = prefix.substr(std::strlen("kernel."));
    const std::uint64_t invocations =
        counter("atmult.kernel." + variant + ".invocations");
    const std::uint64_t cycles = counter(prefix + ".cycles");
    const std::uint64_t instructions = counter(prefix + ".instructions");
    const std::uint64_t llc_loads = counter(prefix + ".llc_loads");
    const std::uint64_t llc_misses = counter(prefix + ".llc_misses");
    const std::uint64_t task_clock = counter(prefix + ".task_clock_ns");
    if (invocations == 0 && cycles == 0 && task_clock == 0) continue;
    table.AddRow(
        {variant, std::to_string(invocations), std::to_string(cycles),
         std::to_string(instructions),
         cycles > 0 ? TablePrinter::Fmt(static_cast<double>(instructions) /
                                            static_cast<double>(cycles),
                                        2)
                    : std::string("-"),
         std::to_string(llc_loads),
         llc_loads > 0
             ? TablePrinter::Fmt(100.0 * static_cast<double>(llc_misses) /
                                     static_cast<double>(llc_loads),
                                 2)
             : std::string("-"),
         TablePrinter::Fmt(static_cast<double>(task_clock) / 1e6, 3)});
  }
  table.Print();

  // Peak RSS is the kernel's number; ru_maxrss is in KiB on Linux.
  rusage usage{};
  const std::size_t rss_peak_bytes =
      getrusage(RUSAGE_SELF, &usage) == 0
          ? static_cast<std::size_t>(usage.ru_maxrss) * 1024
          : 0;
  std::printf("\nmemory: tracked high-water %s (current %s), "
              "rss high-water %s\n",
              TablePrinter::FmtBytes(
                  static_cast<std::size_t>(gauge("mem.high_water_bytes")))
                  .c_str(),
              TablePrinter::FmtBytes(
                  static_cast<std::size_t>(gauge("mem.current_bytes")))
                  .c_str(),
              TablePrinter::FmtBytes(rss_peak_bytes).c_str());
  std::printf("water-level: predicted %s, result %s\n",
              TablePrinter::FmtBytes(static_cast<std::size_t>(
                                         gauge("atmult.waterlevel."
                                               "predicted_bytes")))
                  .c_str(),
              TablePrinter::FmtBytes(
                  static_cast<std::size_t>(gauge("atmult.result_bytes")))
                  .c_str());
  return 0;
#else
  (void)a_path;
  (void)b_path;
  std::fprintf(stderr,
               "error: this binary was built with -DATMX_OBS=OFF; "
               "rebuild with -DATMX_OBS=ON for profiling\n");
  return 1;
#endif
}

#if defined(ATMX_OBS_ENABLED)
// One `atmx watch` tick: everything needed to turn two consecutive
// /metrics.json scrapes into a rate table.
struct WatchSample {
  std::chrono::steady_clock::time_point when;
  std::map<std::string, double> values;
};

// Every top-level number of one /metrics.json body; histograms are
// objects and stay out of the table.
Result<WatchSample> MakeWatchSample(const std::string& body) {
  Result<obs::JsonValue> doc = obs::ParseJson(body);
  if (!doc.ok()) return doc.status();
  if (!doc.value().is_object()) {
    return Status::InvalidArgument("document is not a JSON object");
  }
  WatchSample sample;
  sample.when = std::chrono::steady_clock::now();
  for (const auto& [name, value] : doc.value().members) {
    if (value.is_number()) sample.values.emplace(name, value.number_value);
  }
  return sample;
}

std::string FmtWatchValue(double value) {
  const double rounded = std::nearbyint(value);
  if (std::fabs(value - rounded) < 1e-9 && std::fabs(value) < 1e15) {
    return std::to_string(static_cast<long long>(rounded));
  }
  return TablePrinter::Fmt(value, 3);
}
#endif  // ATMX_OBS_ENABLED

int CmdWatch(const std::string& url, int interval_ms, int count) {
#if defined(ATMX_OBS_ENABLED)
  Result<obs::HttpUrl> parsed = obs::ParseHttpUrl(url);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  obs::HttpUrl target = parsed.value();
  // Watch consumes the JSON document; accept a bare host:port or a
  // /metrics URL and land on /metrics.json either way.
  if (target.path == "/" || target.path == "/metrics") {
    target.path = "/metrics.json";
  }

  const bool is_tty = isatty(STDOUT_FILENO) != 0;
  std::optional<WatchSample> previous;
  int successful_scrapes = 0;
  for (int tick = 0; count <= 0 || tick < count; ++tick) {
    Result<std::string> body =
        obs::HttpGet(target.host, target.port, target.path);
    if (!body.ok()) {
      // Both failure shapes are errors: a watch that cannot scrape has
      // nothing to report, and CI wrappers key off the exit status.
      if (successful_scrapes > 0) {
        std::fprintf(stderr,
                     "error: watch: endpoint disconnected after %d scrapes "
                     "(%s)\n",
                     successful_scrapes, body.status().ToString().c_str());
      } else {
        std::fprintf(stderr, "error: watch: endpoint unreachable (%s)\n",
                     body.status().ToString().c_str());
      }
      return 1;
    }
    Result<WatchSample> parsed_sample = MakeWatchSample(body.value());
    if (!parsed_sample.ok()) {
      std::fprintf(stderr, "error: watch: malformed %s (%s)\n",
                   target.path.c_str(),
                   parsed_sample.status().ToString().c_str());
      return 1;
    }
    ++successful_scrapes;
    WatchSample sample = std::move(parsed_sample).value();

    if (previous) {
      const double dt =
          std::chrono::duration<double>(sample.when - previous->when)
              .count();
      // Rows: every metric that moved since the last scrape, with a
      // client-side delta/s.
      struct Row {
        const std::string* name;
        double value;
        double rate;
      };
      std::vector<Row> rows;
      for (const auto& [name, value] : sample.values) {
        const auto old = previous->values.find(name);
        const double delta =
            old != previous->values.end() ? value - old->second : value;
        if (delta == 0.0) continue;
        rows.push_back({&name, value, dt > 0.0 ? delta / dt : 0.0});
      }
      std::stable_sort(rows.begin(), rows.end(),
                       [](const Row& a, const Row& b) {
                         return std::fabs(a.rate) > std::fabs(b.rate);
                       });
      constexpr std::size_t kMaxRows = 30;
      const std::size_t shown = std::min(rows.size(), kMaxRows);

      if (is_tty && tick > 1) std::printf("\x1b[H\x1b[2J");
      std::printf("watch %s:%d%s  tick %d  dt %.2fs  (%zu of %zu moving)\n",
                  target.host.c_str(), target.port, target.path.c_str(),
                  tick, dt, shown, rows.size());
      TablePrinter table({"metric", "value", "delta/s"});
      for (std::size_t i = 0; i < shown; ++i) {
        table.AddRow({*rows[i].name, FmtWatchValue(rows[i].value),
                      TablePrinter::Fmt(rows[i].rate, 1)});
      }
      table.Print();
      if (rows.empty()) std::printf("(idle: no metric moved)\n");
      std::printf("\n");
      std::fflush(stdout);
    } else {
      const std::string ticks_note =
          count > 0 ? " for " + std::to_string(count) + " ticks"
                    : std::string();
      std::printf("watch: %zu metrics at %s:%d%s, polling every %d ms%s\n",
                  sample.values.size(), target.host.c_str(), target.port,
                  target.path.c_str(), interval_ms, ticks_note.c_str());
      std::fflush(stdout);
    }
    previous = std::move(sample);
    if (count > 0 && tick + 1 >= count) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
#else
  (void)url;
  (void)interval_ms;
  (void)count;
  std::fprintf(stderr,
               "error: this binary was built with -DATMX_OBS=OFF; "
               "rebuild with -DATMX_OBS=ON for watch\n");
  return 1;
#endif
}

// Replays a prediction-vs-outcome audit ledger (--audit-out /
// ATMX_AUDIT_OUT): per-class error distributions, worst mispredictions,
// the counterfactual regret pass, and optionally a calibration-drift
// gate against a committed baseline envelope. Deterministic: the same
// ledger always produces the same report. The replay calls the
// production cost model and decision rules, so it cannot drift from
// what the optimizer does.
int CmdAudit(const std::string& ledger_path, const std::string& gate_path,
             std::size_t worst_n, double inject_density_scale,
             const std::string& envelope_out) {
#if defined(ATMX_OBS_ENABLED)
  Result<obs::AuditLedgerDoc> loaded = obs::LoadAuditLedger(ledger_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  obs::AuditLedgerDoc ledger = loaded.value();
  if (inject_density_scale > 0.0 && inject_density_scale != 1.0) {
    obs::InjectDensityMisestimate(&ledger, inject_density_scale);
    std::printf("audit: injected %gx density misestimate (negative test)\n",
                inject_density_scale);
  }
  const obs::AuditReport report = obs::BuildAuditReport(ledger, worst_n);
  std::printf("%s", obs::RenderAuditReportText(report).c_str());

  if (!envelope_out.empty()) {
    const std::string envelope = obs::RenderAuditEnvelopeJson(report, 1.5);
    std::FILE* f = std::fopen(envelope_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: audit: cannot write %s\n",
                   envelope_out.c_str());
      return 1;
    }
    const bool ok =
        std::fwrite(envelope.data(), 1, envelope.size(), f) ==
        envelope.size();
    std::fclose(f);
    if (!ok) {
      std::fprintf(stderr, "error: audit: short write to %s\n",
                   envelope_out.c_str());
      return 1;
    }
    std::printf("audit: wrote envelope %s\n", envelope_out.c_str());
  }

  if (!gate_path.empty()) {
    std::FILE* f = std::fopen(gate_path.c_str(), "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "error: audit: cannot read %s\n",
                   gate_path.c_str());
      return 1;
    }
    std::string text;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      text.append(buf, got);
    }
    std::fclose(f);
    Result<obs::JsonValue> baseline = obs::ParseJson(text);
    if (!baseline.ok()) {
      std::fprintf(stderr, "error: audit: %s: %s\n", gate_path.c_str(),
                   baseline.status().ToString().c_str());
      return 1;
    }
    const obs::AuditGateResult gate =
        obs::EvaluateAuditGate(report, baseline.value());
    std::printf("%s", gate.text.c_str());
    if (!gate.ok) {
      std::fprintf(stderr,
                   "error: audit: calibration drift — %d bound(s) "
                   "regressed vs %s\n",
                   gate.regressions, gate_path.c_str());
      return 1;
    }
    std::printf("audit: gate ok (%s)\n", gate_path.c_str());
  }
  return 0;
#else
  (void)ledger_path;
  (void)gate_path;
  (void)worst_n;
  (void)inject_density_scale;
  (void)envelope_out;
  std::fprintf(stderr,
               "error: this binary was built with -DATMX_OBS=OFF; "
               "rebuild with -DATMX_OBS=ON for audit\n");
  return 1;
#endif
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  atmx info <file>\n"
               "  atmx partition <in> <out>\n"
               "  atmx multiply <a> <b> <out>\n"
               "  atmx explain <a> <b>\n"
               "  atmx render <in> <out.pgm>\n"
               "  atmx convert <in> <out>\n"
               "  atmx gen <workload-id> <scale> <out>\n"
               "  atmx trace <a> <b> <out.trace.json>\n"
               "  atmx decisions <a> <b> [<c> ...] [--json]\n"
               "  atmx metrics <a> <b> [--json]\n"
               "  atmx profile <a> <b>\n"
               "  atmx watch <url> [--interval=ms] [--count=n]\n"
               "  atmx audit <ledger.json> [--gate=<baseline.json>]\n"
               "             [--worst=n] [--inject-density-scale=f]\n"
               "             [--write-envelope=<out.json>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "info" && argc == 3) return CmdInfo(argv[2]);
  if (cmd == "partition" && argc == 4) return CmdPartition(argv[2], argv[3]);
  if (cmd == "multiply" && argc == 5) {
    return CmdMultiply(argv[2], argv[3], argv[4]);
  }
  if (cmd == "explain" && argc == 4) return CmdExplain(argv[2], argv[3]);
  if (cmd == "render" && argc == 4) return CmdRender(argv[2], argv[3]);
  if (cmd == "convert" && argc == 4) return CmdConvert(argv[2], argv[3]);
  if (cmd == "gen" && argc == 5) {
    return CmdGen(argv[2], std::atof(argv[3]), argv[4]);
  }
  if (cmd == "trace" && argc == 5) {
    return CmdTrace(argv[2], argv[3], argv[4]);
  }
  if (cmd == "decisions" && argc >= 4) {
    bool as_json = false;
    std::vector<std::string> paths;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) {
        as_json = true;
      } else {
        paths.emplace_back(argv[i]);
      }
    }
    if (paths.size() < 2) return Usage();
    return CmdDecisions(paths, as_json);
  }
  if (cmd == "metrics" && (argc == 4 || argc == 5)) {
    const bool as_json = argc == 5 && std::strcmp(argv[4], "--json") == 0;
    if (argc == 5 && !as_json) return Usage();
    return CmdMetrics(argv[2], argv[3], as_json);
  }
  if (cmd == "profile" && argc == 4) return CmdProfile(argv[2], argv[3]);
  if (cmd == "watch" && argc >= 3) {
    int interval_ms = 1000;
    int count = 0;  // 0 = poll until the endpoint disappears
    for (int i = 3; i < argc; ++i) {
      static constexpr char kInterval[] = "--interval=";
      static constexpr char kCount[] = "--count=";
      if (std::strncmp(argv[i], kInterval, sizeof(kInterval) - 1) == 0) {
        interval_ms = std::atoi(argv[i] + sizeof(kInterval) - 1);
      } else if (std::strncmp(argv[i], kCount, sizeof(kCount) - 1) == 0) {
        count = std::atoi(argv[i] + sizeof(kCount) - 1);
      } else {
        return Usage();
      }
    }
    if (interval_ms < 1) interval_ms = 1;
    return CmdWatch(argv[2], interval_ms, count);
  }
  if (cmd == "audit" && argc >= 3) {
    std::string gate_path;
    std::string envelope_out;
    std::size_t worst_n = 10;
    double inject_density_scale = 0.0;
    for (int i = 3; i < argc; ++i) {
      static constexpr char kGate[] = "--gate=";
      static constexpr char kWorst[] = "--worst=";
      static constexpr char kInject[] = "--inject-density-scale=";
      static constexpr char kEnvelope[] = "--write-envelope=";
      if (std::strncmp(argv[i], kGate, sizeof(kGate) - 1) == 0) {
        gate_path = argv[i] + sizeof(kGate) - 1;
      } else if (std::strncmp(argv[i], kWorst, sizeof(kWorst) - 1) == 0) {
        worst_n = static_cast<std::size_t>(
            std::atoll(argv[i] + sizeof(kWorst) - 1));
      } else if (std::strncmp(argv[i], kInject, sizeof(kInject) - 1) == 0) {
        inject_density_scale = std::atof(argv[i] + sizeof(kInject) - 1);
      } else if (std::strncmp(argv[i], kEnvelope, sizeof(kEnvelope) - 1) ==
                 0) {
        envelope_out = argv[i] + sizeof(kEnvelope) - 1;
      } else {
        return Usage();
      }
    }
    return CmdAudit(argv[2], gate_path, worst_n, inject_density_scale,
                    envelope_out);
  }
  return Usage();
}
