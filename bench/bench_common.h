// Shared infrastructure of the figure/table reproduction harnesses: the
// benchmark configuration (scaled to the host via environment variables),
// timing helpers, and the baseline kernel runners every figure compares
// against.
//
// Environment knobs (all optional):
//   ATMX_SCALE    linear workload scale vs. Table I (default 0.03)
//   ATMX_LLC      simulated last-level cache bytes   (default 1 MiB)
//   ATMX_TEAMS    worker teams                       (default 1)
//   ATMX_THREADS  threads per team                   (default 1)
//   ATMX_CALIBRATE set to 1 to micro-calibrate the cost model first
//   ATMX_TRACE_OUT  path; when set (and the library is built with
//                   ATMX_OBS=ON) the bench records a Chrome trace and
//                   the audit ledger, and writes the trace there at exit
//   ATMX_BENCH_OUT  path; when set the bench writes a machine-readable
//                   BENCH JSON report there at exit (works in any build;
//                   hardware-counter fields appear only under ATMX_OBS=ON)
//   ATMX_BENCH_REPS timed repetitions per reported case (default 3)
//   ATMX_GIT_SHA    recorded verbatim in the report ("unknown" if unset)
//   ATMX_STATS_PORT when set (and ATMX_OBS=ON): serve live stats on
//                   127.0.0.1:<port> (0 = ephemeral; the bound port is
//                   printed on stderr) and install the crash flight
//                   recorder
//   ATMX_STATS_PERIOD_MS  flight-recorder refresh period (default 250)
//   ATMX_STATS_LINGER     seconds to keep serving after the bench body
//                         finishes, so short runs stay scrape-able in CI
//   ATMX_FLIGHT     1/0 — install the flight recorder independently of
//                   (or suppress it despite) ATMX_STATS_PORT
//   ATMX_AUDIT_OUT  path; when set (and ATMX_OBS=ON) the bench records
//                   the prediction-vs-outcome audit ledger and writes the
//                   schema-versioned JSON there at exit (replayed by
//                   `atmx audit`)

#ifndef ATMX_BENCH_BENCH_COMMON_H_
#define ATMX_BENCH_BENCH_COMMON_H_

#include <functional>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/table_printer.h"
#include "cost/cost_model.h"
#include "gen/workloads.h"
#include "storage/coo_matrix.h"
#include "storage/csr_matrix.h"
#include "storage/dense_matrix.h"

namespace atmx::bench {

struct BenchEnv {
  double scale = 0.03;
  AtmConfig config;
  CostModel cost_model;

  // Parses the ATMX_* environment variables. Also arms tracing when
  // ATMX_TRACE_OUT is set (see MaybeEnableTracing).
  static BenchEnv FromEnvironment();

  // Header line describing the environment (printed by every bench).
  std::string Describe() const;
};

// Wall time of fn() in seconds; re-runs short measurements (< 50 ms) twice
// more and reports the median so the suite stays fast yet stable.
double MeasureSeconds(const std::function<void()>& fn);

// The paper's baselines (section IV-C), all sequential like the MATLAB/R
// algorithms the paper compares to:
//   spspsp_gemm — plain Gustavson CSR x CSR -> CSR (the "1.0" baseline)
//   spspd_gemm  — CSR x CSR -> dense array
//   spdd_gemm   — CSR x (densified B) -> dense array
//   ddd_gemm    — densified A x densified B -> dense array
struct BaselineResult {
  double seconds = 0.0;
  std::size_t result_bytes = 0;
  bool ran = false;  // dense baselines are skipped for infeasible sizes
};

BaselineResult RunSpspsp(const CsrMatrix& a, const CsrMatrix& b);
BaselineResult RunSpspd(const CsrMatrix& a, const CsrMatrix& b);
// max_dense_dim guards the O(n^2) dense materializations on big inputs.
BaselineResult RunSpdd(const CsrMatrix& a, const CsrMatrix& b,
                       index_t max_dense_dim);
BaselineResult RunDdd(const CsrMatrix& a, const CsrMatrix& b,
                      index_t max_dense_dim);

// Formats a relative performance number ("3.42x") or "-" if not run.
std::string FmtSpeedup(const BaselineResult& baseline, double atmult_seconds);
std::string FmtRel(const BaselineResult& baseline,
                   const BaselineResult& reference);

// Arms the trace recorder + audit ledger and registers an atexit hook
// that writes the Chrome trace JSON to `path`. With a library built under
// ATMX_OBS=OFF this prints a warning and does nothing. Idempotent; the
// last path wins.
void EnableTracingTo(const std::string& path);

// Scans argv for `--trace-out=<path>` (calling EnableTracingTo on a
// match) and honours the ATMX_TRACE_OUT environment variable. Benches
// call this first thing in main().
void MaybeEnableTracing(int argc, char** argv);

// Arms the prediction-vs-outcome audit ledger (obs::AuditLedger) and
// registers an atexit hook writing the schema-versioned ledger JSON to
// `path`. Under ATMX_OBS=OFF this prints a warning and does nothing.
void EnableAuditOutputTo(const std::string& path);

// Scans argv for `--audit-out=<path>` and honours ATMX_AUDIT_OUT.
// Included in InitBenchTelemetry.
void MaybeEnableAuditOut(int argc, char** argv);

// Machine-readable benchmark report (schema_version 1):
//
//   {"schema_version": 1, "bench": "<name>", "git_sha": "...",
//    "unix_time": <sec>, "config": {"scale": ..., "llc_bytes": ...,
//    "b_atomic": ..., "teams": ..., "threads": ..., "rho_read": ...,
//    "rho_write": ..., "obs_enabled": 0|1, "perf_counters": 0|1},
//    "cases": [{"name": "...", "repetitions": N,
//               "wall_seconds": {"min": ..., "median": ..., "p95": ...,
//                                "max": ..., "samples": [...]},
//               "counters": {"cycles": ..., ...}}]}
//
// "counters" is present only when hardware counters were live for the
// case. tools/compare_bench.py consumes two of these files and gates on
// wall-time regressions; the schema_version must be bumped on any
// incompatible change.
class BenchReporter {
 public:
  static BenchReporter& Global();

  // Records the bench name and the environment the numbers were taken
  // under. Call once, right after BenchEnv::FromEnvironment().
  void Configure(const std::string& bench_name, const BenchEnv& env);

  // Arms report output: registers an atexit hook writing the JSON to
  // `path`. Idempotent; the last path wins.
  void ArmOutput(const std::string& path);
  bool armed() const { return !out_path_.empty(); }

  // Timed repetitions per case when armed (ATMX_BENCH_REPS, default 3).
  int repetitions() const { return repetitions_; }

  // Measures fn() and returns the median wall time in seconds. When the
  // reporter is not armed this is exactly MeasureSeconds(fn); when armed
  // it runs repetitions() timed runs, records all samples under `name`,
  // and (ATMX_OBS=ON, counters live) attaches the summed hardware-counter
  // deltas of the calling thread.
  double MeasureCase(const std::string& name, const std::function<void()>& fn);

  // Appends one externally timed sample to `name` (no-op when not armed).
  // For one-shot measurements that are too expensive to repeat.
  void AddSample(const std::string& name, double seconds);

  // The report as a JSON string / written to a file.
  std::string ToJson() const;
  bool WriteJson(const std::string& path) const;

  // Drops all recorded cases and configuration (for tests).
  void Clear();

 private:
  friend void MaybeEnableBenchReport(const std::string& bench_name, int argc,
                                     char** argv);

  struct Case {
    std::string name;
    std::vector<double> samples;
    bool has_counters = false;
    unsigned counters_present = 0;
    unsigned long long counters[6] = {0, 0, 0, 0, 0, 0};
  };

  Case* FindOrAddCase(const std::string& name);

  std::string bench_name_ = "unnamed";
  std::string out_path_;
  int repetitions_ = 3;
  bool configured_ = false;
  double scale_ = 0.0;
  long long llc_bytes_ = 0;
  long long b_atomic_ = 0;
  int teams_ = 0;
  int threads_ = 0;
  double rho_read_ = 0.0;
  double rho_write_ = 0.0;
  std::vector<Case> cases_;
};

// Scans argv for `--bench-out=<path>` and honours the ATMX_BENCH_OUT
// environment variable; arms BenchReporter::Global() on a match. Benches
// call this next to MaybeEnableTracing in main().
void MaybeEnableBenchReport(const std::string& bench_name, int argc,
                            char** argv);

// Scans argv for `--stats-port=<port>` (ATMX_STATS_PORT as fallback) and,
// on a match, starts the embedded stats server on 127.0.0.1 (port 0 =
// ephemeral; the bound port is announced on stderr as
// `stats: serving http://127.0.0.1:<port>/metrics`) and installs the
// crash flight recorder, refreshing every ATMX_STATS_PERIOD_MS
// (suppressible via ATMX_FLIGHT=0; ATMX_FLIGHT=1 installs it even without
// a stats port). An atexit hook lingers ATMX_STATS_LINGER seconds, then
// uninstalls the recorder (stopping its refresh thread) and stops the
// server. Under ATMX_OBS=OFF this warns and does nothing.
void MaybeStartStatsServer(int argc, char** argv);

// One-call telemetry init for bench main()s: MaybeEnableTracing +
// MaybeEnableBenchReport + MaybeEnableAuditOut + MaybeStartStatsServer.
void InitBenchTelemetry(const std::string& bench_name, int argc,
                        char** argv);

}  // namespace atmx::bench

#endif  // ATMX_BENCH_BENCH_COMMON_H_
