// Prediction-vs-outcome audit ledger: the one decision stream of the
// library. It joins every cost-model-driven decision with its measured
// outcome, so estimator calibration is a measured quantity, not a belief.
// Six decision classes are tracked:
//
//   density    predicted vs actual result density per atomic block
//   cost       predicted task cost (model units) vs measured wall time
//   waterlevel projected result bytes vs materialized result bytes
//   spa_mode   predicted vs realized rows-nnz feeding SPA ChooseMode
//   repr       per-pair representation decisions with full replay inputs
//              (ReprAuditRecord, ops/optimizer.h: the pair planner's record)
//   chain      chain plan, fusion outcome and cost vs measured time
//
// Each record observes a bounded symmetric relative error into an
// `estimator.err.<class>` histogram (OpenMetrics `/metrics`) and is
// retained for the schema-versioned JSON ledger (`/decisions`,
// `--audit-out` / `ATMX_AUDIT_OUT`, `atmx decisions --json`). The decision
// tables of `atmx trace` / `atmx decisions` (ops/explain.h) and the
// flight-recorder tail render from the same records; `atmx explain` renders
// the planner's records of a product before it runs. `atmx audit` replays
// a ledger offline: error distributions (p50/p95/max), worst-N
// mispredictions, and a counterfactual pass that re-runs the production
// cost model with *measured* inputs to count "regret" decisions — choices
// that would flip with perfect estimates. See docs/OBSERVABILITY.md
// ("Prediction audit").
//
// Locking discipline: record paths take the ledger mutex only to append;
// serialization snapshots under the mutex and performs all file I/O
// outside it (tools/atmx_lint.py check no-lock-across-file-io).

#ifndef ATMX_OBS_AUDIT_LEDGER_H_
#define ATMX_OBS_AUDIT_LEDGER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "cost/cost_model.h"
#include "obs/json_util.h"
#include "ops/optimizer.h"

namespace atmx::obs {

inline constexpr int kAuditLedgerSchemaVersion = 1;

// Bounded symmetric relative error: |predicted - actual| /
// max(predicted, actual) in [0, 1], and exactly 0 when both sides are 0
// (or when predicted == actual — the all-dense case must report 0.0, not
// an epsilon). Both inputs must be non-negative.
double SymmetricRelError(double predicted, double actual);

// Nearest-rank percentile over an unsorted sample (q in [0, 1]); 0 for
// an empty sample: rank = max(0, ceil(q * count) - 1) over the sorted
// sample.
double Percentile(std::vector<double> values, double q);

// ---- Ledger records, one struct per decision class ----

struct DensityAuditRecord {
  std::uint64_t op = 0;
  index_t bi = 0, bj = 0;  // atomic-block coordinates in the result grid
  double predicted = 0.0;  // estimator block density
  double actual = 0.0;     // measured block density
};

struct CostAuditRecord {
  std::uint64_t op = 0;
  index_t ti = 0, tj = 0;        // tile-task coordinates
  double predicted_cost = 0.0;   // cost-model units (pair costs + write)
  double measured_seconds = 0.0; // task wall time
  double measured_cpu_ns = 0.0;  // perf task clock; 0 when unavailable
  std::uint64_t measured_cycles = 0;  // perf cycles; 0 when unavailable
  int kernel = -1;  // dominant KernelType; -1 when pairs mixed variants
};

struct WaterLevelAuditRecord {
  std::uint64_t op = 0;
  double rho_w = 0.0;                    // effective write threshold
  std::uint64_t projected_bytes = 0;     // water-level projection
  std::uint64_t result_bytes = 0;        // materialized result
  std::uint64_t high_water_bytes = 0;    // MemTracker high water at close
  // False when the SLA sat below the minimum achievable footprint and the
  // threshold was clamped to the memory-minimal floor (the
  // `waterlevel.infeasible` counter ticks alongside).
  bool feasible = true;
};

struct SpaModeAuditRecord {
  std::uint64_t op = 0;
  index_t ti = 0, tj = 0;
  index_t width = 0;               // accumulator width (tile cols)
  double predicted_row_nnz = 0.0;  // ChooseMode input; < 0 = no estimate
  double actual_row_nnz = 0.0;     // realized tile nnz / rows
  int chosen_mode = 0;             // SparseAccumulator::Mode as int
};

// One executed chain multiplication: the planner's choice and the
// realized execution shape.
struct ChainAuditRecord {
  std::uint64_t op = 0;
  std::string plan;                // parenthesization, e.g. "((A0*A1)*A2)"
  index_t length = 0;              // matrices in the chain
  double planned_cost = 0.0;       // chosen parenthesization, model units
  double alternative_cost = 0.0;   // left-to-right baseline
  bool fused = false;
  // Why fusion was declined ("" when fused): "disabled", "short_chain",
  // "no_estimation", or "budget_infeasible".
  std::string fallback_reason;
  index_t fused_tasks = 0;         // tile tasks in the fused DAG (0 unfused)
  double measured_seconds = 0.0;
  // Chain-scope memory budget (0 = unbounded), the water level's projected
  // resident peak and the measured resident peak the execution reached.
  std::uint64_t budget_bytes = 0;
  std::uint64_t projected_peak_bytes = 0;
  std::uint64_t resident_peak_bytes = 0;
  // Effective write threshold per product (post-order; joins against the
  // waterlevel class per product via `atmx audit`).
  std::vector<double> rho_w;
  // One line per product in the same order, e.g.
  // "pairs=12 kernels=34 ... multiply=0.01s".
  std::vector<std::string> products;
};

// Everything one ledger holds: the in-memory snapshot and the parsed
// form of a ledger file are the same type. Records are oldest first.
struct AuditLedgerDoc {
  int schema_version = kAuditLedgerSchemaVersion;
  std::string git_sha;
  std::int64_t unix_time = 0;  // wall clock at Snapshot
  CostParams cost_params;
  bool have_cost_params = false;
  std::uint64_t dropped = 0;  // oldest records evicted by the per-class cap
  std::deque<DensityAuditRecord> density;
  std::deque<CostAuditRecord> cost;
  std::deque<WaterLevelAuditRecord> waterlevel;
  std::deque<SpaModeAuditRecord> spa_mode;
  std::deque<ReprAuditRecord> repr;
  std::deque<ChainAuditRecord> chain;

  bool empty() const {
    return density.empty() && cost.empty() && waterlevel.empty() &&
           spa_mode.empty() && repr.empty() && chain.empty();
  }
};

std::string RenderAuditLedgerJson(const AuditLedgerDoc& doc);
// The ledger's `repr` array alone (the flight recorder's decision tail).
std::string RenderReprRecordsJson(const std::deque<ReprAuditRecord>& records);
[[nodiscard]] Result<AuditLedgerDoc> ParseAuditLedgerJson(std::string_view text);
[[nodiscard]] Result<AuditLedgerDoc> LoadAuditLedger(const std::string& path);

// ---- Offline report (the `atmx audit` replay) ----

struct AuditErrorStats {
  std::size_t count = 0;
  double p50 = 0.0, p95 = 0.0, max = 0.0, mean = 0.0;
};

struct AuditWorstEntry {
  std::string decision_class;
  std::uint64_t op = 0;
  index_t ti = 0, tj = 0;  // tile/block coordinates of the misprediction
  double predicted = 0.0, actual = 0.0;
  double err = 0.0;
};

struct AuditReport {
  AuditErrorStats density, cost, waterlevel, spa_mode, repr, chain;
  // Counterfactual pass over repr records: how many pair decisions would
  // pick a different kernel if the estimator had returned the measured
  // result density, and the cost-unit gap that choosing "wrong" left on
  // the table under the measured inputs.
  std::size_t repr_considered = 0;
  std::size_t repr_regret = 0;
  double repr_regret_cost = 0.0;
  // SPA ChooseMode replayed with the realized rows-nnz.
  std::size_t spa_considered = 0;
  std::size_t spa_regret = 0;
  // Water-level records whose memory SLA was below the minimum achievable
  // footprint (threshold clamped to the memory-minimal floor).
  std::size_t waterlevel_infeasible = 0;
  // Seconds per cost unit fitted over the ledger (cost / chain classes
  // compare model units against wall time through this scale).
  double cost_scale = 0.0;
  double chain_scale = 0.0;
  std::vector<AuditWorstEntry> worst;  // across classes, worst first
};

// Deterministic: the report is a pure function of the document (the
// counterfactual pass re-runs DecidePairRepresentations with the
// ledger's own CostParams).
AuditReport BuildAuditReport(const AuditLedgerDoc& doc, std::size_t worst_n);

std::string RenderAuditReportText(const AuditReport& report);

// ---- Calibration-drift gate (compare_bench.py-style verdicts) ----

struct AuditGateResult {
  bool ok = true;
  int regressions = 0;
  std::string text;  // one verdict line per checked envelope bound
};

// Checks the report against a committed baseline envelope document:
//   {"schema_version":1,"kind":"atmx_audit_baseline",
//    "classes":{"density":{"p50":..,"p95":..,"max":..}, ...},
//    "max_repr_regret_fraction":..,"max_spa_regret_fraction":..}
// Every bound present in the baseline must hold for the report (classes
// with zero records are skipped with a SKIP verdict). ok == false iff
// any bound is exceeded.
AuditGateResult EvaluateAuditGate(const AuditReport& report,
                                  const JsonValue& baseline);

// Worsens every density prediction in `doc` by pushing it `scale`-x
// further away from its measured value (multiplied when over-predicting,
// divided when under-predicting; capped at 1.0 where the value is a
// density) — the CI negative test injects a 2x misestimate and asserts
// the drift gate fails. Scaling away from the measurement (rather than
// blindly multiplying) guarantees the error grows regardless of the
// estimator's bias direction.
void InjectDensityMisestimate(AuditLedgerDoc* doc, double scale);

// Serializes an envelope baseline derived from `report`: each class
// bound is the measured value times `margin` (floored at a small
// absolute slack so near-zero measurements do not produce unholdable
// envelopes), regret fractions likewise.
std::string RenderAuditEnvelopeJson(const AuditReport& report, double margin);

// ---- The process-global ledger ----

class AuditLedger {
 public:
  static AuditLedger& Global();

  // Recording is off by default. Record* append unconditionally; the
  // instrumented operators check enabled() before building a record.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Fresh id grouping the records of one operation.
  std::uint64_t NextOpId() {
    return next_op_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // Stamps the cost parameters the recording operation decided with
  // (required for counterfactual replay; last writer wins).
  void SetCostParams(const CostParams& params);

  void RecordDensity(const DensityAuditRecord& r);
  void RecordCost(const CostAuditRecord& r);
  void RecordWaterLevel(const WaterLevelAuditRecord& r);
  void RecordSpaMode(const SpaModeAuditRecord& r);
  void RecordRepr(const ReprAuditRecord& r);
  void RecordChain(const ChainAuditRecord& r);

  AuditLedgerDoc Snapshot() const;
  // The newest `max` repr records, oldest first, copied without
  // snapshotting the other classes.
  std::deque<ReprAuditRecord> NewestRepr(std::size_t max) const;
  void Clear();

  std::string ToJson() const;
  // Snapshots under the mutex, renders and writes with no lock held.
  [[nodiscard]] Status WriteJson(const std::string& path) const;

  // Arms an output path (and enables recording); FlushArmed writes the
  // ledger there — bench_common registers it via atexit.
  void ArmOutput(std::string path);
  bool armed() const;
  [[nodiscard]] Status FlushArmed() const;

  // Per-class retention cap: beyond it the oldest record of the class is
  // evicted and counted as dropped, so the ledger always holds the latest
  // decisions (the error histograms still see every observation).
  static constexpr std::size_t kMaxRecordsPerClass = 1u << 16;

 private:
  AuditLedger() = default;

  template <typename Record>
  void Append(std::deque<Record>& dst, const Record& r)
      ATMX_REQUIRES(mutex_) {
    if (dst.size() >= kMaxRecordsPerClass) {
      dst.pop_front();
      ++doc_.dropped;
    }
    dst.push_back(r);
  }

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_op_id_{1};
  mutable Mutex mutex_;
  AuditLedgerDoc doc_ ATMX_GUARDED_BY(mutex_);
  // Running totals for the live cost-class histogram scale.
  double cost_pred_sum_ ATMX_GUARDED_BY(mutex_) = 0.0;
  double cost_seconds_sum_ ATMX_GUARDED_BY(mutex_) = 0.0;
  std::string armed_path_ ATMX_GUARDED_BY(mutex_);
};

}  // namespace atmx::obs

#endif  // ATMX_OBS_AUDIT_LEDGER_H_
