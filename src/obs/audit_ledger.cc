#include "obs/audit_ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "kernels/kernel_common.h"
#include "kernels/simd/simd_kernels.h"
#include "kernels/sparse_accumulator.h"
#include "obs/metrics.h"
#include "ops/optimizer.h"

namespace atmx::obs {

namespace {

// Shortest-round-trip double formatting: the counterfactual replay must
// see exactly the values the recording process decided with, so ledger
// doubles are written with full precision.
std::string FmtD(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::string(buf);
}

std::string FmtU64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

const std::vector<double>& ErrBounds() {
  // Relative errors live in [0, 1]; log-ish spacing resolves both the
  // well-calibrated bulk and the catastrophic tail.
  static const std::vector<double> bounds{0.001, 0.005, 0.01, 0.05,
                                          0.1,   0.25,  0.5,  1.0};
  return bounds;
}

const char* KernelNameOrMixed(int kernel) {
  if (kernel < 0 || kernel >= kNumKernelTypes) return "mixed";
  return KernelTypeName(static_cast<KernelType>(kernel));
}

int KernelFromName(std::string_view name) {
  for (int i = 0; i < kNumKernelTypes; ++i) {
    if (name == KernelTypeName(static_cast<KernelType>(i))) return i;
  }
  return -1;
}

}  // namespace

double SymmetricRelError(double predicted, double actual) {
  if (predicted == actual) return 0.0;
  const double denom = std::max(predicted, actual);
  if (denom <= 0.0) return 0.0;
  return std::abs(predicted - actual) / denom;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size())) - 1.0;
  const std::size_t idx = static_cast<std::size_t>(std::max(0.0, rank));
  return values[std::min(idx, values.size() - 1)];
}

// ---- AuditLedger ----

AuditLedger& AuditLedger::Global() {
  static AuditLedger* ledger = new AuditLedger();
  return *ledger;
}

void AuditLedger::SetCostParams(const CostParams& params) {
  MutexLock lock(mutex_);
  doc_.cost_params = params;
  doc_.have_cost_params = true;
}

void AuditLedger::RecordDensity(const DensityAuditRecord& r) {
  static Histogram& hist = MetricsRegistry::Global().GetHistogram(
      "estimator.err.density", ErrBounds());
  hist.Observe(SymmetricRelError(r.predicted, r.actual));
  MutexLock lock(mutex_);
  Append(doc_.density, r);
}

void AuditLedger::RecordCost(const CostAuditRecord& r) {
  static Histogram& hist = MetricsRegistry::Global().GetHistogram(
      "estimator.err.cost", ErrBounds());
  double err = -1.0;
  {
    MutexLock lock(mutex_);
    if (r.predicted_cost > 0.0 && r.measured_seconds > 0.0) {
      // The live histogram scales model units to seconds with the run's
      // running fit; the offline report refits over the whole ledger.
      cost_pred_sum_ += r.predicted_cost;
      cost_seconds_sum_ += r.measured_seconds;
      const double scale = cost_seconds_sum_ / cost_pred_sum_;
      err = SymmetricRelError(r.predicted_cost * scale, r.measured_seconds);
    }
    Append(doc_.cost, r);
  }
  if (err >= 0.0) hist.Observe(err);
}

void AuditLedger::RecordWaterLevel(const WaterLevelAuditRecord& r) {
  static Histogram& hist = MetricsRegistry::Global().GetHistogram(
      "estimator.err.waterlevel", ErrBounds());
  hist.Observe(SymmetricRelError(static_cast<double>(r.projected_bytes),
                                 static_cast<double>(r.result_bytes)));
  MutexLock lock(mutex_);
  Append(doc_.waterlevel, r);
}

void AuditLedger::RecordSpaMode(const SpaModeAuditRecord& r) {
  static Histogram& hist = MetricsRegistry::Global().GetHistogram(
      "estimator.err.spa_mode", ErrBounds());
  if (r.predicted_row_nnz >= 0.0) {
    hist.Observe(SymmetricRelError(r.predicted_row_nnz, r.actual_row_nnz));
  }
  MutexLock lock(mutex_);
  Append(doc_.spa_mode, r);
}

void AuditLedger::RecordRepr(const ReprAuditRecord& r) {
  static Histogram& hist = MetricsRegistry::Global().GetHistogram(
      "estimator.err.repr", ErrBounds());
  if (r.rho_c_pred >= 0.0 && r.rho_c_actual >= 0.0) {
    hist.Observe(SymmetricRelError(r.rho_c_pred, r.rho_c_actual));
  }
  MutexLock lock(mutex_);
  Append(doc_.repr, r);
}

void AuditLedger::RecordChain(const ChainAuditRecord& r) {
  static Histogram& hist = MetricsRegistry::Global().GetHistogram(
      "estimator.err.chain", ErrBounds());
  if (r.planned_cost > 0.0 && r.alternative_cost > 0.0) {
    // Plan-vs-alternative is a unitless cost ratio; no time fit needed
    // for the live signal.
    hist.Observe(SymmetricRelError(r.planned_cost, r.alternative_cost));
  }
  MutexLock lock(mutex_);
  Append(doc_.chain, r);
}

AuditLedgerDoc AuditLedger::Snapshot() const {
  MutexLock lock(mutex_);
  AuditLedgerDoc copy = doc_;
  copy.git_sha = GitShaFromEnv();
  copy.unix_time = static_cast<std::int64_t>(std::time(nullptr));
  return copy;
}

std::deque<ReprAuditRecord> AuditLedger::NewestRepr(std::size_t max) const {
  MutexLock lock(mutex_);
  const std::size_t n = std::min(max, doc_.repr.size());
  return std::deque<ReprAuditRecord>(
      doc_.repr.end() - static_cast<std::ptrdiff_t>(n), doc_.repr.end());
}

void AuditLedger::Clear() {
  MutexLock lock(mutex_);
  doc_ = AuditLedgerDoc();
  cost_pred_sum_ = 0.0;
  cost_seconds_sum_ = 0.0;
}

std::string AuditLedger::ToJson() const {
  return RenderAuditLedgerJson(Snapshot());
}

Status AuditLedger::WriteJson(const std::string& path) const {
  // Snapshot() confines the mutex to the copy; everything below runs
  // lock-free (enforced by tools/atmx_lint.py no-lock-across-file-io).
  const std::string json = RenderAuditLedgerJson(Snapshot());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("audit: cannot open " + path);
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != json.size() || !close_ok) {
    return Status::IoError("audit: short write to " + path);
  }
  return Status::Ok();
}

void AuditLedger::ArmOutput(std::string path) {
  {
    MutexLock lock(mutex_);
    armed_path_ = std::move(path);
  }
  SetEnabled(true);
}

bool AuditLedger::armed() const {
  MutexLock lock(mutex_);
  return !armed_path_.empty();
}

Status AuditLedger::FlushArmed() const {
  std::string path;
  {
    MutexLock lock(mutex_);
    path = armed_path_;
  }
  if (path.empty()) {
    return Status::InvalidArgument("audit: no output armed");
  }
  return WriteJson(path);
}

// ---- Serialization ----

namespace {

void RenderDensity(std::ostringstream& os, const DensityAuditRecord& r) {
  os << "{\"op\":" << FmtU64(r.op) << ",\"bi\":" << r.bi << ",\"bj\":" << r.bj
     << ",\"pred\":" << FmtD(r.predicted) << ",\"actual\":" << FmtD(r.actual)
     << '}';
}

void RenderCost(std::ostringstream& os, const CostAuditRecord& r) {
  os << "{\"op\":" << FmtU64(r.op) << ",\"ti\":" << r.ti << ",\"tj\":" << r.tj
     << ",\"pred_cost\":" << FmtD(r.predicted_cost)
     << ",\"seconds\":" << FmtD(r.measured_seconds)
     << ",\"cpu_ns\":" << FmtD(r.measured_cpu_ns)
     << ",\"cycles\":" << FmtU64(r.measured_cycles) << ",\"kernel\":\""
     << KernelNameOrMixed(r.kernel) << "\"}";
}

void RenderWaterLevel(std::ostringstream& os,
                      const WaterLevelAuditRecord& r) {
  os << "{\"op\":" << FmtU64(r.op) << ",\"rho_w\":" << FmtD(r.rho_w)
     << ",\"projected_bytes\":" << FmtU64(r.projected_bytes)
     << ",\"result_bytes\":" << FmtU64(r.result_bytes)
     << ",\"high_water_bytes\":" << FmtU64(r.high_water_bytes)
     << ",\"feasible\":" << (r.feasible ? "true" : "false") << '}';
}

void RenderSpaMode(std::ostringstream& os, const SpaModeAuditRecord& r) {
  os << "{\"op\":" << FmtU64(r.op) << ",\"ti\":" << r.ti << ",\"tj\":" << r.tj
     << ",\"width\":" << r.width
     << ",\"pred_row_nnz\":" << FmtD(r.predicted_row_nnz)
     << ",\"actual_row_nnz\":" << FmtD(r.actual_row_nnz) << ",\"mode\":\""
     << (r.chosen_mode == static_cast<int>(SparseAccumulator::Mode::kHash)
             ? "hash"
             : "dense")
     << "\"}";
}

void RenderRepr(std::ostringstream& os, const ReprAuditRecord& r) {
  os << "{\"op\":" << FmtU64(r.op) << ",\"ti\":" << r.ti << ",\"tj\":" << r.tj
     << ",\"k0\":" << r.k0 << ",\"k1\":" << r.k1 << ",\"m\":" << r.m
     << ",\"k\":" << r.k << ",\"n\":" << r.n
     << ",\"rho_a\":" << FmtD(r.rho_a) << ",\"rho_b\":" << FmtD(r.rho_b)
     << ",\"rho_c_pred\":" << FmtD(r.rho_c_pred)
     << ",\"rho_c_actual\":" << FmtD(r.rho_c_actual)
     << ",\"rho_w\":" << FmtD(r.rho_w)
     << ",\"a_stored_dense\":" << (r.a_stored_dense ? "true" : "false")
     << ",\"b_stored_dense\":" << (r.b_stored_dense ? "true" : "false")
     << ",\"a_cached\":" << (r.a_cached ? "true" : "false")
     << ",\"b_cached\":" << (r.b_cached ? "true" : "false")
     << ",\"allow_conversion\":" << (r.allow_conversion ? "true" : "false")
     << ",\"c_dense\":" << (r.c_dense ? "true" : "false") << ",\"kernel\":\""
     << KernelNameOrMixed(r.kernel)
     << "\",\"stored_cost\":" << FmtD(r.stored_cost)
     << ",\"chosen_cost\":" << FmtD(r.chosen_cost) << '}';
}

void RenderChain(std::ostringstream& os, const ChainAuditRecord& r) {
  os << "{\"op\":" << FmtU64(r.op) << ",\"plan\":\"" << EscapeJson(r.plan)
     << "\",\"length\":" << r.length
     << ",\"planned_cost\":" << FmtD(r.planned_cost)
     << ",\"alternative_cost\":" << FmtD(r.alternative_cost)
     << ",\"fused\":" << (r.fused ? "true" : "false")
     << ",\"fallback_reason\":\"" << EscapeJson(r.fallback_reason)
     << "\",\"fused_tasks\":" << r.fused_tasks
     << ",\"seconds\":" << FmtD(r.measured_seconds)
     << ",\"budget_bytes\":" << FmtU64(r.budget_bytes)
     << ",\"projected_peak_bytes\":" << FmtU64(r.projected_peak_bytes)
     << ",\"resident_peak_bytes\":" << FmtU64(r.resident_peak_bytes)
     << ",\"rho_w\":[";
  for (std::size_t i = 0; i < r.rho_w.size(); ++i) {
    if (i > 0) os << ',';
    os << FmtD(r.rho_w[i]);
  }
  os << "],\"products\":[";
  for (std::size_t i = 0; i < r.products.size(); ++i) {
    if (i > 0) os << ',';
    os << '"' << EscapeJson(r.products[i]) << '"';
  }
  os << "]}";
}

template <typename Record, typename Renderer>
void RenderArray(std::ostringstream& os, const std::deque<Record>& records,
                 Renderer render) {
  os << '[';
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i > 0) os << ",\n";
    render(os, records[i]);
  }
  os << ']';
}

}  // namespace

std::string RenderAuditLedgerJson(const AuditLedgerDoc& doc) {
  std::ostringstream os;
  os << "{\"schema_version\":" << doc.schema_version
     << ",\"kind\":\"atmx_audit_ledger\",\"git_sha\":\""
     << EscapeJson(doc.git_sha.empty() ? GitShaFromEnv() : doc.git_sha)
     << "\",\"unix_time\":" << doc.unix_time
     << ",\"spmm_max_panel_cols\":" << simd::kSpmmMaxPanelCols
     << ",\"dropped\":" << FmtU64(doc.dropped);
  if (doc.have_cost_params) {
    const CostParams& p = doc.cost_params;
    os << ",\"cost_params\":{\"c_ddd\":" << FmtD(p.c_ddd)
       << ",\"c_sdd\":" << FmtD(p.c_sdd)
       << ",\"c_sdd_panel\":" << FmtD(p.c_sdd_panel)
       << ",\"c_dsd\":" << FmtD(p.c_dsd) << ",\"c_ssd\":" << FmtD(p.c_ssd)
       << ",\"row_overhead\":" << FmtD(p.row_overhead)
       << ",\"dense_write\":" << FmtD(p.dense_write)
       << ",\"sparse_write\":" << FmtD(p.sparse_write)
       << ",\"sparse_sort\":" << FmtD(p.sparse_sort)
       << ",\"convert_sparse_to_dense\":" << FmtD(p.convert_sparse_to_dense)
       << ",\"convert_dense_to_sparse\":" << FmtD(p.convert_dense_to_sparse)
       << '}';
  }
  os << ",\"density\":";
  RenderArray(os, doc.density, RenderDensity);
  os << ",\"cost\":";
  RenderArray(os, doc.cost, RenderCost);
  os << ",\"waterlevel\":";
  RenderArray(os, doc.waterlevel, RenderWaterLevel);
  os << ",\"spa_mode\":";
  RenderArray(os, doc.spa_mode, RenderSpaMode);
  os << ",\"repr\":";
  RenderArray(os, doc.repr, RenderRepr);
  os << ",\"chain\":";
  RenderArray(os, doc.chain, RenderChain);
  os << '}';
  return os.str();
}

std::string RenderReprRecordsJson(const std::deque<ReprAuditRecord>& records) {
  std::ostringstream os;
  RenderArray(os, records, RenderRepr);
  return os.str();
}

namespace {

// An integer field of a ledger, which is outside input: a value T cannot
// hold (or a non-finite one) would make the cast undefined, so it is
// rejected naming the field. `*bad` keeps the first rejection.
template <typename T>
T IntField(const JsonValue& v, std::string_view key, Status* bad) {
  const double x = v.NumberOr(key, 0.0);
  if (x >= static_cast<double>(std::numeric_limits<T>::min()) &&
      x < std::ldexp(1.0, std::numeric_limits<T>::digits)) {
    return static_cast<T>(x);
  }
  if (bad->ok()) {
    *bad = Status::InvalidArgument("audit: field \"" + std::string(key) +
                                   "\" is out of range");
  }
  return T{};
}

constexpr auto IndexField = IntField<index_t>;
constexpr auto U64Field = IntField<std::uint64_t>;

}  // namespace

Result<AuditLedgerDoc> ParseAuditLedgerJson(std::string_view text) {
  Result<JsonValue> parsed = ParseJson(text);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& root = parsed.value();
  if (!root.is_object()) {
    return Status::InvalidArgument("audit: ledger root is not an object");
  }
  if (root.StringOr("kind", "") != "atmx_audit_ledger") {
    return Status::InvalidArgument("audit: not an atmx_audit_ledger document");
  }
  Status bad;
  const int version = IntField<int>(root, "schema_version", &bad);
  if (!bad.ok()) return bad;
  if (version != kAuditLedgerSchemaVersion) {
    return Status::InvalidArgument(
        "audit: unsupported schema_version " + std::to_string(version));
  }
  AuditLedgerDoc doc;
  doc.schema_version = version;
  doc.git_sha = root.StringOr("git_sha", "unknown");
  doc.unix_time = IntField<std::int64_t>(root, "unix_time", &bad);
  doc.dropped = U64Field(root, "dropped", &bad);
  if (const JsonValue* p = root.Find("cost_params");
      p != nullptr && p->is_object()) {
    CostParams defaults;
    doc.cost_params.c_ddd = p->NumberOr("c_ddd", defaults.c_ddd);
    doc.cost_params.c_sdd = p->NumberOr("c_sdd", defaults.c_sdd);
    doc.cost_params.c_sdd_panel =
        p->NumberOr("c_sdd_panel", defaults.c_sdd_panel);
    doc.cost_params.c_dsd = p->NumberOr("c_dsd", defaults.c_dsd);
    doc.cost_params.c_ssd = p->NumberOr("c_ssd", defaults.c_ssd);
    doc.cost_params.row_overhead =
        p->NumberOr("row_overhead", defaults.row_overhead);
    doc.cost_params.dense_write =
        p->NumberOr("dense_write", defaults.dense_write);
    doc.cost_params.sparse_write =
        p->NumberOr("sparse_write", defaults.sparse_write);
    doc.cost_params.sparse_sort =
        p->NumberOr("sparse_sort", defaults.sparse_sort);
    doc.cost_params.convert_sparse_to_dense =
        p->NumberOr("convert_sparse_to_dense",
                    defaults.convert_sparse_to_dense);
    doc.cost_params.convert_dense_to_sparse =
        p->NumberOr("convert_dense_to_sparse",
                    defaults.convert_dense_to_sparse);
    doc.have_cost_params = true;
  }
  if (const JsonValue* arr = root.Find("density");
      arr != nullptr && arr->is_array()) {
    for (const JsonValue& v : arr->array) {
      DensityAuditRecord r;
      r.op = U64Field(v, "op", &bad);
      r.bi = IndexField(v, "bi", &bad);
      r.bj = IndexField(v, "bj", &bad);
      r.predicted = v.NumberOr("pred", 0.0);
      r.actual = v.NumberOr("actual", 0.0);
      doc.density.push_back(r);
    }
  }
  if (const JsonValue* arr = root.Find("cost");
      arr != nullptr && arr->is_array()) {
    for (const JsonValue& v : arr->array) {
      CostAuditRecord r;
      r.op = U64Field(v, "op", &bad);
      r.ti = IndexField(v, "ti", &bad);
      r.tj = IndexField(v, "tj", &bad);
      r.predicted_cost = v.NumberOr("pred_cost", 0.0);
      r.measured_seconds = v.NumberOr("seconds", 0.0);
      r.measured_cpu_ns = v.NumberOr("cpu_ns", 0.0);
      r.measured_cycles = U64Field(v, "cycles", &bad);
      r.kernel = KernelFromName(v.StringOr("kernel", "mixed"));
      doc.cost.push_back(r);
    }
  }
  if (const JsonValue* arr = root.Find("waterlevel");
      arr != nullptr && arr->is_array()) {
    for (const JsonValue& v : arr->array) {
      WaterLevelAuditRecord r;
      r.op = U64Field(v, "op", &bad);
      r.rho_w = v.NumberOr("rho_w", 0.0);
      r.projected_bytes = U64Field(v, "projected_bytes", &bad);
      r.result_bytes = U64Field(v, "result_bytes", &bad);
      r.high_water_bytes = U64Field(v, "high_water_bytes", &bad);
      r.feasible = v.BoolOr("feasible", true);
      doc.waterlevel.push_back(r);
    }
  }
  if (const JsonValue* arr = root.Find("spa_mode");
      arr != nullptr && arr->is_array()) {
    for (const JsonValue& v : arr->array) {
      SpaModeAuditRecord r;
      r.op = U64Field(v, "op", &bad);
      r.ti = IndexField(v, "ti", &bad);
      r.tj = IndexField(v, "tj", &bad);
      r.width = IndexField(v, "width", &bad);
      r.predicted_row_nnz = v.NumberOr("pred_row_nnz", -1.0);
      r.actual_row_nnz = v.NumberOr("actual_row_nnz", 0.0);
      r.chosen_mode =
          v.StringOr("mode", "dense") == "hash"
              ? static_cast<int>(SparseAccumulator::Mode::kHash)
              : static_cast<int>(SparseAccumulator::Mode::kDense);
      doc.spa_mode.push_back(r);
    }
  }
  if (const JsonValue* arr = root.Find("repr");
      arr != nullptr && arr->is_array()) {
    for (const JsonValue& v : arr->array) {
      ReprAuditRecord r;
      r.op = U64Field(v, "op", &bad);
      r.ti = IndexField(v, "ti", &bad);
      r.tj = IndexField(v, "tj", &bad);
      r.k0 = IndexField(v, "k0", &bad);
      r.k1 = IndexField(v, "k1", &bad);
      r.m = IndexField(v, "m", &bad);
      r.k = IndexField(v, "k", &bad);
      r.n = IndexField(v, "n", &bad);
      r.rho_a = v.NumberOr("rho_a", 0.0);
      r.rho_b = v.NumberOr("rho_b", 0.0);
      r.rho_c_pred = v.NumberOr("rho_c_pred", 0.0);
      r.rho_c_actual = v.NumberOr("rho_c_actual", -1.0);
      r.rho_w = v.NumberOr("rho_w", 0.0);
      r.a_stored_dense = v.BoolOr("a_stored_dense", false);
      r.b_stored_dense = v.BoolOr("b_stored_dense", false);
      r.a_cached = v.BoolOr("a_cached", false);
      r.b_cached = v.BoolOr("b_cached", false);
      r.allow_conversion = v.BoolOr("allow_conversion", false);
      r.c_dense = v.BoolOr("c_dense", false);
      r.kernel = KernelFromName(v.StringOr("kernel", ""));
      r.stored_cost = v.NumberOr("stored_cost", 0.0);
      r.chosen_cost = v.NumberOr("chosen_cost", 0.0);
      doc.repr.push_back(r);
    }
  }
  if (const JsonValue* arr = root.Find("chain");
      arr != nullptr && arr->is_array()) {
    for (const JsonValue& v : arr->array) {
      ChainAuditRecord r;
      r.op = U64Field(v, "op", &bad);
      r.plan = v.StringOr("plan", "");
      r.length = IndexField(v, "length", &bad);
      r.planned_cost = v.NumberOr("planned_cost", 0.0);
      r.alternative_cost = v.NumberOr("alternative_cost", 0.0);
      r.fused = v.BoolOr("fused", false);
      r.fallback_reason = v.StringOr("fallback_reason", "");
      r.fused_tasks = IndexField(v, "fused_tasks", &bad);
      r.measured_seconds = v.NumberOr("seconds", 0.0);
      r.budget_bytes = U64Field(v, "budget_bytes", &bad);
      r.projected_peak_bytes = U64Field(v, "projected_peak_bytes", &bad);
      r.resident_peak_bytes = U64Field(v, "resident_peak_bytes", &bad);
      if (const JsonValue* rw = v.Find("rho_w");
          rw != nullptr && rw->is_array()) {
        for (const JsonValue& t : rw->array) {
          r.rho_w.push_back(t.is_number() ? t.number_value : 0.0);
        }
      }
      if (const JsonValue* ps = v.Find("products");
          ps != nullptr && ps->is_array()) {
        for (const JsonValue& t : ps->array) {
          r.products.push_back(t.is_string() ? t.string_value : "");
        }
      }
      doc.chain.push_back(r);
    }
  }
  if (!bad.ok()) return bad;
  return doc;
}

Result<AuditLedgerDoc> LoadAuditLedger(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("audit: cannot open " + path);
  }
  std::string text;
  char buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, got);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::IoError("audit: read failed for " + path);
  }
  return ParseAuditLedgerJson(text);
}

// ---- Report ----

namespace {

AuditErrorStats StatsOf(const std::vector<double>& errs) {
  AuditErrorStats s;
  s.count = errs.size();
  if (errs.empty()) return s;
  double sum = 0.0;
  for (const double e : errs) {
    sum += e;
    s.max = std::max(s.max, e);
  }
  s.mean = sum / static_cast<double>(errs.size());
  s.p50 = Percentile(errs, 0.50);
  s.p95 = Percentile(errs, 0.95);
  return s;
}

// Fits seconds-per-cost-unit over records where both sides are positive.
double FitScale(double pred_sum, double seconds_sum) {
  return pred_sum > 0.0 ? seconds_sum / pred_sum : 0.0;
}

}  // namespace

AuditReport BuildAuditReport(const AuditLedgerDoc& doc, std::size_t worst_n) {
  AuditReport rep;
  std::vector<AuditWorstEntry> worst_all;
  const auto push_worst = [&worst_all](const char* clazz, std::uint64_t op,
                                       index_t ti, index_t tj, double pred,
                                       double actual, double err) {
    worst_all.push_back({clazz, op, ti, tj, pred, actual, err});
  };

  {
    std::vector<double> errs;
    errs.reserve(doc.density.size());
    for (const DensityAuditRecord& r : doc.density) {
      const double err = SymmetricRelError(r.predicted, r.actual);
      errs.push_back(err);
      push_worst("density", r.op, r.bi, r.bj, r.predicted, r.actual, err);
    }
    rep.density = StatsOf(errs);
  }

  {
    double pred_sum = 0.0, seconds_sum = 0.0;
    for (const CostAuditRecord& r : doc.cost) {
      if (r.predicted_cost > 0.0 && r.measured_seconds > 0.0) {
        pred_sum += r.predicted_cost;
        seconds_sum += r.measured_seconds;
      }
    }
    rep.cost_scale = FitScale(pred_sum, seconds_sum);
    std::vector<double> errs;
    for (const CostAuditRecord& r : doc.cost) {
      if (r.predicted_cost <= 0.0 || r.measured_seconds <= 0.0) continue;
      const double scaled = r.predicted_cost * rep.cost_scale;
      const double err = SymmetricRelError(scaled, r.measured_seconds);
      errs.push_back(err);
      push_worst("cost", r.op, r.ti, r.tj, scaled, r.measured_seconds, err);
    }
    rep.cost = StatsOf(errs);
  }

  {
    std::vector<double> errs;
    errs.reserve(doc.waterlevel.size());
    for (const WaterLevelAuditRecord& r : doc.waterlevel) {
      if (!r.feasible) ++rep.waterlevel_infeasible;
      const double err =
          SymmetricRelError(static_cast<double>(r.projected_bytes),
                            static_cast<double>(r.result_bytes));
      errs.push_back(err);
      push_worst("waterlevel", r.op, 0, 0,
                 static_cast<double>(r.projected_bytes),
                 static_cast<double>(r.result_bytes), err);
    }
    rep.waterlevel = StatsOf(errs);
  }

  {
    std::vector<double> errs;
    for (const SpaModeAuditRecord& r : doc.spa_mode) {
      if (r.predicted_row_nnz < 0.0) continue;
      ++rep.spa_considered;
      const double err =
          SymmetricRelError(r.predicted_row_nnz, r.actual_row_nnz);
      errs.push_back(err);
      push_worst("spa_mode", r.op, r.ti, r.tj, r.predicted_row_nnz,
                 r.actual_row_nnz, err);
      const auto replayed =
          SparseAccumulator::ChooseMode(r.width, r.actual_row_nnz);
      if (static_cast<int>(replayed) != r.chosen_mode) ++rep.spa_regret;
    }
    rep.spa_mode = StatsOf(errs);
  }

  {
    const CostModel model(doc.cost_params);
    std::vector<double> errs;
    for (const ReprAuditRecord& r : doc.repr) {
      // Only decisions the optimizer made from an estimate, with
      // conversions allowed, have a counterfactual to replay.
      if (r.rho_c_pred < 0.0 || r.rho_c_actual < 0.0 || !r.allow_conversion) {
        continue;
      }
      if (r.kernel < 0 || r.kernel >= kNumKernelTypes) continue;
      const bool la = r.a_dense();
      const bool lb = r.b_dense();
      ++rep.repr_considered;
      const double err = SymmetricRelError(r.rho_c_pred, r.rho_c_actual);
      errs.push_back(err);
      push_worst("repr", r.op, r.ti, r.tj, r.rho_c_pred, r.rho_c_actual,
                 err);
      // Counterfactual: what would the optimizer have done with the
      // measured result density? Replays the production decision rule
      // (c_dense iff rho_c >= rho_w, then DecidePairRepresentations).
      const bool c_dense_cf = r.rho_c_actual >= r.rho_w;
      MultiplyShape shape_cf;
      shape_cf.m = r.m;
      shape_cf.k = r.k;
      shape_cf.n = r.n;
      shape_cf.rho_a = r.rho_a;
      shape_cf.rho_b = r.rho_b;
      shape_cf.rho_c = r.rho_c_actual;
      const PairDecision cf = DecidePairRepresentations(
          model, shape_cf, r.a_stored_dense, r.b_stored_dense, r.a_cached,
          r.b_cached, c_dense_cf, r.allow_conversion);
      const KernelType cf_kernel =
          MakeKernelType(cf.a_dense, cf.b_dense, c_dense_cf);
      if (static_cast<int>(cf_kernel) != r.kernel) {
        ++rep.repr_regret;
        // Cost-unit gap of the logged choice re-priced under measured
        // inputs against the counterfactual optimum.
        double logged_cost =
            model.ComputeCost(MakeKernelType(la, lb, c_dense_cf), shape_cf);
        if (r.a_converted()) {
          logged_cost += model.ConversionCost(la, r.m, r.k, r.rho_a);
        }
        if (r.b_converted()) {
          logged_cost += model.ConversionCost(lb, r.k, r.n, r.rho_b);
        }
        rep.repr_regret_cost +=
            std::max(0.0, logged_cost - cf.projected_cost);
      }
    }
    rep.repr = StatsOf(errs);
  }

  {
    double pred_sum = 0.0, seconds_sum = 0.0;
    for (const ChainAuditRecord& r : doc.chain) {
      if (r.planned_cost > 0.0 && r.measured_seconds > 0.0) {
        pred_sum += r.planned_cost;
        seconds_sum += r.measured_seconds;
      }
    }
    rep.chain_scale = FitScale(pred_sum, seconds_sum);
    std::vector<double> errs;
    for (const ChainAuditRecord& r : doc.chain) {
      if (r.planned_cost <= 0.0 || r.measured_seconds <= 0.0) continue;
      const double scaled = r.planned_cost * rep.chain_scale;
      const double err = SymmetricRelError(scaled, r.measured_seconds);
      errs.push_back(err);
      push_worst("chain", r.op, 0, 0, scaled, r.measured_seconds, err);
    }
    rep.chain = StatsOf(errs);
  }

  // Deterministic worst-N ordering: error descending, then class / op /
  // coordinates ascending (ties happen — many exact-0 blocks).
  std::sort(worst_all.begin(), worst_all.end(),
            [](const AuditWorstEntry& a, const AuditWorstEntry& b) {
              return std::make_tuple(-a.err, std::string_view(a.decision_class),
                                     a.op, a.ti, a.tj) <
                     std::make_tuple(-b.err, std::string_view(b.decision_class),
                                     b.op, b.ti, b.tj);
            });
  if (worst_all.size() > worst_n) worst_all.resize(worst_n);
  rep.worst = std::move(worst_all);
  return rep;
}

std::string RenderAuditReportText(const AuditReport& rep) {
  std::ostringstream os;
  const auto line = [&os](const char* name, const AuditErrorStats& s) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%-10s count=%zu p50=%.4f p95=%.4f max=%.4f mean=%.4f\n",
                  name, s.count, s.p50, s.p95, s.max, s.mean);
    os << buf;
  };
  os << "prediction audit: per-class relative error\n";
  line("density", rep.density);
  line("cost", rep.cost);
  line("waterlevel", rep.waterlevel);
  line("spa_mode", rep.spa_mode);
  line("repr", rep.repr);
  line("chain", rep.chain);
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "counterfactual: repr regret %zu/%zu (cost-unit gap %.1f), "
                "spa_mode regret %zu/%zu\n",
                rep.repr_regret, rep.repr_considered, rep.repr_regret_cost,
                rep.spa_regret, rep.spa_considered);
  os << buf;
  if (rep.waterlevel_infeasible > 0) {
    std::snprintf(buf, sizeof(buf),
                  "waterlevel: %zu/%zu records under an infeasible memory "
                  "SLA (threshold clamped to floor)\n",
                  rep.waterlevel_infeasible, rep.waterlevel.count);
    os << buf;
  }
  if (rep.cost_scale > 0.0) {
    std::snprintf(buf, sizeof(buf), "fitted cost scale: %.3g s/unit\n",
                  rep.cost_scale);
    os << buf;
  }
  if (!rep.worst.empty()) {
    os << "worst mispredictions:\n";
    for (const AuditWorstEntry& w : rep.worst) {
      std::snprintf(buf, sizeof(buf),
                    "  %-10s op=%llu tile=(%lld,%lld) pred=%.6g "
                    "actual=%.6g err=%.4f\n",
                    w.decision_class.c_str(),
                    static_cast<unsigned long long>(w.op),
                    static_cast<long long>(w.ti),
                    static_cast<long long>(w.tj), w.predicted, w.actual,
                    w.err);
      os << buf;
    }
  }
  return os.str();
}

// ---- Gate ----

namespace {

struct ClassView {
  const char* name;
  const AuditErrorStats* stats;
};

void CheckBound(std::ostringstream& os, const char* clazz, const char* bound,
                double measured, const JsonValue& envelope, bool* ok,
                int* regressions) {
  const JsonValue* limit = envelope.Find(bound);
  if (limit == nullptr || !limit->is_number()) return;
  const bool pass = measured <= limit->number_value;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "audit-gate: %s %s %.4f <= %.4f %s\n",
                clazz, bound, measured, limit->number_value,
                pass ? "OK" : "REGRESSION");
  os << buf;
  if (!pass) {
    *ok = false;
    ++*regressions;
  }
}

void CheckFraction(std::ostringstream& os, const char* what,
                   std::size_t regret, std::size_t considered,
                   const JsonValue& baseline, const char* key, bool* ok,
                   int* regressions) {
  const JsonValue* limit = baseline.Find(key);
  if (limit == nullptr || !limit->is_number()) return;
  if (considered == 0) {
    os << "audit-gate: " << what << " SKIP (no decisions)\n";
    return;
  }
  const double fraction =
      static_cast<double>(regret) / static_cast<double>(considered);
  const bool pass = fraction <= limit->number_value;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "audit-gate: %s %.4f <= %.4f %s\n", what,
                fraction, limit->number_value, pass ? "OK" : "REGRESSION");
  os << buf;
  if (!pass) {
    *ok = false;
    ++*regressions;
  }
}

}  // namespace

AuditGateResult EvaluateAuditGate(const AuditReport& report,
                                  const JsonValue& baseline) {
  AuditGateResult result;
  std::ostringstream os;
  if (!baseline.is_object() ||
      baseline.StringOr("kind", "") != "atmx_audit_baseline" ||
      baseline.NumberOr("schema_version", 0.0) != kAuditLedgerSchemaVersion) {
    result.ok = false;
    result.regressions = 1;
    result.text = "audit-gate: baseline is not a valid atmx_audit_baseline "
                  "document\n";
    return result;
  }
  const ClassView classes[] = {
      {"density", &report.density},   {"cost", &report.cost},
      {"waterlevel", &report.waterlevel}, {"spa_mode", &report.spa_mode},
      {"repr", &report.repr},         {"chain", &report.chain},
  };
  const JsonValue* envelopes = baseline.Find("classes");
  if (envelopes != nullptr && envelopes->is_object()) {
    for (const ClassView& c : classes) {
      const JsonValue* envelope = envelopes->Find(c.name);
      if (envelope == nullptr || !envelope->is_object()) continue;
      if (c.stats->count == 0) {
        os << "audit-gate: " << c.name << " SKIP (no records)\n";
        continue;
      }
      CheckBound(os, c.name, "p50", c.stats->p50, *envelope, &result.ok,
                 &result.regressions);
      CheckBound(os, c.name, "p95", c.stats->p95, *envelope, &result.ok,
                 &result.regressions);
      CheckBound(os, c.name, "max", c.stats->max, *envelope, &result.ok,
                 &result.regressions);
    }
  }
  CheckFraction(os, "repr_regret_fraction", report.repr_regret,
                report.repr_considered, baseline, "max_repr_regret_fraction",
                &result.ok, &result.regressions);
  CheckFraction(os, "spa_regret_fraction", report.spa_regret,
                report.spa_considered, baseline, "max_spa_regret_fraction",
                &result.ok, &result.regressions);
  result.text = os.str();
  return result;
}

std::string RenderAuditEnvelopeJson(const AuditReport& report,
                                    double margin) {
  // Near-zero measurements get an absolute slack floor so the envelope
  // stays holdable run-to-run; error bounds are capped at 1.0 (the
  // symmetric error ceiling) except `max`, which 1.0 would make
  // unfalsifiable — it keeps the margined value.
  const auto bound = [margin](double measured, double floor_abs) {
    return std::max(measured * margin, floor_abs);
  };
  std::ostringstream os;
  os << "{\"schema_version\":" << kAuditLedgerSchemaVersion
     << ",\n \"kind\":\"atmx_audit_baseline\",\n \"classes\":{";
  const ClassView classes[] = {
      {"density", &report.density},   {"cost", &report.cost},
      {"waterlevel", &report.waterlevel}, {"spa_mode", &report.spa_mode},
      {"repr", &report.repr},         {"chain", &report.chain},
  };
  bool first = true;
  for (const ClassView& c : classes) {
    if (c.stats->count == 0) continue;
    if (!first) os << ',';
    first = false;
    os << "\n  \"" << c.name
       << "\":{\"p50\":" << FmtD(std::min(1.0, bound(c.stats->p50, 0.05)))
       << ",\"p95\":" << FmtD(std::min(1.0, bound(c.stats->p95, 0.10)))
       << ",\"max\":" << FmtD(bound(c.stats->max, 0.25)) << '}';
  }
  os << "\n },\n";
  const double repr_fraction =
      report.repr_considered > 0
          ? static_cast<double>(report.repr_regret) /
                static_cast<double>(report.repr_considered)
          : 0.0;
  const double spa_fraction =
      report.spa_considered > 0
          ? static_cast<double>(report.spa_regret) /
                static_cast<double>(report.spa_considered)
          : 0.0;
  os << " \"max_repr_regret_fraction\":"
     << FmtD(std::min(1.0, bound(repr_fraction, 0.05)))
     << ",\n \"max_spa_regret_fraction\":"
     << FmtD(std::min(1.0, bound(spa_fraction, 0.05))) << "\n}\n";
  return os.str();
}

namespace {

// Pushes `predicted` scale-x further away from `actual`: multiplied by
// `scale` when already over-predicting, divided when under-predicting.
// Blindly multiplying would *improve* a biased estimator whose
// predictions sit below the measurements — the negative test needs the
// error to worsen regardless of the bias direction.
double PushAway(double predicted, double actual, double scale, double cap) {
  const double moved =
      predicted >= actual ? predicted * scale : predicted / scale;
  return cap > 0.0 ? std::min(cap, moved) : moved;
}

}  // namespace

void InjectDensityMisestimate(AuditLedgerDoc* doc, double scale) {
  for (DensityAuditRecord& r : doc->density) {
    r.predicted = PushAway(r.predicted, r.actual, scale, 1.0);
  }
  for (ReprAuditRecord& r : doc->repr) {
    if (r.rho_c_pred < 0.0) continue;  // no estimate to worsen
    const double actual = r.rho_c_actual >= 0.0 ? r.rho_c_actual : 0.0;
    r.rho_c_pred = PushAway(r.rho_c_pred, actual, scale, 1.0);
  }
  for (SpaModeAuditRecord& r : doc->spa_mode) {
    if (r.predicted_row_nnz >= 0.0) {
      r.predicted_row_nnz =
          PushAway(r.predicted_row_nnz, r.actual_row_nnz, scale, 0.0);
    }
  }
}

}  // namespace atmx::obs
