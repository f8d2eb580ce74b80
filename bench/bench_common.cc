#include "bench/bench_common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <sstream>
#include <thread>

#include "common/timer.h"
#include "obs/obs.h"
#if defined(ATMX_OBS_ENABLED)
#include "obs/audit_ledger.h"
#include "obs/flight_recorder.h"
#include "obs/stats_server.h"
#endif
#include "cost/calibration.h"
#include "kernels/sparse_kernels.h"
#include "kernels/dense_kernels.h"
#include "kernels/mixed_kernels.h"
#include "storage/convert.h"

namespace atmx::bench {

namespace {

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atof(value) : fallback;
}

long long EnvInt(const char* name, long long fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoll(value) : fallback;
}

#if defined(ATMX_OBS_ENABLED)
// Written by EnableTracingTo, read by the atexit hook.
std::string* TraceOutPath() {
  static std::string* path = new std::string();
  return path;
}

void FlushTraceAtExit() {
  const std::string& path = *TraceOutPath();
  if (path.empty()) return;
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  Status status = recorder.WriteJson(path);
  if (!status.ok()) {
    std::fprintf(stderr, "trace: %s\n", status.ToString().c_str());
    return;
  }
  std::fprintf(stderr, "trace: wrote %s (%lld events, %llu dropped)\n",
               path.c_str(), (long long)recorder.EventCount(),
               (unsigned long long)recorder.DroppedEvents());
}

// Written by EnableAuditOutputTo for the atexit flush message.
std::string* AuditOutPath() {
  static std::string* path = new std::string();
  return path;
}

void FlushAuditAtExit() {
  const std::string& path = *AuditOutPath();
  if (path.empty()) return;
  Status status = obs::AuditLedger::Global().FlushArmed();
  if (!status.ok()) {
    std::fprintf(stderr, "audit: %s\n", status.ToString().c_str());
    return;
  }
  std::fprintf(stderr, "audit: wrote %s\n", path.c_str());
}
#endif  // ATMX_OBS_ENABLED

}  // namespace

void EnableTracingTo(const std::string& path) {
#if defined(ATMX_OBS_ENABLED)
  static bool registered = false;
  *TraceOutPath() = path;
  obs::TraceRecorder::Global().Enable();
  obs::AuditLedger::Global().SetEnabled(true);
  if (!registered) {
    registered = true;
    std::atexit(FlushTraceAtExit);
  }
#else
  std::fprintf(stderr,
               "trace: ignoring %s — built with -DATMX_OBS=OFF\n",
               path.c_str());
#endif
}

void MaybeEnableTracing(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    static constexpr char kFlag[] = "--trace-out=";
    if (std::strncmp(argv[i], kFlag, sizeof(kFlag) - 1) == 0) {
      EnableTracingTo(argv[i] + sizeof(kFlag) - 1);
      return;
    }
  }
  if (const char* path = std::getenv("ATMX_TRACE_OUT")) {
    if (path[0] != '\0') EnableTracingTo(path);
  }
}

void EnableAuditOutputTo(const std::string& path) {
#if defined(ATMX_OBS_ENABLED)
  static bool registered = false;
  *AuditOutPath() = path;
  obs::AuditLedger::Global().ArmOutput(path);
  if (!registered) {
    registered = true;
    std::atexit(FlushAuditAtExit);
  }
#else
  std::fprintf(stderr,
               "audit: ignoring %s — built with -DATMX_OBS=OFF\n",
               path.c_str());
#endif
}

void MaybeEnableAuditOut(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    static constexpr char kFlag[] = "--audit-out=";
    if (std::strncmp(argv[i], kFlag, sizeof(kFlag) - 1) == 0) {
      EnableAuditOutputTo(argv[i] + sizeof(kFlag) - 1);
      return;
    }
  }
  if (const char* path = std::getenv("ATMX_AUDIT_OUT")) {
    if (path[0] != '\0') EnableAuditOutputTo(path);
  }
}

#if defined(ATMX_OBS_ENABLED)

namespace {

// Set by MaybeStartStatsServer, read by the atexit hook.
int* StatsLingerSeconds() {
  static int* seconds = new int(0);
  return seconds;
}

void StopStatsAtExit() {
  const int linger = *StatsLingerSeconds();
  if (linger > 0) {
    std::fprintf(stderr, "stats: lingering %d s before shutdown\n", linger);
    std::this_thread::sleep_for(std::chrono::seconds(linger));
  }
  obs::FlightRecorder::Global().Uninstall();
  obs::StatsServer::Global().Stop();
}

}  // namespace

#endif  // ATMX_OBS_ENABLED

void MaybeStartStatsServer(int argc, char** argv) {
  int port = -1;  // -1 = not requested
  static constexpr char kFlag[] = "--stats-port=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kFlag, sizeof(kFlag) - 1) == 0) {
      port = std::atoi(argv[i] + sizeof(kFlag) - 1);
    }
  }
  if (port < 0) {
    if (const char* env = std::getenv("ATMX_STATS_PORT")) {
      if (env[0] != '\0') port = std::atoi(env);
    }
  }
  const bool flight = EnvInt("ATMX_FLIGHT", port >= 0 ? 1 : 0) != 0;
  if (port < 0 && !flight) return;
#if defined(ATMX_OBS_ENABLED)
  std::atexit(StopStatsAtExit);
  if (flight) {
    obs::FlightRecorder::Options flight_options;
    flight_options.refresh_period =
        std::chrono::milliseconds(EnvInt("ATMX_STATS_PERIOD_MS", 250));
    Status status = obs::FlightRecorder::Global().Install(flight_options);
    if (!status.ok()) {
      std::fprintf(stderr, "stats: flight recorder: %s\n",
                   status.ToString().c_str());
    }
  }
  if (port < 0) return;
  obs::StatsServer::Options server_options;
  server_options.port = port;
  Status status = obs::StatsServer::Global().Start(server_options);
  if (!status.ok()) {
    std::fprintf(stderr, "stats: %s\n", status.ToString().c_str());
    return;
  }
  *StatsLingerSeconds() =
      static_cast<int>(EnvInt("ATMX_STATS_LINGER", 0));
  // CI scrapers parse this line for the ephemeral port; keep the format
  // stable and flush so it is visible before the bench body starts.
  std::fprintf(stderr, "stats: serving http://127.0.0.1:%d/metrics\n",
               obs::StatsServer::Global().port());
  std::fflush(stderr);
#else
  std::fprintf(
      stderr,
      "stats: ignoring stats/flight request — built with -DATMX_OBS=OFF\n");
#endif
}

void InitBenchTelemetry(const std::string& bench_name, int argc,
                        char** argv) {
  MaybeEnableTracing(argc, argv);
  MaybeEnableBenchReport(bench_name, argc, argv);
  MaybeEnableAuditOut(argc, argv);
  MaybeStartStatsServer(argc, argv);
}

BenchEnv BenchEnv::FromEnvironment() {
  BenchEnv env;
  env.scale = EnvDouble("ATMX_SCALE", 0.03);
  env.config.llc_bytes = EnvInt("ATMX_LLC", 1 << 20);
  env.config.num_sockets = static_cast<int>(EnvInt("ATMX_TEAMS", 1));
  env.config.cores_per_socket =
      static_cast<int>(EnvInt("ATMX_THREADS", 1));
  if (EnvInt("ATMX_CALIBRATE", 1) != 0) {
    // Fit the cost-model constants to this host and derive the density
    // thresholds from the fitted model — the paper's rho0_R = 0.25 is the
    // turnaround of *its* machine; rho0_R is explicitly a system-dependent
    // tuning parameter (sections II-C3, III-C).
    env.cost_model = CostModel(Calibrate());
    env.config.rho_read =
        std::clamp(env.cost_model.ReadTurnaround(), 0.10, 0.85);
    env.config.rho_write =
        std::clamp(env.cost_model.WriteTurnaround(), 0.005, 0.20);
  }
  if (const char* path = std::getenv("ATMX_TRACE_OUT")) {
    if (path[0] != '\0') EnableTracingTo(path);
  }
  return env;
}

std::string BenchEnv::Describe() const {
  std::ostringstream os;
  os << "scale=" << scale << " (of Table I sizes), b_atomic="
     << config.AtomicBlockSize() << ", llc=" << config.llc_bytes
     << "B, rho_read=" << config.rho_read
     << ", rho_write=" << config.rho_write
     << ", teams=" << config.EffectiveTeams() << "x"
     << config.EffectiveThreadsPerTeam() << " threads"
     << ", rho0_R(model)=" << cost_model.ReadTurnaround();
  return os.str();
}

double MeasureSeconds(const std::function<void()>& fn) {
  WallTimer timer;
  fn();
  double t0 = timer.ElapsedSeconds();
  if (t0 >= 0.05) return t0;
  // Short measurement: take the median of three runs.
  timer.Restart();
  fn();
  double t1 = timer.ElapsedSeconds();
  timer.Restart();
  fn();
  double t2 = timer.ElapsedSeconds();
  double lo = std::min({t0, t1, t2});
  double hi = std::max({t0, t1, t2});
  return t0 + t1 + t2 - lo - hi;
}

BaselineResult RunSpspsp(const CsrMatrix& a, const CsrMatrix& b) {
  BaselineResult result;
  std::size_t bytes = 0;
  result.seconds = MeasureSeconds([&] {
    CsrMatrix c = SpGemmCsr(a, b);
    bytes = c.MemoryBytes();
  });
  result.result_bytes = bytes;
  result.ran = true;
  return result;
}

BaselineResult RunSpspd(const CsrMatrix& a, const CsrMatrix& b) {
  BaselineResult result;
  std::size_t bytes = 0;
  result.seconds = MeasureSeconds([&] {
    DenseMatrix c = SpGemmDense(a, b);
    bytes = c.MemoryBytes();
  });
  result.result_bytes = bytes;
  result.ran = true;
  return result;
}

BaselineResult RunSpdd(const CsrMatrix& a, const CsrMatrix& b,
                       index_t max_dense_dim) {
  BaselineResult result;
  if (std::max({b.rows(), b.cols(), a.rows()}) > max_dense_dim) {
    return result;  // densification infeasible at this size
  }
  DenseMatrix b_dense = CsrToDense(b);
  std::size_t bytes = 0;
  result.seconds = MeasureSeconds([&] {
    DenseMatrix c(a.rows(), b.cols());
    SddGemm(a, Window::Full(a.rows(), a.cols()), b_dense.View(),
            c.MutView(), 0, a.rows());
    bytes = c.MemoryBytes();
  });
  result.result_bytes = bytes;
  result.ran = true;
  return result;
}

BaselineResult RunDdd(const CsrMatrix& a, const CsrMatrix& b,
                      index_t max_dense_dim) {
  BaselineResult result;
  if (std::max({a.rows(), a.cols(), b.cols()}) > max_dense_dim) {
    return result;
  }
  DenseMatrix a_dense = CsrToDense(a);
  DenseMatrix b_dense = CsrToDense(b);
  std::size_t bytes = 0;
  result.seconds = MeasureSeconds([&] {
    DenseMatrix c(a.rows(), b.cols());
    DddGemm(a_dense.View(), b_dense.View(), c.MutView(), 0, a.rows());
    bytes = c.MemoryBytes();
  });
  result.result_bytes = bytes;
  result.ran = true;
  return result;
}

std::string FmtSpeedup(const BaselineResult& baseline,
                       double atmult_seconds) {
  if (!baseline.ran || atmult_seconds <= 0.0) return "-";
  return TablePrinter::Fmt(baseline.seconds / atmult_seconds, 2) + "x";
}

std::string FmtRel(const BaselineResult& baseline,
                   const BaselineResult& reference) {
  if (!baseline.ran || !reference.ran || baseline.seconds <= 0.0) return "-";
  return TablePrinter::Fmt(reference.seconds / baseline.seconds, 2) + "x";
}

namespace {

// Local escaper so the report works under -DATMX_OBS=OFF (the obs JSON
// helpers are not compiled there).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// Counter key names, index-aligned with the PerfCounterId slots (and with
// the trace-arg keys check_trace.py validates).
constexpr const char* kBenchCounterNames[6] = {
    "cycles",      "instructions", "llc_loads",
    "llc_misses",  "dtlb_misses",  "task_clock_ns"};

double Percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

void FlushBenchReportAtExit() {
  BenchReporter& reporter = BenchReporter::Global();
  if (!reporter.armed()) return;
  // Re-query the path through ToJson/WriteJson: the reporter keeps it.
  reporter.WriteJson("");  // "" = use the armed path
}

}  // namespace

BenchReporter& BenchReporter::Global() {
  static BenchReporter* reporter = new BenchReporter();
  return *reporter;
}

void BenchReporter::Configure(const std::string& bench_name,
                              const BenchEnv& env) {
  bench_name_ = bench_name;
  scale_ = env.scale;
  llc_bytes_ = env.config.llc_bytes;
  b_atomic_ = env.config.AtomicBlockSize();
  teams_ = env.config.EffectiveTeams();
  threads_ = env.config.EffectiveThreadsPerTeam();
  rho_read_ = env.config.rho_read;
  rho_write_ = env.config.rho_write;
  configured_ = true;
}

void BenchReporter::ArmOutput(const std::string& path) {
  static bool registered = false;
  out_path_ = path;
  if (!registered) {
    registered = true;
    std::atexit(FlushBenchReportAtExit);
  }
}

BenchReporter::Case* BenchReporter::FindOrAddCase(const std::string& name) {
  for (Case& c : cases_) {
    if (c.name == name) return &c;
  }
  cases_.push_back(Case{});
  cases_.back().name = name;
  return &cases_.back();
}

double BenchReporter::MeasureCase(const std::string& name,
                                  const std::function<void()>& fn) {
  if (!armed()) return MeasureSeconds(fn);
  Case* c = FindOrAddCase(name);
#if defined(ATMX_OBS_ENABLED)
  const obs::PerfSnapshot begin = obs::PerfBeginSnapshot();
#endif
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repetitions_));
  for (int rep = 0; rep < repetitions_; ++rep) {
    WallTimer timer;
    fn();
    samples.push_back(timer.ElapsedSeconds());
  }
#if defined(ATMX_OBS_ENABLED)
  const obs::PerfDelta delta = obs::PerfDeltaSince(begin);
  if (delta.valid && delta.present != 0) {
    c->has_counters = true;
    c->counters_present |= delta.present;
    for (int i = 0; i < obs::kNumPerfCounters; ++i) {
      c->counters[i] += delta.value[static_cast<std::size_t>(i)];
    }
  }
#endif
  for (double s : samples) c->samples.push_back(s);
  std::sort(samples.begin(), samples.end());
  return Percentile(samples, 0.5);
}

void BenchReporter::AddSample(const std::string& name, double seconds) {
  if (!armed()) return;
  FindOrAddCase(name)->samples.push_back(seconds);
}

std::string BenchReporter::ToJson() const {
  std::ostringstream os;
  const char* sha = std::getenv("ATMX_GIT_SHA");
  os << "{\"schema_version\":1,\"bench\":\"" << JsonEscape(bench_name_)
     << "\",\"git_sha\":\""
     << JsonEscape(sha != nullptr && sha[0] != '\0' ? sha : "unknown")
     << "\",\"unix_time\":" << static_cast<long long>(std::time(nullptr));
  os << ",\"config\":{\"scale\":" << JsonDouble(scale_)
     << ",\"llc_bytes\":" << llc_bytes_ << ",\"b_atomic\":" << b_atomic_
     << ",\"teams\":" << teams_ << ",\"threads\":" << threads_
     << ",\"rho_read\":" << JsonDouble(rho_read_)
     << ",\"rho_write\":" << JsonDouble(rho_write_);
#if defined(ATMX_OBS_ENABLED)
  os << ",\"obs_enabled\":1,\"perf_counters\":"
     << (obs::PerfCountersAvailable() ? 1 : 0);
#else
  os << ",\"obs_enabled\":0,\"perf_counters\":0";
#endif
  os << "},\"cases\":[";
  bool first_case = true;
  for (const Case& c : cases_) {
    if (!first_case) os << ",";
    first_case = false;
    std::vector<double> sorted = c.samples;
    std::sort(sorted.begin(), sorted.end());
    os << "{\"name\":\"" << JsonEscape(c.name)
       << "\",\"repetitions\":" << c.samples.size() << ",\"wall_seconds\":{"
       << "\"min\":" << JsonDouble(sorted.empty() ? 0.0 : sorted.front())
       << ",\"median\":" << JsonDouble(Percentile(sorted, 0.5))
       << ",\"p95\":" << JsonDouble(Percentile(sorted, 0.95))
       << ",\"max\":" << JsonDouble(sorted.empty() ? 0.0 : sorted.back())
       << ",\"samples\":[";
    for (std::size_t i = 0; i < c.samples.size(); ++i) {
      if (i > 0) os << ",";
      os << JsonDouble(c.samples[i]);
    }
    os << "]}";
    if (c.has_counters) {
      os << ",\"counters\":{";
      bool first_counter = true;
      for (int i = 0; i < 6; ++i) {
        if ((c.counters_present & (1u << i)) == 0) continue;
        if (!first_counter) os << ",";
        first_counter = false;
        os << "\"" << kBenchCounterNames[i] << "\":" << c.counters[i];
      }
      os << "}";
    }
    os << "}";
  }
  os << "]}\n";
  return os.str();
}

bool BenchReporter::WriteJson(const std::string& path) const {
  const std::string& target = path.empty() ? out_path_ : path;
  if (target.empty()) return false;
  std::FILE* f = std::fopen(target.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", target.c_str());
    return false;
  }
  const std::string json = ToJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (ok) {
    std::fprintf(stderr, "bench: wrote %s (%zu cases)\n", target.c_str(),
                 cases_.size());
  }
  return ok;
}

void BenchReporter::Clear() {
  bench_name_ = "unnamed";
  configured_ = false;
  scale_ = 0.0;
  llc_bytes_ = 0;
  b_atomic_ = 0;
  teams_ = 0;
  threads_ = 0;
  rho_read_ = 0.0;
  rho_write_ = 0.0;
  cases_.clear();
}

void MaybeEnableBenchReport(const std::string& bench_name, int argc,
                            char** argv) {
  BenchReporter& reporter = BenchReporter::Global();
  if (const char* reps = std::getenv("ATMX_BENCH_REPS")) {
    const long long n = std::atoll(reps);
    if (n >= 1 && n <= 1000) {
      reporter.repetitions_ = static_cast<int>(n);
    }
  }
  reporter.bench_name_ = bench_name;
  for (int i = 1; i < argc; ++i) {
    static constexpr char kFlag[] = "--bench-out=";
    if (std::strncmp(argv[i], kFlag, sizeof(kFlag) - 1) == 0) {
      reporter.ArmOutput(argv[i] + sizeof(kFlag) - 1);
      return;
    }
  }
  if (const char* path = std::getenv("ATMX_BENCH_OUT")) {
    if (path[0] != '\0') reporter.ArmOutput(path);
  }
}

}  // namespace atmx::bench
