#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "obs/audit_ledger.h"
#include "obs/json_util.h"
#include "obs/mem_tracker.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace atmx::obs {

namespace {

constexpr int kFatalSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL};
constexpr std::size_t kNumFatalSignals =
    sizeof(kFatalSignals) / sizeof(kFatalSignals[0]);

// Previous dispositions, restored by Uninstall. Written only while
// installing/uninstalling (single controlling thread).
struct sigaction g_saved_actions[kNumFatalSignals];
atmx::internal::CheckFailureHook g_saved_check_hook = nullptr;

// Bounded, async-signal-safe string building for the dump prefix.
char* AppendStr(char* p, const char* end, const char* s) {
  while (*s != '\0' && p < end) *p++ = *s++;
  return p;
}

char* AppendUint(char* p, const char* end, unsigned long long v) {
  char digits[24];
  int n = 0;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0 && p < end) *p++ = digits[--n];
  return p;
}

bool WriteAll(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t written = ::write(fd, data, size);
    if (written <= 0) {
      if (written < 0 && errno == EINTR) continue;
      return false;
    }
    data += written;
    size -= static_cast<std::size_t>(written);
  }
  return true;
}

// Body served when a crash beats the first Refresh: keeps the dump
// schema-complete so parsers never special-case an empty file.
constexpr char kEmptyBody[] =
    "\"mem_high_water_bytes\":0,\"metrics\":{},\"decisions\":[],"
    "\"trace\":{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}";

// Tails kept in the dump (newest last). The full trace ring can be
// megabytes and the ledger holds up to 64 Ki records per class; a crash
// dump wants the tail, and rendering everything once per refresh period
// would make the refresh thread the most expensive one in the process.
constexpr std::size_t kMaxTraceEvents = 1024;
constexpr std::size_t kMaxDecisions = 2048;

// The dump body between the prefix and the closing brace.
std::string RenderBody() {
  std::vector<TraceEvent> events = TraceRecorder::Global().Snapshot();
  if (events.size() > kMaxTraceEvents) {
    events.erase(events.begin(),
                 events.end() - static_cast<long>(kMaxTraceEvents));
  }
  std::string body;
  body.reserve(1 << 14);
  body += "\"mem_high_water_bytes\":";
  body += std::to_string(MemTracker::Global().high_water_bytes());
  body += ",\"metrics\":";
  body += MetricsRegistry::Global().ToJson();
  body += ",\"decisions\":";
  body +=
      RenderReprRecordsJson(AuditLedger::Global().NewestRepr(kMaxDecisions));
  body += ",\"trace\":";
  body += RenderTraceEventsJson(events);
  return body;
}

}  // namespace

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

Status FlightRecorder::Install(const Options& options) {
  if (options.refresh_period.count() <= 0) {
    return Status::InvalidArgument(
        "flight recorder refresh_period must be positive");
  }
  {
    MutexLock lock(mu_);
    if (installed_.load(std::memory_order_relaxed)) {
      return Status::Internal("flight recorder already installed");
    }
    const std::string path = options.output_dir + "/atmx_flight_" +
                             std::to_string(::getpid()) + ".json";
    if (path.size() >= sizeof(path_)) {
      return Status::InvalidArgument(
          "flight recorder output path too long: " + path);
    }
    std::memcpy(path_, path.c_str(), path.size() + 1);
    options_ = options;
    stop_requested_ = false;
    dumped_.store(false, std::memory_order_relaxed);
  }
  installed_.store(true, std::memory_order_release);
  Refresh();

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &FlightRecorder::SignalHandler;
  sigemptyset(&sa.sa_mask);
  for (std::size_t i = 0; i < kNumFatalSignals; ++i) {
    if (::sigaction(kFatalSignals[i], &sa, &g_saved_actions[i]) != 0) {
      installed_.store(false, std::memory_order_release);
      return Status::IoError("flight recorder: sigaction failed");
    }
  }
  g_saved_check_hook =
      internal::SetCheckFailureHook(&FlightRecorder::CheckHook);
  MutexLock lock(mu_);
  refresher_ = std::thread([this] { RefreshLoop(); });
  return Status::Ok();
}

void FlightRecorder::Uninstall() {
  if (!installed_.exchange(false, std::memory_order_acq_rel)) return;
  std::thread refresher;
  {
    MutexLock lock(mu_);
    stop_requested_ = true;
    refresher = std::move(refresher_);
  }
  cv_.NotifyAll();
  if (refresher.joinable()) refresher.join();
  for (std::size_t i = 0; i < kNumFatalSignals; ++i) {
    ::sigaction(kFatalSignals[i], &g_saved_actions[i], nullptr);
  }
  internal::SetCheckFailureHook(g_saved_check_hook);
  g_saved_check_hook = nullptr;
  dumped_.store(false, std::memory_order_relaxed);
}

void FlightRecorder::RefreshLoop() {
  Counter& refreshes =
      MetricsRegistry::Global().GetCounter("flight.refreshes");
  for (;;) {
    {
      MutexLock lock(mu_);
      if (!stop_requested_) cv_.WaitFor(mu_, options_.refresh_period);
      if (stop_requested_) return;
    }
    // Counted before rendering, so a dump's own flight.refreshes value
    // is the number of the refresh that produced it.
    refreshes.Increment();
    Refresh();
  }
}

void FlightRecorder::Refresh() {
  if (!installed()) return;
  if (dumped_.load(std::memory_order_acquire)) return;
  std::string body = RenderBody();

  MutexLock lock(mu_);
  // A dump may have started while rendering; the buffer active_ points at
  // must not change underneath the handler, and the inactive one might be
  // the handler's next read if it loaded active_ before our last publish —
  // once dumping begins, stop touching both.
  if (dumped_.load(std::memory_order_acquire)) return;
  std::string* target = active_.load(std::memory_order_relaxed) == &bodies_[0]
                            ? &bodies_[1]
                            : &bodies_[0];
  *target = std::move(body);
  active_.store(target, std::memory_order_release);
}

Status FlightRecorder::DumpNow(const std::string& reason) {
  if (!installed()) {
    return Status::Internal("flight recorder not installed");
  }
  // A private body: the published buffers belong to the refresh thread
  // and the handlers.
  const std::string body = RenderBody();
  const std::string safe_reason = EscapeJson(reason);
  if (!WriteDumpFile(0, safe_reason.c_str(), &body)) {
    return Status::IoError(std::string("failed writing flight dump: ") +
                           path_);
  }
  return Status::Ok();
}

std::string FlightRecorder::DumpPath() const { return std::string(path_); }

void FlightRecorder::SignalHandler(int sig) {
  Global().DumpFromHandler(sig, "signal");
  // Restore the default disposition and re-raise so the process still
  // dies with the original signal (exit status, core dumps, CI checks).
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void FlightRecorder::CheckHook() {
  // std::abort() follows in check.cc; the SIGABRT handler then sees
  // dumped_ already claimed and goes straight to re-raise.
  Global().DumpFromHandler(0, "check");
}

void FlightRecorder::DumpFromHandler(int sig, const char* reason) {
  if (dumped_.exchange(true, std::memory_order_acq_rel)) return;
  (void)WriteDumpFile(sig, reason, active_.load(std::memory_order_acquire));
}

bool FlightRecorder::WriteDumpFile(int sig, const char* reason,
                                   const std::string* body) {
  if (path_[0] == '\0') return false;
  const int fd = ::open(path_, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  char prefix[192];
  char* p = prefix;
  const char* end = prefix + sizeof(prefix);
  p = AppendStr(p, end, "{\"flight_schema\":1,\"pid\":");
  p = AppendUint(p, end, static_cast<unsigned long long>(::getpid()));
  p = AppendStr(p, end, ",\"signal\":");
  p = AppendUint(p, end,
                 sig < 0 ? 0ull : static_cast<unsigned long long>(sig));
  p = AppendStr(p, end, ",\"reason\":\"");
  p = AppendStr(p, end, reason);
  p = AppendStr(p, end, "\",");
  bool ok = WriteAll(fd, prefix, static_cast<std::size_t>(p - prefix));
  if (body != nullptr) {
    ok = WriteAll(fd, body->data(), body->size()) && ok;
  } else {
    ok = WriteAll(fd, kEmptyBody, sizeof(kEmptyBody) - 1) && ok;
  }
  ok = WriteAll(fd, "}", 1) && ok;
  ::close(fd);
  return ok;
}

}  // namespace atmx::obs
