// Crash flight recorder: persists the observability state — bounded trace
// tail, metrics snapshot, newest audit-ledger repr decisions, logical
// memory high-water — to
// `atmx_flight_<pid>.json` when the process dies violently (fatal signal
// or ATMX_CHECK failure), so a crash in a long run is debuggable instead
// of mute.
//
// Async-signal-safety strategy: nothing is rendered in the handler. A
// full JSON body is pre-rendered into one of two double-buffered strings
// by Refresh() — called at Install and then once per sampler tick
// (snapshot_ring.h), so the dump is at most one period stale — and
// published through a single atomic pointer. The handler only: sets an
// atomic dumped flag, loads that pointer, composes a small prefix
// (`{"flight_schema":1,"pid":..,"signal":..,"reason":"..",`) with a
// stack itoa, and open(2)/write(2)s prefix + body + `}` to a path that
// was also pre-rendered at Install. Then it restores the default
// disposition and re-raises, preserving the process's exit status.
//
// The ATMX_CHECK path reuses the same dump via the obs-agnostic
// SetCheckFailureHook in common/check.h (so ATMX_OBS=OFF builds carry no
// obs references; this header is only included under ON and call sites
// are #if-guarded — the "no-op stub" of the OFF configuration).
//
// Compiled only under -DATMX_OBS=ON.

#ifndef ATMX_OBS_FLIGHT_RECORDER_H_
#define ATMX_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <string>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace atmx::obs {

class FlightRecorder {
 public:
  struct Options {
    // Directory receiving atmx_flight_<pid>.json.
    std::string output_dir = ".";
    // Trace events kept in the dump (newest last). The full ring can be
    // megabytes; a crash dump wants the tail.
    std::size_t max_trace_events = 1024;
    // Audit-ledger repr records kept in the dump (newest last), for the
    // same reason: the ledger holds up to 64 Ki records per class, and
    // Refresh runs once per sampler tick — rendering all of them there
    // would make the sampler the most expensive thread in the process.
    std::size_t max_decisions = 2048;
  };

  static FlightRecorder& Global();

  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Pre-renders the dump path and first body, installs handlers for the
  // fatal signals (SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL) and the
  // ATMX_CHECK failure hook. Internal if already installed; IoError if a
  // handler cannot be installed. The no-argument overload uses default
  // Options (a default argument would need Options' NSDMIs complete
  // inside the enclosing class, which gcc rejects).
  [[nodiscard]] Status Install(const Options& options);
  [[nodiscard]] Status Install() { return Install(Options()); }

  // Restores the saved signal dispositions and check hook. Test support.
  void Uninstall();

  bool installed() const {
    return installed_.load(std::memory_order_acquire);
  }

  // Re-renders the JSON body from the current trace/metrics/decisions/
  // mem-tracker state into the inactive buffer and publishes it. NOT
  // async-signal-safe (allocates, takes registry locks) — called from
  // normal threads only; no-op while a dump is in progress or when not
  // installed.
  void Refresh();

  // Renders a fresh body and writes the dump file now, with `reason` in
  // place of "signal"/"check". Test hook for validating the file format
  // without crashing the process.
  [[nodiscard]] Status DumpNow(const std::string& reason);

  // The pre-rendered dump path ("" before Install).
  std::string DumpPath() const;

 private:
  static void SignalHandler(int sig);
  static void CheckHook();

  // The handler body: claims the dumped flag, writes the file. `sig` 0
  // for the check-failure path. Async-signal-safe.
  void DumpFromHandler(int sig, const char* reason);

  // Writes prefix + active body + "}" to path_. Returns false on any
  // short write / open failure. Async-signal-safe.
  bool WriteDumpFile(int sig, const char* reason);

  mutable Mutex mu_;
  Options options_ ATMX_GUARDED_BY(mu_);
  // Double buffer: Refresh renders into the string active_ does not point
  // at, then publishes it. The handler reads only through active_.
  std::string bodies_[2] ATMX_GUARDED_BY(mu_);
  std::atomic<const std::string*> active_{nullptr};

  std::atomic<bool> installed_{false};
  // Set (exchange) by the first dump; later fatal signals skip straight
  // to re-raise, and Refresh stops touching the buffers.
  std::atomic<bool> dumped_{false};

  // Pre-rendered NUL-terminated dump path; written once during Install
  // (before any handler can run), read lock-free by the handler.
  char path_[512] = {0};
};

}  // namespace atmx::obs

#endif  // ATMX_OBS_FLIGHT_RECORDER_H_
