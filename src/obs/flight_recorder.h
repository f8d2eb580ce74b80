// Crash flight recorder: persists the observability state — bounded trace
// tail, metrics snapshot, newest audit-ledger repr decisions, logical
// memory high-water — to
// `atmx_flight_<pid>.json` when the process dies violently (fatal signal
// or ATMX_CHECK failure), so a crash in a long run is debuggable instead
// of mute.
//
// Async-signal-safety strategy: nothing is rendered in the handler. A
// full JSON body is pre-rendered into one of two double-buffered strings
// by Refresh() — called at Install and then by the recorder's own refresh
// thread once per Options::refresh_period, so the dump lags by at most
// one period plus one render — and published through a single atomic
// pointer. Each tick bumps the `flight.refreshes` counter. The handler only: sets an
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
#include <chrono>
#include <string>
#include <thread>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace atmx::obs {

class FlightRecorder {
 public:
  struct Options {
    // Directory receiving atmx_flight_<pid>.json.
    std::string output_dir = ".";
    // Tick period of the refresh thread; a crash dump lags the live
    // state by at most this plus one render.
    std::chrono::milliseconds refresh_period{250};
  };

  static FlightRecorder& Global();

  FlightRecorder() = default;
  ~FlightRecorder() { Uninstall(); }
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Pre-renders the dump path and first body, installs handlers for the
  // fatal signals (SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL) and the
  // ATMX_CHECK failure hook, and starts the refresh thread.
  // InvalidArgument on a non-positive refresh_period or an overlong path;
  // Internal if already installed; IoError if a handler cannot be
  // installed. The no-argument overload uses default Options (a default
  // argument would need Options' NSDMIs complete inside the enclosing
  // class, which gcc rejects).
  [[nodiscard]] Status Install(const Options& options);
  [[nodiscard]] Status Install() { return Install(Options()); }

  // Stops and joins the refresh thread, then restores the saved signal
  // dispositions and check hook. No-op when not installed.
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

  // The refresh thread: Refresh() once per refresh_period until
  // Uninstall.
  void RefreshLoop();

  // The handler body: claims the dumped flag, writes the published body.
  // `sig` 0 for the check-failure path. Async-signal-safe.
  void DumpFromHandler(int sig, const char* reason);

  // Writes prefix + `body` (the empty schema when null) + "}" to path_.
  // Returns false on any short write / open failure. Async-signal-safe.
  bool WriteDumpFile(int sig, const char* reason, const std::string* body);

  mutable Mutex mu_;
  CondVar cv_;
  Options options_ ATMX_GUARDED_BY(mu_);
  bool stop_requested_ ATMX_GUARDED_BY(mu_) = false;
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

  // Last, so it is declared after everything RefreshLoop touches.
  std::thread refresher_ ATMX_GUARDED_BY(mu_);
};

}  // namespace atmx::obs

#endif  // ATMX_OBS_FLIGHT_RECORDER_H_
