// Embedded stats endpoint: a minimal, dependency-free HTTP/1.0 server on
// one listener thread (blocking accept, one request per connection,
// Connection: close) exposing the live observability state of a running
// process:
//
//   /metrics        OpenMetrics text (exposition.h)
//   /metrics.json   flat JSON metrics (same document as ToJson)
//   /trace          current Chrome trace_event ring
//   /decisions      audit ledger document (AuditLedger::ToJson)
//   /healthz        "ok" liveness probe
//
// Off by default: benches only Start() it when --stats-port= or
// ATMX_STATS_PORT is given (bench/bench_common.h). Port 0 binds an
// ephemeral port (printed by the benches, read back via port()) so CI can
// scrape without reserving numbers. Binds 127.0.0.1 only — this is a
// diagnostics endpoint, not a public service.
//
// Locking discipline: the mutex only guards lifecycle state (thread
// handle, running flag, options). No lock is ever held across accept(2),
// recv(2), or send(2) — a stuck client must not be able to wedge Start/
// Stop — and tools/atmx_lint.py's no-lock-across-callback check enforces
// exactly that for this file.
//
// HttpGet/ParseHttpUrl are the matching client half, shared by the
// `atmx watch` subcommand and the tests.
//
// Compiled only under -DATMX_OBS=ON.

#ifndef ATMX_OBS_STATS_SERVER_H_
#define ATMX_OBS_STATS_SERVER_H_

#include <atomic>
#include <string>
#include <thread>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace atmx::obs {

class StatsServer {
 public:
  struct Options {
    // TCP port on 127.0.0.1; 0 = ephemeral (read back via port()).
    int port = 0;
    // Registry served; nullptr = MetricsRegistry::Global().
    MetricsRegistry* registry = nullptr;
  };

  // Process-wide server used by the bench wiring.
  static StatsServer& Global();

  StatsServer() = default;
  ~StatsServer();

  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;

  // Binds, listens, and launches the listener thread. InvalidArgument on
  // a port outside [0, 65535]; Internal if already running; IoError when
  // the socket cannot be bound.
  [[nodiscard]] Status Start(const Options& options);

  // Shuts the listening socket down and joins the thread. In-flight
  // requests finish; no new connections are accepted. No-op when not
  // running.
  void Stop();

  bool running() const;

  // The bound port (resolved for port 0); -1 when not running.
  int port() const;

  // Pure request → response mapping, exposed for tests: takes the raw
  // request head ("GET /metrics HTTP/1.0\r\n..."), returns the complete
  // HTTP/1.0 response (status line, headers, body).
  static std::string HandleRequest(const std::string& request,
                                   MetricsRegistry& registry);

 private:
  void ThreadMain(int listen_fd, MetricsRegistry* registry);

  mutable Mutex mu_;
  bool running_ ATMX_GUARDED_BY(mu_) = false;
  int port_ ATMX_GUARDED_BY(mu_) = -1;
  std::thread thread_ ATMX_GUARDED_BY(mu_);
  // Owned by the listener; Stop shuts it down to unblock accept.
  std::atomic<int> listen_fd_{-1};
};

// A parsed http:// URL. Path defaults to "/" when absent.
struct HttpUrl {
  std::string host;
  int port = 0;
  std::string path;
};

// Accepts "http://host:port/path" (scheme optional, IPv4 or "localhost"
// hosts). InvalidArgument on anything else.
[[nodiscard]] Result<HttpUrl> ParseHttpUrl(const std::string& url);

// One blocking HTTP/1.0 GET. Returns the response body on a 200;
// IoError on connect/send/recv failure or timeout, Internal on a
// non-200 status.
[[nodiscard]] Result<std::string> HttpGet(const std::string& host, int port,
                                          const std::string& path,
                                          int timeout_ms = 2000);

}  // namespace atmx::obs

#endif  // ATMX_OBS_STATS_SERVER_H_
