#include "obs/stats_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "obs/audit_ledger.h"
#include "obs/exposition.h"
#include "obs/trace.h"

namespace atmx::obs {

namespace {

constexpr int kClientTimeoutSeconds = 2;

void SetSocketTimeouts(int fd, int seconds) {
  struct timeval tv;
  tv.tv_sec = seconds;
  tv.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool SendAll(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t sent = ::send(fd, data, size, MSG_NOSIGNAL);
    if (sent <= 0) {
      if (sent < 0 && errno == EINTR) continue;
      return false;
    }
    data += sent;
    size -= static_cast<std::size_t>(sent);
  }
  return true;
}

std::string MakeResponse(const char* status, const char* content_type,
                         const std::string& body) {
  std::string response;
  response.reserve(body.size() + 128);
  response += "HTTP/1.0 ";
  response += status;
  response += "\r\nContent-Type: ";
  response += content_type;
  response += "\r\nContent-Length: ";
  response += std::to_string(body.size());
  response += "\r\nConnection: close\r\n\r\n";
  response += body;
  return response;
}

// Extracts the request target of "GET <target> HTTP/1.x". Empty when the
// request is not a GET (the only method this endpoint speaks).
std::string ParseGetTarget(const std::string& request) {
  if (request.rfind("GET ", 0) != 0) return std::string();
  const std::size_t start = 4;
  const std::size_t end = request.find(' ', start);
  if (end == std::string::npos) return std::string();
  return request.substr(start, end - start);
}

}  // namespace

StatsServer& StatsServer::Global() {
  static StatsServer* server = new StatsServer();
  return *server;
}

StatsServer::~StatsServer() { Stop(); }

std::string StatsServer::HandleRequest(const std::string& request,
                                       MetricsRegistry& registry) {
  const std::string target = ParseGetTarget(request);
  if (target.empty()) {
    return MakeResponse("405 Method Not Allowed", "text/plain",
                        "only GET is supported\n");
  }
  // Ignore any ?query suffix a scraper might append.
  const std::string path = target.substr(0, target.find('?'));
  if (path == "/metrics") {
    return MakeResponse(
        "200 OK",
        "application/openmetrics-text; version=1.0.0; charset=utf-8",
        RenderOpenMetrics(registry.Snapshot()));
  }
  if (path == "/metrics.json") {
    return MakeResponse("200 OK", "application/json",
                        RenderMetricsJson(registry.Snapshot()));
  }
  if (path == "/trace") {
    return MakeResponse("200 OK", "application/json",
                        TraceRecorder::Global().ToJson());
  }
  if (path == "/decisions") {
    return MakeResponse("200 OK", "application/json",
                        AuditLedger::Global().ToJson());
  }
  if (path == "/healthz" || path == "/") {
    return MakeResponse("200 OK", "text/plain", "ok\n");
  }
  return MakeResponse("404 Not Found", "text/plain",
                      "unknown path: " + path + "\n");
}

Status StatsServer::Start(const Options& options) {
  if (options.port < 0 || options.port > 65535) {
    return Status::InvalidArgument("stats server port out of range: " +
                                   std::to_string(options.port));
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("stats server: socket() failed");
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options.port));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IoError("stats server: cannot bind 127.0.0.1:" +
                           std::to_string(options.port));
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return Status::IoError("stats server: listen() failed");
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    &addr_len) != 0) {
    ::close(fd);
    return Status::IoError("stats server: getsockname() failed");
  }
  const int bound_port = ntohs(addr.sin_port);

  MetricsRegistry* registry = options.registry != nullptr
                                  ? options.registry
                                  : &MetricsRegistry::Global();
  MutexLock lock(mu_);
  if (running_) {
    ::close(fd);
    return Status::Internal("stats server already running");
  }
  running_ = true;
  port_ = bound_port;
  listen_fd_.store(fd, std::memory_order_release);
  thread_ = std::thread([this, fd, registry] { ThreadMain(fd, registry); });
  return Status::Ok();
}

void StatsServer::Stop() {
  std::thread joined;
  int fd;
  {
    MutexLock lock(mu_);
    if (!running_) return;
    running_ = false;
    port_ = -1;
    fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
    joined = std::move(thread_);
  }
  if (fd >= 0) {
    // shutdown wakes the blocking accept; close releases the port.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (joined.joinable()) joined.join();
}

bool StatsServer::running() const {
  MutexLock lock(mu_);
  return running_;
}

int StatsServer::port() const {
  MutexLock lock(mu_);
  return port_;
}

void StatsServer::ThreadMain(int listen_fd, MetricsRegistry* registry) {
  for (;;) {
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      // Stop() shut the socket down (or something is terminally wrong
      // with it); either way the listener is done.
      return;
    }
    SetSocketTimeouts(client, kClientTimeoutSeconds);
    char buf[2048];
    const ssize_t received = ::recv(client, buf, sizeof(buf) - 1, 0);
    std::string response;
    if (received > 0) {
      buf[received] = '\0';
      response = HandleRequest(std::string(buf), *registry);
    } else {
      response = MakeResponse("400 Bad Request", "text/plain",
                              "empty request\n");
    }
    (void)SendAll(client, response.data(), response.size());
    ::close(client);
  }
}

Result<HttpUrl> ParseHttpUrl(const std::string& url) {
  std::string rest = url;
  const std::string scheme = "http://";
  if (rest.rfind(scheme, 0) == 0) {
    rest = rest.substr(scheme.size());
  } else if (rest.find("://") != std::string::npos) {
    return Status::InvalidArgument("only http:// URLs are supported: " +
                                   url);
  }
  HttpUrl parsed;
  const std::size_t slash = rest.find('/');
  std::string host_port =
      slash == std::string::npos ? rest : rest.substr(0, slash);
  parsed.path = slash == std::string::npos ? "/" : rest.substr(slash);
  const std::size_t colon = host_port.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("URL must carry an explicit port: " +
                                   url);
  }
  parsed.host = host_port.substr(0, colon);
  const std::string port_str = host_port.substr(colon + 1);
  if (parsed.host.empty() || port_str.empty() ||
      port_str.find_first_not_of("0123456789") != std::string::npos) {
    return Status::InvalidArgument("malformed host:port in URL: " + url);
  }
  parsed.port = std::atoi(port_str.c_str());
  if (parsed.port <= 0 || parsed.port > 65535) {
    return Status::InvalidArgument("port out of range in URL: " + url);
  }
  return parsed;
}

Result<std::string> HttpGet(const std::string& host, int port,
                            const std::string& path, int timeout_ms) {
  const std::string addr_text = host == "localhost" ? "127.0.0.1" : host;
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, addr_text.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("HttpGet: not an IPv4 host: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("HttpGet: socket() failed");
  }
  struct timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IoError("HttpGet: cannot connect to " + host + ":" +
                           std::to_string(port));
  }
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: " + host + "\r\n\r\n";
  if (!SendAll(fd, request.data(), request.size())) {
    ::close(fd);
    return Status::IoError("HttpGet: send failed");
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t received = ::recv(fd, buf, sizeof(buf), 0);
    if (received < 0 && errno == EINTR) continue;
    if (received < 0) {
      ::close(fd);
      return Status::IoError("HttpGet: recv failed or timed out");
    }
    if (received == 0) break;
    response.append(buf, static_cast<std::size_t>(received));
  }
  ::close(fd);
  const std::size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return Status::IoError("HttpGet: malformed response (no header end)");
  }
  const std::string status_line =
      response.substr(0, response.find("\r\n"));
  if (status_line.find(" 200 ") == std::string::npos) {
    return Status::Internal("HttpGet: non-200 response: " + status_line);
  }
  return response.substr(header_end + 4);
}

}  // namespace atmx::obs
