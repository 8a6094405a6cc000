#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "core/logging.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hiergat {
namespace serve {

namespace {

obs::Counter& RequestsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.serve.requests");
  return counter;
}
obs::Counter& PairsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("hiergat.serve.pairs");
  return counter;
}
obs::Counter& ErrorsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("hiergat.serve.errors");
  return counter;
}
obs::Counter& ConnectionsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.serve.connections");
  return counter;
}
obs::Counter& HttpRequestsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.serve.http_requests");
  return counter;
}
obs::Histogram& RequestSecondsHistogram() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "hiergat.serve.request_seconds",
          obs::Histogram::ExponentialBounds(1e-6, 4, 12));
  return histogram;
}

WireStatus ToWireStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return WireStatus::kOk;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return WireStatus::kInvalidArgument;
    case StatusCode::kNotFound:
      return WireStatus::kNotFound;
    case StatusCode::kResourceExhausted:
      return WireStatus::kResourceExhausted;
    case StatusCode::kUnavailable:
      return WireStatus::kUnavailable;
    default:
      return WireStatus::kInternal;
  }
}

/// Reads the rest of an HTTP request (we only need the request line; the
/// shim answers GETs with no body). Stops at the blank line or when the
/// peer half-closes; bounded so a hostile peer cannot grow the buffer.
std::string ReadHttpRequest(int fd, std::string head) {
  constexpr size_t kMaxHttpRequestBytes = 16 << 10;
  while (head.find("\r\n\r\n") == std::string::npos &&
         head.size() < kMaxHttpRequestBytes) {
    char buf[1024];
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    head.append(buf, static_cast<size_t>(n));
  }
  return head;
}

void WriteHttpResponse(int fd, int code, const char* reason,
                       const std::string& content_type,
                       const std::string& body) {
  std::string response = "HTTP/1.1 " + std::to_string(code) + " " + reason +
                         "\r\nContent-Type: " + content_type +
                         "\r\nContent-Length: " + std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n" + body;
  (void)WriteFull(fd, response.data(), response.size());
}

}  // namespace

Server::Server(ModelRegistry* registry, const ServerOptions& options)
    : registry_(registry),
      options_(options),
      batcher_(options.batcher) {}

StatusOr<std::unique_ptr<Server>> Server::Start(ModelRegistry* registry,
                                                const ServerOptions& options) {
  if (registry == nullptr) {
    return Status::InvalidArgument("server: registry must not be null");
  }

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError("server: socket() failed: " +
                           std::string(std::strerror(errno)));
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("server: bad host address \"" +
                                   options.host + "\"");
  }
  if (bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    close(fd);
    return Status::IOError("server: bind(" + options.host + ":" +
                           std::to_string(options.port) + ") failed: " + err);
  }
  if (listen(fd, options.listen_backlog) != 0) {
    const std::string err = std::strerror(errno);
    close(fd);
    return Status::IOError("server: listen() failed: " + err);
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    const std::string err = std::strerror(errno);
    close(fd);
    return Status::IOError("server: getsockname() failed: " + err);
  }

  std::unique_ptr<Server> server(new Server(registry, options));
  server->listen_fd_ = fd;
  server->port_ = ntohs(bound.sin_port);
  server->acceptor_ = std::thread([raw = server.get()] {
    obs::SetTraceThreadName("serve-acceptor");
    raw->AcceptLoop();
  });
  HG_LOG(INFO) << "serve: listening on " << options.host << ":"
               << server->port_;
  return server;
}

Server::~Server() { Shutdown(); }

void Server::Shutdown() {
  if (shutdown_.exchange(true)) return;

  // Wake the acceptor: shutdown(2) makes the blocking accept() return.
  if (listen_fd_ >= 0) shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }

  // Nudge every open connection's blocking read, then join. Requests
  // already read keep flowing through the batcher and are answered
  // before the connection thread exits its loop.
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    threads.swap(finished_threads_);
    for (auto& [fd, thread] : open_connections_) {
      shutdown(fd, SHUT_RD);
      threads.push_back(std::move(thread));
    }
    open_connections_.clear();
  }
  for (std::thread& t : threads) t.join();

  batcher_.Shutdown();
  HG_LOG(INFO) << "serve: drained (" << requests_.load() << " request(s), "
               << connections_.load() << " connection(s))";
}

Server::Stats Server::stats() const {
  Stats stats;
  stats.connections = connections_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.http_requests = http_requests_.load(std::memory_order_relaxed);
  return stats;
}

void Server::AcceptLoop() {
  while (!shutdown_.load(std::memory_order_acquire)) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (shutdown_.load(std::memory_order_acquire)) break;
      if (errno == EINTR) continue;
      HG_LOG(ERROR) << "serve: accept() failed: " << std::strerror(errno);
      break;
    }
    if (shutdown_.load(std::memory_order_acquire)) {
      close(fd);
      break;
    }
    // Request/response ping-pong: never let Nagle hold a response back
    // waiting for a delayed ACK.
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_.fetch_add(1, std::memory_order_relaxed);
    ConnectionsCounter().Increment();
    std::vector<std::thread> finished;
    {
      // Registered under the mutex, so the thread's CloseConnection
      // always finds its own entry.
      std::lock_guard<std::mutex> lock(connections_mutex_);
      finished.swap(finished_threads_);
      open_connections_.emplace(fd, std::thread([this, fd] {
                             obs::SetTraceThreadName("serve-conn");
                             HandleConnection(fd);
                             CloseConnection(fd);
                           }));
    }
    for (std::thread& t : finished) t.join();
  }
}

void Server::CloseConnection(int fd) {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  close(fd);
  const auto it = open_connections_.find(fd);
  if (it == open_connections_.end()) return;  // Shutdown took it to join.
  finished_threads_.push_back(std::move(it->second));
  open_connections_.erase(it);
}

void Server::HandleConnection(int fd) {
  // Protocol sniff: framed connections always start with the 4-byte
  // frame magic; anything else (e.g. "GET ") is handed to the HTTP shim.
  char sniff[4];
  Status sniff_status = ReadFull(fd, sniff, sizeof(sniff));
  if (!sniff_status.ok()) return;
  uint32_t magic;
  std::memcpy(&magic, sniff, sizeof(magic));
  if (magic != kFrameMagic) {
    HandleHttp(fd, std::string(sniff, sizeof(sniff)));
    return;
  }

  // Framed loop: frames after the first re-read their own magic.
  bool first_frame = true;
  while (!shutdown_.load(std::memory_order_acquire)) {
    StatusOr<std::string> payload = first_frame
                                        ? ReadFramePayloadAfterMagic(fd)
                                        : ReadFramePayload(fd);
    first_frame = false;
    if (!payload.ok()) {
      // Clean close (NotFound) ends the loop quietly; a malformed frame
      // header is unrecoverable (framing lost), so close either way.
      if (payload.status().code() != StatusCode::kNotFound &&
          !shutdown_.load(std::memory_order_acquire)) {
        HG_LOG(WARN) << "serve: dropping connection: "
                     << payload.status().ToString();
        ErrorsCounter().Increment();
      }
      break;
    }

    Response response;
    StatusOr<Request> request = DecodeRequest(payload.value());
    if (!request.ok()) {
      // Payload was length-delimited, so framing survives a bad payload;
      // answer the error and keep the connection.
      ErrorsCounter().Increment();
      response.status = ToWireStatus(request.status());
      response.message = request.status().ToString();
    } else {
      response = HandleRequest(request.value());
    }
    requests_.fetch_add(1, std::memory_order_relaxed);
    RequestsCounter().Increment();
    if (!WriteFrame(fd, EncodeResponse(response)).ok()) break;
  }
}

Response Server::HandleRequest(const Request& request) {
  HG_TRACE_SPAN("serve.Request");
  const auto started_ns = obs::MonotonicNowNs();
  Response response;
  response.trace_id = request.trace_id;

  // Root or adopt the request's trace context so engine/graph spans
  // attach to the client's id.
  obs::TraceContext context = obs::NewTraceContext();
  if (request.trace_id != 0) context.trace_id = request.trace_id;
  obs::ScopedTraceContext scoped_context(context);
  if (response.trace_id == 0) response.trace_id = context.trace_id;

  switch (request.type) {
    case MessageType::kPing:
      break;

    case MessageType::kReload: {
      const Status status =
          registry_->Reload(request.reload.model, request.reload.checkpoint_path);
      if (!status.ok()) {
        ErrorsCounter().Increment();
        response.status = ToWireStatus(status);
        response.message = status.ToString();
      }
      break;
    }

    case MessageType::kScore: {
      std::shared_ptr<Session> session = registry_->Get(request.score.model);
      if (session == nullptr) {
        ErrorsCounter().Increment();
        response.status = WireStatus::kNotFound;
        response.message =
            request.score.model.empty()
                ? "no unambiguous model published (name one explicitly)"
                : "unknown model \"" + request.score.model + "\"";
        break;
      }
      StatusOr<std::vector<float>> scores =
          batcher_.Score(std::move(session), request.score.pairs);
      if (!scores.ok()) {
        // A shed is counted by hiergat.serve.admission.rejected.
        if (scores.status().code() != StatusCode::kResourceExhausted) {
          ErrorsCounter().Increment();
        }
        response.status = ToWireStatus(scores.status());
        response.message = scores.status().ToString();
        break;
      }
      PairsCounter().Increment(
          static_cast<int64_t>(request.score.pairs.size()));
      response.scores = std::move(scores).value();
      break;
    }

    default:
      ErrorsCounter().Increment();
      response.status = WireStatus::kInvalidArgument;
      response.message = "unknown message type " +
                         std::to_string(static_cast<int>(request.type));
      break;
  }

  RequestSecondsHistogram().Observe(
      static_cast<double>(obs::MonotonicNowNs() - started_ns) * 1e-9);
  return response;
}

void Server::HandleHttp(int fd, const std::string& sniffed) {
  const std::string request = ReadHttpRequest(fd, sniffed);
  http_requests_.fetch_add(1, std::memory_order_relaxed);
  HttpRequestsCounter().Increment();

  // Request line: METHOD SP path SP version.
  const size_t line_end = request.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.find(' ', sp1 == std::string::npos ? 0 : sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    WriteHttpResponse(fd, 400, "Bad Request", "text/plain", "bad request\n");
    return;
  }
  const std::string method = line.substr(0, sp1);
  const std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET") {
    WriteHttpResponse(fd, 405, "Method Not Allowed", "text/plain",
                      "only GET is supported\n");
    return;
  }

  if (path == "/healthz") {
    WriteHttpResponse(fd, 200, "OK", "text/plain", "ok\n");
  } else if (path == "/readyz") {
    if (registry_->size() > 0) {
      WriteHttpResponse(fd, 200, "OK", "text/plain", "ready\n");
    } else {
      WriteHttpResponse(fd, 503, "Service Unavailable", "text/plain",
                        "no models published\n");
    }
  } else if (path == "/metrics") {
    WriteHttpResponse(fd, 200, "OK", "text/plain; version=0.0.4",
                      obs::MetricsRegistry::Global().PrometheusText());
  } else {
    WriteHttpResponse(fd, 404, "Not Found", "text/plain",
                      "unknown path; try /healthz, /readyz, /metrics\n");
  }
}

}  // namespace serve
}  // namespace hiergat
