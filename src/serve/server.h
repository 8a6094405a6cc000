#ifndef HIERGAT_SERVE_SERVER_H_
#define HIERGAT_SERVE_SERVER_H_

/// The long-lived matching server (DESIGN.md §14): a framed-TCP
/// protocol (serve/wire.h) in front of a ModelRegistry, with dynamic
/// batching and admission control (serve/batcher.h) between the socket
/// and the engine. The same listening port also answers a minimal
/// HTTP/1.1 shim — the first four bytes of each connection pick the
/// protocol ("HGSV" = framed, anything else is parsed as HTTP):
///
///   GET /healthz  -> 200 "ok"            (process liveness)
///   GET /readyz   -> 200 / 503           (>= 1 model published)
///   GET /metrics  -> Prometheus text     (MetricsRegistry export)
///
/// Threading: one acceptor thread plus one thread per open connection.
/// Connection threads decode frames and block in the batcher while
/// their pairs are scored; the connection thread whose request leads a
/// batch runs Session::Score for the whole batch, so the engine sees a
/// few large jobs instead of many 1-pair jobs. A connection answers one
/// frame before it reads the next, so it never has more than one
/// request in flight.

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/status.h"
#include "serve/batcher.h"
#include "serve/registry.h"
#include "serve/wire.h"

namespace hiergat {
namespace serve {

struct ServerOptions {
  /// Bind address. Serving is loopback by default; widen deliberately.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int port = 0;
  int listen_backlog = 64;
  BatcherOptions batcher;
};

class Server {
 public:
  /// Binds, listens, and starts the acceptor. The registry must outlive
  /// the server; models may be loaded/reloaded while serving.
  static StatusOr<std::unique_ptr<Server>> Start(ModelRegistry* registry,
                                                 const ServerOptions& options);

  /// Calls Shutdown().
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (useful with options.port == 0).
  int port() const { return port_; }

  /// Graceful drain: stops accepting, unblocks and joins every
  /// connection thread (requests already read are still scored and
  /// answered), then shuts the batcher. Idempotent.
  void Shutdown();

  struct Stats {
    int64_t connections = 0;   ///< Accepted over the lifetime.
    int64_t requests = 0;      ///< Framed requests answered.
    int64_t http_requests = 0; ///< HTTP shim requests answered.
  };
  Stats stats() const;

 private:
  Server(ModelRegistry* registry, const ServerOptions& options);

  void AcceptLoop();
  void HandleConnection(int fd);
  /// Closes `fd` and retires its connection thread for the acceptor to
  /// join; runs on that thread as its last step.
  void CloseConnection(int fd);
  /// One framed request -> one response (never throws, never crashes
  /// the connection loop; protocol errors become error responses).
  Response HandleRequest(const Request& request);
  void HandleHttp(int fd, const std::string& sniffed);

  ModelRegistry* const registry_;  // Not owned.
  const ServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;

  DynamicBatcher batcher_;

  std::atomic<bool> shutdown_{false};
  std::thread acceptor_;

  std::mutex connections_mutex_;
  /// Open connections' threads by fd. A connection closes its fd and
  /// moves its thread to finished_threads_ under the mutex, so Shutdown
  /// never nudges a reused fd; the acceptor joins finished threads on
  /// every accept, so live threads stay bounded by open connections.
  std::unordered_map<int, std::thread> open_connections_;
  std::vector<std::thread> finished_threads_;

  std::atomic<int64_t> connections_{0};
  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> http_requests_{0};
};

}  // namespace serve
}  // namespace hiergat

#endif  // HIERGAT_SERVE_SERVER_H_
