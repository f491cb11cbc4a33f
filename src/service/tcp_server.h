#ifndef VALMOD_SERVICE_TCP_SERVER_H_
#define VALMOD_SERVICE_TCP_SERVER_H_

#include <cstddef>
#include <memory>

#include "common/result.h"
#include "service/server.h"

namespace valmod::service {

/// Longest accepted request line. Generous (a 1M-point append of
/// full-precision doubles fits), but bounded and enforced *incrementally*:
/// the moment a connection's unterminated line crosses the cap — mid
/// nonblocking read, without waiting for a newline — it gets a structured
/// error and is dropped, so a client streaming garbage cannot grow a
/// buffer until the process is killed.
inline constexpr std::size_t kMaxRequestLineBytes = 32u << 20;  // 32 MiB

/// Per-connection cap on requests submitted but not yet answered. At the
/// cap the connection's reads pause — EPOLLIN is disarmed — until
/// responses drain: backpressure through the kernel socket buffer to the
/// client, instead of unbounded server-side queueing for one aggressive
/// pipeliner.
inline constexpr int kMaxInflightPerConnection = 64;

struct TcpServerOptions {
  /// 0 binds an ephemeral port; the real one is readable via port()
  /// before Serve() is called, so tests never race for a fixed port.
  int port = 0;
};

/// A TCP front end serving a Service on 127.0.0.1 (localhost only: the
/// server executes file loads and unbounded compute on behalf of clients,
/// so it is strictly a local tool). The listener is bound at creation;
/// Serve() blocks until the service's `shutdown` verb fires (all pending
/// responses are flushed first) or the listener dies.
class TcpServer {
 public:
  virtual ~TcpServer() = default;

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The bound port (resolved even when options.port was 0).
  virtual int port() const = 0;

  /// Blocks serving connections; returns a process exit code (0 = clean
  /// shutdown). Once the service's `shutdown` verb fires, the listener
  /// stops accepting and idle connections are closed, but requests still
  /// computing on any connection are answered before Serve() returns.
  /// A `shutdown` issued in-process through Service::HandleRequest does
  /// not wake the loop by itself: the next event (for example one client
  /// connecting and closing) makes Serve() notice it and return.
  virtual int Serve() = 0;

 protected:
  TcpServer() = default;
};

/// The transport: a single-threaded epoll event loop. Nonblocking
/// acceptor; per-connection read/write state machines with buffered
/// partial lines and backpressure-aware writes; requests flow through
/// Service::HandleRequestAsync, and completions (from scheduler worker
/// threads) re-arm the connection for writing via an eventfd wake instead
/// of parking a blocked thread per client.
Result<std::unique_ptr<TcpServer>> MakeEpollServer(
    Service& service, const TcpServerOptions& options);

}  // namespace valmod::service

#endif  // VALMOD_SERVICE_TCP_SERVER_H_
