#include "service/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault.h"

namespace valmod::service {

namespace {

constexpr const char* kLineTooLongError =
    "{\"id\":null,\"ok\":false,\"error\":{\"code\":\"InvalidArgument\","
    "\"message\":\"request line exceeds 32 MiB\"}}\n";

/// Binds a nonblocking loopback listener. `port` 0 picks an ephemeral
/// port; the bound port is written back either way.
Result<int> BindListener(int* port) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(*port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // localhost only
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status =
        Status::IoError(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 128) < 0) {
    const Status status =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    *port = static_cast<int>(ntohs(bound.sin_port));
  }
  return fd;
}

class EpollServer : public TcpServer {
 public:
  EpollServer(Service& service, const TcpServerOptions& options)
      : service_(service), port_(options.port) {}

  ~EpollServer() override {
    {
      std::lock_guard<std::mutex> lock(completions_->mutex);
      completions_->event_fd = -1;
    }
    for (auto& [fd, conn] : connections_) ::close(fd);
    connections_.clear();
    if (event_fd_ >= 0) ::close(event_fd_);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  Status Init() {
    VALMOD_ASSIGN_OR_RETURN(listen_fd_, BindListener(&port_));
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
      return Status::IoError(std::string("epoll_create1: ") +
                             std::strerror(errno));
    }
    event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (event_fd_ < 0) {
      return Status::IoError(std::string("eventfd: ") +
                             std::strerror(errno));
    }
    completions_->event_fd = event_fd_;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
      return Status::IoError(std::string("epoll_ctl: ") +
                             std::strerror(errno));
    }
    ev.data.fd = event_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) < 0) {
      return Status::IoError(std::string("epoll_ctl: ") +
                             std::strerror(errno));
    }
    return Status::Ok();
  }

  int port() const override { return port_; }

  int Serve() override {
    epoll_event events[64];
    for (;;) {
      DrainCompletions();
      if (service_.shutdown_requested()) {
        if (accepting_) {
          (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
          accepting_ = false;
        }
        CloseIdleConnections();
        // Exit once every pending response has been flushed; connections
        // still computing keep the loop alive until their completions
        // arrive through the eventfd.
        if (connections_.empty()) break;
      }
      const int n = ::epoll_wait(epoll_fd_, events, 64, -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == listen_fd_) {
          AcceptNew();
          continue;
        }
        if (fd == event_fd_) {
          std::uint64_t count = 0;
          (void)!::read(event_fd_, &count, sizeof(count));
          continue;
        }
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          CloseConnection(fd);
          continue;
        }
        if (events[i].events & EPOLLIN) OnReadable(fd);
        if (events[i].events & EPOLLOUT) OnWritable(fd);
      }
    }
    // Late completions (jobs still draining inside the scheduler) find
    // the invalidated queue and drop their bytes instead of writing to a
    // dead eventfd or a recycled descriptor.
    {
      std::lock_guard<std::mutex> lock(completions_->mutex);
      completions_->event_fd = -1;
    }
    return 0;
  }

 private:
  /// One nonblocking connection's read/write state machine.
  struct Connection {
    int fd = -1;
    /// Distinguishes this connection from an earlier one that used the
    /// same descriptor: a completion for a closed connection whose fd the
    /// kernel recycled must be dropped, not written to the new client.
    std::uint64_t gen = 0;
    /// Unprocessed input: zero or more buffered complete lines (only
    /// while reads are paused at the in-flight cap) plus a partial line.
    std::string inbuf;
    /// How far inbuf has been scanned for '\n' — a growing partial line
    /// is scanned once per chunk, not once per byte per chunk.
    std::size_t scan_offset = 0;
    /// Responses awaiting the socket, oldest first; out_offset is the
    /// write position within the front element.
    std::deque<std::string> outbox;
    std::size_t out_offset = 0;
    /// Requests dispatched, responses not yet queued.
    int inflight = 0;
    std::uint32_t events = 0;  // currently registered epoll mask
    bool read_eof = false;
    /// Fatal (oversized line / write fault): flush the outbox, then close.
    bool closing = false;
  };

  struct PendingResponse {
    int fd = -1;
    std::uint64_t gen = 0;
    std::string bytes;
  };

  /// Handoff from completion threads (scheduler workers — or the loop
  /// itself, for inline admin/hit/error responses) back to the event
  /// loop. The eventfd is invalidated under the mutex when the loop
  /// exits, so a completion can never write to a dead descriptor.
  struct CompletionQueue {
    std::mutex mutex;
    int event_fd = -1;
    std::vector<PendingResponse> ready;
  };

  void AcceptNew() {
    for (;;) {
      const int client = ::accept4(listen_fd_, nullptr, nullptr,
                                   SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (client < 0) break;  // EAGAIN: drained the backlog
      Connection conn;
      conn.fd = client;
      conn.gen = next_gen_++;
      conn.events = EPOLLIN;
      epoll_event ev{};
      ev.events = conn.events;
      ev.data.fd = client;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, client, &ev) < 0) {
        ::close(client);
        continue;
      }
      connections_.emplace(client, std::move(conn));
    }
  }

  void OnReadable(int fd) {
    const auto it = connections_.find(fd);
    if (it == connections_.end()) return;
    Connection& conn = it->second;
    // Chaos hook: a fired "server.read" fault stands in for the client
    // vanishing (or the kernel erroring) mid-read — drop the connection
    // exactly as a failed read would.
    if (!VALMOD_FAULT_POINT("server.read").ok()) {
      CloseConnection(fd);
      return;
    }
    char chunk[65536];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      CloseConnection(fd);
      return;
    }
    if (n == 0) {
      conn.read_eof = true;
      ProcessBufferedLines(conn);
      if (!FlushWrites(conn)) return;
      UpdateInterest(conn);
      return;
    }
    conn.inbuf.append(chunk, static_cast<std::size_t>(n));
    ProcessBufferedLines(conn);
    // Incremental line cap: fires on the chunk that crosses it (the whole
    // remaining inbuf is one unterminated line once scan_offset caught
    // up), not after minutes of buffering toward a newline that never
    // comes.
    if (!conn.closing && conn.scan_offset == conn.inbuf.size() &&
        conn.inbuf.size() > kMaxRequestLineBytes) {
      conn.inbuf.clear();
      conn.inbuf.shrink_to_fit();
      conn.scan_offset = 0;
      conn.outbox.push_back(kLineTooLongError);
      conn.closing = true;
    }
    if (!FlushWrites(conn)) return;
    UpdateInterest(conn);
  }

  void OnWritable(int fd) {
    const auto it = connections_.find(fd);
    if (it == connections_.end()) return;
    Connection& conn = it->second;
    if (!FlushWrites(conn)) return;
    UpdateInterest(conn);
  }

  /// Extracts complete lines and dispatches them, stopping at the
  /// in-flight cap (the remainder stays buffered; UpdateInterest pauses
  /// reads until completions drain).
  void ProcessBufferedLines(Connection& conn) {
    std::size_t start = 0;
    while (!conn.closing && conn.inflight < kMaxInflightPerConnection) {
      const std::size_t from =
          conn.scan_offset > start ? conn.scan_offset : start;
      const std::size_t newline = conn.inbuf.find('\n', from);
      if (newline == std::string::npos) {
        conn.scan_offset = conn.inbuf.size();
        break;
      }
      std::string line = conn.inbuf.substr(start, newline - start);
      start = newline + 1;
      conn.scan_offset = start;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      ++conn.inflight;
      DispatchLine(conn, line);
    }
    if (start > 0) {
      conn.inbuf.erase(0, start);
      conn.scan_offset -= start;
    }
  }

  void DispatchLine(const Connection& conn, const std::string& line) {
    service_.HandleRequestAsync(
        line, [queue = completions_, fd = conn.fd,
               gen = conn.gen](std::string response) {
          std::lock_guard<std::mutex> lock(queue->mutex);
          if (queue->event_fd < 0) return;  // loop gone; drop the bytes
          queue->ready.push_back(
              PendingResponse{fd, gen, std::move(response)});
          const std::uint64_t one = 1;
          (void)!::write(queue->event_fd, &one, sizeof(one));
        });
  }

  void DrainCompletions() {
    std::vector<PendingResponse> batch;
    {
      std::lock_guard<std::mutex> lock(completions_->mutex);
      batch.swap(completions_->ready);
    }
    for (PendingResponse& response : batch) {
      const auto it = connections_.find(response.fd);
      if (it == connections_.end() || it->second.gen != response.gen) {
        continue;  // connection closed (and fd possibly recycled)
      }
      Connection& conn = it->second;
      --conn.inflight;
      if (!conn.closing) conn.outbox.push_back(std::move(response.bytes));
      // A freed in-flight slot may unpause buffered pipelined requests.
      ProcessBufferedLines(conn);
      if (!FlushWrites(conn)) continue;
      UpdateInterest(conn);
    }
  }

  /// Writes as much of the outbox as the socket accepts. Returns false
  /// when the connection was closed (write error, fired fault, or
  /// nothing left to do for a finished connection) — the caller must not
  /// touch it again.
  bool FlushWrites(Connection& conn) {
    while (!conn.outbox.empty()) {
      // Chaos hook: a fired "server.write" fault models the client
      // vanishing mid-response.
      if (!VALMOD_FAULT_POINT("server.write").ok()) {
        CloseConnection(conn.fd);
        return false;
      }
      const std::string& front = conn.outbox.front();
      const ssize_t w = ::send(conn.fd, front.data() + conn.out_offset,
                               front.size() - conn.out_offset, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
        CloseConnection(conn.fd);
        return false;
      }
      conn.out_offset += static_cast<std::size_t>(w);
      if (conn.out_offset == front.size()) {
        conn.outbox.pop_front();
        conn.out_offset = 0;
      }
    }
    if (conn.outbox.empty() &&
        (conn.closing || (conn.read_eof && conn.inflight == 0))) {
      CloseConnection(conn.fd);
      return false;
    }
    return true;
  }

  void UpdateInterest(Connection& conn) {
    std::uint32_t desired = 0;
    if (!conn.read_eof && !conn.closing &&
        conn.inflight < kMaxInflightPerConnection) {
      desired |= EPOLLIN;
    }
    if (!conn.outbox.empty()) desired |= EPOLLOUT;
    if (desired == conn.events) return;
    epoll_event ev{};
    ev.events = desired;
    ev.data.fd = conn.fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0) {
      conn.events = desired;
    }
  }

  void CloseConnection(int fd) {
    const auto it = connections_.find(fd);
    if (it == connections_.end()) return;
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    connections_.erase(it);
  }

  void CloseIdleConnections() {
    for (auto it = connections_.begin(); it != connections_.end();) {
      const Connection& conn = it->second;
      if (conn.outbox.empty() && conn.inflight == 0) {
        (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
        ::close(conn.fd);
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }

  Service& service_;
  int port_ = 0;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  bool accepting_ = true;
  std::uint64_t next_gen_ = 1;
  std::shared_ptr<CompletionQueue> completions_ =
      std::make_shared<CompletionQueue>();
  std::unordered_map<int, Connection> connections_;
};

}  // namespace

Result<std::unique_ptr<TcpServer>> MakeEpollServer(
    Service& service, const TcpServerOptions& options) {
  auto server = std::make_unique<EpollServer>(service, options);
  VALMOD_RETURN_IF_ERROR(server->Init());
  return std::unique_ptr<TcpServer>(std::move(server));
}

}  // namespace valmod::service
