#ifndef VALMOD_SERVICE_CLIENT_H_
#define VALMOD_SERVICE_CLIENT_H_

// Client side of the serving protocol: a Transport that moves one request
// line to the server and one response line back, and a RetryClient that
// layers the retry/backoff contract on top — capped exponential backoff
// with deterministic jitter, honoring the server's `retry_after_ms` hint
// on overload errors. bench_service and the chaos tests drive the server
// through this client so the documented retry semantics are exercised by
// code, not just prose (README "Robustness").

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "common/json.h"
#include "common/result.h"
#include "common/status.h"

namespace valmod::service {

/// Moves one request line to a server and returns its response line.
/// Implementations are single-stream: calls are serial per transport.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends `line` (no trailing newline) and returns the response line.
  /// Transport-level failures (connect/send/recv) come back as kIoError —
  /// the retryable transport failure class; protocol-level errors arrive
  /// as successful round trips whose payload says ok:false.
  virtual Result<std::string> RoundTrip(const std::string& line) = 0;

  /// Returns the next response line without sending anything — the
  /// continuation pages of a paged response (README "Serving": a large
  /// result arrives as several `chunk` lines). kIoError when the stream
  /// ends before another line; the default suits transports that can
  /// never have one buffered.
  virtual Result<std::string> ReceiveLine() {
    return Status::IoError("transport has no further response lines");
  }

  /// Drops any broken connection state so the next RoundTrip starts
  /// fresh. No-op for connectionless transports.
  virtual void Reset() {}
};

/// In-process transport: forwards lines to a callback (typically
/// Service::HandleRequest). Lets benches and tests
/// exercise the full client retry stack without sockets. A handler may
/// return several '\n'-separated lines (HandleRequest's paged encoding
/// does); RoundTrip yields the first and ReceiveLine the rest.
class CallbackTransport final : public Transport {
 public:
  using Handler = std::function<std::string(const std::string&)>;

  explicit CallbackTransport(Handler handler)
      : handler_(std::move(handler)) {}

  Result<std::string> RoundTrip(const std::string& line) override {
    pending_ = handler_(line);
    offset_ = 0;
    return NextLine();
  }

  Result<std::string> ReceiveLine() override { return NextLine(); }

  void Reset() override {
    pending_.clear();
    offset_ = 0;
  }

 private:
  Result<std::string> NextLine() {
    if (offset_ >= pending_.size()) {
      return Status::IoError("transport has no further response lines");
    }
    const std::size_t newline = pending_.find('\n', offset_);
    const std::size_t end =
        newline == std::string::npos ? pending_.size() : newline;
    std::string line = pending_.substr(offset_, end - offset_);
    offset_ = newline == std::string::npos ? pending_.size() : newline + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    return line;
  }

  Handler handler_;
  std::string pending_;     // handler output not yet returned as lines
  std::size_t offset_ = 0;  // read position within pending_
};

/// TCP transport to a local valmod_server (127.0.0.1 only, matching the
/// server's bind). Connects lazily on the first RoundTrip and reconnects
/// after Reset(); send/recv run under the configured timeouts so a hung
/// server surfaces as kIoError instead of a wedged client.
class TcpTransport final : public Transport {
 public:
  struct Options {
    double connect_timeout_seconds = 5.0;
    double io_timeout_seconds = 30.0;
  };

  explicit TcpTransport(int port);
  TcpTransport(int port, const Options& options);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  Result<std::string> RoundTrip(const std::string& line) override;
  Result<std::string> ReceiveLine() override;
  void Reset() override;

 private:
  Status EnsureConnected();

  const int port_;
  const Options options_;
  int fd_ = -1;
  std::string buffer_;  // bytes received past the last returned line
};

struct RetryOptions {
  /// Total tries, including the first. 1 disables retries.
  int max_attempts = 5;
  int initial_backoff_ms = 10;
  int max_backoff_ms = 2000;
  double multiplier = 2.0;
  /// Each delay is scaled by a factor drawn from
  /// [1 - jitter_fraction, 1 + jitter_fraction], deterministically from
  /// jitter_seed — synchronized clients desynchronize, tests replay.
  double jitter_fraction = 0.25;
  std::uint64_t jitter_seed = 0;
  /// Whether transport kIoError is retried (with a transport Reset). On by
  /// default: the serving protocol's requests are idempotent reads.
  bool retry_io_errors = true;
};

/// Cumulative counters across a client's lifetime.
struct RetryStats {
  std::uint64_t calls = 0;        // Call() invocations
  std::uint64_t attempts = 0;     // round trips issued
  std::uint64_t retries = 0;      // attempts beyond each call's first
  std::uint64_t gave_up = 0;      // calls that exhausted max_attempts
  std::uint64_t backoff_ms_total = 0;  // time spent sleeping between tries
  std::uint64_t pages = 0;  // continuation pages received (paged responses)
};

/// Issues requests through a Transport with the retry/backoff contract:
///  - retried: transport kIoError (after Reset), and responses whose
///    error code is ResourceExhausted or Unavailable — the two codes the
///    server uses for "try again later";
///  - not retried: every other error code (InvalidArgument, NotFound,
///    DeadlineExceeded, ... — retrying cannot change the outcome);
///  - delay: the response's `retry_after_ms` hint when present, otherwise
///    jittered capped exponential backoff.
///
/// Paged responses are reassembled transparently: when the first line of a
/// response carries a `chunk` field, Call keeps reading lines through
/// Transport::ReceiveLine until the `"partial":false` page, concatenates
/// the chunks in seq order, and returns the same single object an unpaged
/// response would have produced (envelope fields plus `result`; the paging
/// bookkeeping — partial/seq/pages/chunk — is stripped). A stream that
/// breaks mid-page is a transport kIoError, retried like any other.
class RetryClient {
 public:
  explicit RetryClient(Transport& transport, const RetryOptions& options = {});

  /// Sends `line`, retrying per the contract, and returns the parsed
  /// response object (which may still be ok:false — the *last* attempt's
  /// response is returned when retries are exhausted). kIoError only when
  /// the transport failed and retries ran out or were disabled.
  Result<json::Value> Call(const std::string& line);

  const RetryStats& stats() const { return stats_; }

 private:
  int DelayMs(int attempt, const json::Value* response);
  /// Drains and reassembles the remaining pages of a paged response whose
  /// first page is `first`. kIoError when the stream ends early (the
  /// retryable class); other codes mean a malformed page (not retryable).
  Result<json::Value> ReassemblePaged(json::Value first);

  Transport& transport_;
  const RetryOptions options_;
  RetryStats stats_;
  std::uint64_t jitter_state_;
};

}  // namespace valmod::service

#endif  // VALMOD_SERVICE_CLIENT_H_
