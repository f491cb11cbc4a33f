#ifndef VALMOD_SERVICE_SERVER_H_
#define VALMOD_SERVICE_SERVER_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "common/trace.h"
#include "service/metrics.h"
#include "service/registry.h"
#include "service/result_cache.h"
#include "service/scheduler.h"

namespace valmod::service {

struct ServiceOptions {
  /// Request-executor threads (see SchedulerOptions::num_workers).
  int workers = 4;
  /// Bounded admission queue capacity.
  std::size_t queue_capacity = 64;
  /// Result cache entries; 0 disables response caching (miss coalescing
  /// stays active — deduplicating concurrent work is independent of
  /// memoizing finished work).
  std::size_t cache_capacity = 128;
  /// Deadline applied to requests that carry no `timeout_ms`; 0 = none.
  double default_timeout_seconds = 0.0;
  /// Responses whose serialized result exceeds this are paged as a
  /// sequence of bounded NDJSON chunk lines instead of one multi-megabyte
  /// line (see HandleRequestAsync). 0 disables paging.
  std::size_t page_bytes = 1 << 20;
  /// Worst-latency requests retained by the slow-query log (the `slowlog`
  /// verb); 0 disables it.
  std::size_t slowlog_capacity = SlowLog::kDefaultCapacity;
};

/// The VALMOD motif-discovery service: long-lived serving state (dataset
/// registry + result cache) plus concurrent request execution (scheduler),
/// speaking a newline-delimited JSON protocol.
///
/// One request per line in; one response out — usually one line, but a
/// result larger than `page_bytes` is paged as several lines:
///
///   {"id":1,"verb":"motifs","dataset":"ecg",
///    "params":{"lmin":100,"lmax":120,"k":3},"priority":0,"timeout_ms":5000}
///   -> {"id":1,"ok":true,"verb":"motifs","cached":false,"result":{...}}
///
/// Paged responses carry the serialized result split across `chunk`
/// string fragments; every page repeats the envelope:
///
///   -> {"id":1,"ok":true,...,"partial":true,"seq":0,"chunk":"{\"size\":"}
///   -> {"id":1,"ok":true,...,"partial":false,"seq":1,"pages":2,
///       "chunk":"1024,...}"}
///
/// (concatenating the chunks in `seq` order reproduces the `result`
/// bytes; the final page has "partial":false and the page count). This
/// envelope-level "partial" — more pages follow — is distinct from the
/// in-result "partial" written by allow_partial, which means the
/// *computation* was deadline-truncated.
///
/// Errors are structured, never fatal, and never paged:
///   -> {"id":1,"ok":false,"verb":"motifs",
///       "error":{"code":"InvalidArgument","message":"..."}}
///
/// Verbs:
///   admin  — load, unload, append, stats, health, faults, metrics
///            (OpenMetrics exposition), slowlog (worst-latency requests
///            with span trees), shutdown
///   query  — motifs, valmap, profile, query, discords (scheduled through
///            the bounded queue with priorities/deadlines; responses are
///            memoized in the result cache)
///
/// A request carrying `"trace":true` in its envelope gets the response
/// envelope extended with `trace_id` (16 hex digits) and `trace` (the
/// request's span tree; see service/telemetry.h RenderTraceJson) — on
/// the final page only, for paged responses, so RetryClient's reassembly
/// surfaces them automatically.
///
/// Identical concurrent cache misses are coalesced by cache key: the
/// first becomes the leader and computes, the rest park as waiters and
/// receive the leader's bytes (flagged "coalesced":true) — one
/// computation, N responses. A failed/cancelled leader fails over to the
/// next waiter instead of erroring everyone; a leader whose own run was
/// deadline-truncated (allow_partial) keeps its partial payload private
/// and the waiters fail over the same way, so truncated bytes are neither
/// cached nor fanned out.
///
/// Overload errors (queue full / request shed) use code ResourceExhausted
/// and carry a `retry_after_ms` backoff hint; see README "Robustness" for
/// the full error-code table and the retry contract.
///
/// All entry points are safe to call from any number of threads. See
/// README "Serving" for the full protocol reference.
class Service {
 public:
  /// Receives one complete response: one or more '\n'-terminated NDJSON
  /// lines (several when the response is paged). Invoked exactly once per
  /// request — synchronously for admin verbs, cache hits, and errors;
  /// from a scheduler worker thread for computed query responses. It must
  /// be callable from any thread and should not block.
  using ResponseCallback = std::function<void(std::string response)>;

  explicit Service(const ServiceOptions& options = {});

  /// Async entry point (the epoll front end's path): processes one
  /// request line and hands the response to `done` instead of blocking
  /// the caller. Never throws and never kills the process: malformed
  /// JSON, unknown verbs, bad params, expired deadlines, and full queues
  /// all come back as structured error responses.
  void HandleRequestAsync(const std::string& line, ResponseCallback done);

  /// Synchronous wrapper over HandleRequestAsync: blocks until the
  /// response is ready and returns the same wire bytes ('\n'-terminated,
  /// paged when larger than `page_bytes`; a service built with
  /// `page_bytes = 0` always answers in one line). Used by --stdio mode,
  /// which thereby shares the paged-response encoder with TCP.
  std::string HandleRequest(const std::string& line);

  /// Set by the `shutdown` verb; the front ends exit their accept/read
  /// loops when this turns true.
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }
  /// Sets shutdown_requested(); what the `shutdown` verb does.
  void RequestShutdown() { shutdown_.store(true, std::memory_order_release); }

  DatasetRegistry& registry() { return registry_; }
  ResultCache& result_cache() { return cache_; }
  QueryScheduler& scheduler() { return scheduler_; }
  VerbMetrics& metrics() { return metrics_; }
  SlowLog& slowlog() { return slowlog_; }
  const ServiceOptions& options() const { return options_; }

 private:
  struct RequestContext;

  /// Shared implementation: parse, validate, dispatch.
  void Handle(const std::string& line, ResponseCallback done);

  /// Submits `ctx` as the leader of its flight (or as a plain request
  /// when it has no cache key). On admission failure the error is
  /// delivered and the flight fails over to the next waiter.
  void ExecuteAsLeader(const std::shared_ptr<RequestContext>& ctx);
  /// Leader's scheduler completion: fan out success, fail over errors and
  /// partial (deadline-truncated) payloads.
  void OnLeaderComplete(const std::shared_ptr<RequestContext>& ctx,
                        const Result<std::string>& result);
  /// Promotes the next parked waiter of `key`'s flight, if any.
  void FailOverFlight(const std::string& key);

  /// Terminal delivery: records per-verb metrics and invokes the
  /// context's callback with the encoded wire bytes. Each context reaches
  /// exactly one Deliver call.
  void DeliverOk(const std::shared_ptr<RequestContext>& ctx,
                 const std::string& payload, bool cached, bool coalesced);
  void DeliverError(const std::shared_ptr<RequestContext>& ctx,
                    const Status& status);

  /// Offers a completed request to the slow-query log; renders the span
  /// tree only when the latency would actually be admitted.
  void RecordSlowRequest(const std::string& verb, double latency_ms, bool ok,
                         const trace::TraceContext* context);

  const ServiceOptions options_;
  DatasetRegistry registry_;
  ResultCache cache_;
  VerbMetrics metrics_;
  SlowLog slowlog_;
  std::atomic<bool> shutdown_{false};
  /// Declared last so it is destroyed first: in-flight completions still
  /// touch the cache and metrics above while the scheduler drains.
  QueryScheduler scheduler_;
};

}  // namespace valmod::service

#endif  // VALMOD_SERVICE_SERVER_H_
