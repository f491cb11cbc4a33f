// Serving-layer benchmark: throughput and latency percentiles for a mixed
// request stream against the valmod service, comparing
//
//   cold  — the one-shot per-request path (what valmod_cli does): every
//           request gets a fresh registry + engine and an empty result
//           cache, so nothing amortizes;
//   warm  — one long-lived Service: the registry holds the dataset and its
//           shared MassEngine across requests, and the result cache
//           memoizes repeated queries.
//
// The stream mixes motifs / valmap / profile / query requests over a small
// set of parameter shapes (each shape repeats, as an analyst's interactive
// session does), at 1..N concurrent clients. Emits JSON (stdout, plus
// --json=<path>) -> BENCH_service.json in CI, next to BENCH_engine.json.
//
// The headline number is speedup_warm_vs_cold_1client: the serving stack's
// acceptance bar is >= 3x (caches must actually amortize).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/json.h"
#include "common/timer.h"
#include "common/trace.h"
#include "series/data_series.h"
#include "series/generators.h"
#include "service/client.h"
#include "service/server.h"
#include "service/tcp_server.h"
#include "simd/dispatch.h"

namespace {

using valmod::Flags;
using valmod::WallTimer;
using valmod::json::Value;
using valmod::series::DataSeries;
using valmod::service::Service;
using valmod::service::ServiceOptions;

/// The mixed request stream: `distinct` parameter shapes per verb family,
/// cycled `requests` times. Deterministic, so cold and warm runs execute
/// the byte-identical stream.
std::vector<std::string> BuildRequestStream(const DataSeries& series,
                                            std::size_t requests,
                                            std::size_t length) {
  std::vector<std::string> templates;
  // Motifs at a few adjacent ranges (VALMOD proper, engine-backed).
  for (std::size_t i = 0; i < 2; ++i) {
    templates.push_back(
        "{\"verb\":\"motifs\",\"dataset\":\"bench\",\"params\":{\"lmin\":" +
        std::to_string(length + 8 * i) +
        ",\"lmax\":" + std::to_string(length + 8 * i + 6) +
        ",\"k\":2}}");
  }
  // Fixed-length profile (STOMP).
  templates.push_back(
      "{\"verb\":\"profile\",\"dataset\":\"bench\",\"params\":{\"l\":" +
      std::to_string(length) + "}}");
  // Query-by-content: two query windows cut from the series itself.
  for (const std::size_t offset : {std::size_t{100}, series.size() / 2}) {
    std::string values = "[";
    const auto raw = series.values();
    for (std::size_t i = 0; i < length; ++i) {
      if (i > 0) values += ',';
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.17g", raw[offset + i]);
      values += buffer;
    }
    values += "]";
    templates.push_back(
        "{\"verb\":\"query\",\"dataset\":\"bench\",\"params\":{\"k\":3,"
        "\"values\":" + values + "}}");
  }
  std::vector<std::string> stream;
  stream.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    stream.push_back(templates[i % templates.size()]);
  }
  return stream;
}

struct RunResult {
  double seconds = 0.0;
  double throughput = 0.0;  // requests / second
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t errors = 0;
};

double Percentile(std::vector<double> sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const std::size_t index = std::min(
      sorted_ms.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted_ms.size())));
  return sorted_ms[index];
}

RunResult Finish(double seconds, std::vector<double> latencies_ms,
                 std::size_t errors) {
  RunResult result;
  result.seconds = seconds;
  result.throughput =
      seconds > 0.0 ? static_cast<double>(latencies_ms.size()) / seconds : 0.0;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  result.p50_ms = Percentile(latencies_ms, 0.50);
  result.p99_ms = Percentile(latencies_ms, 0.99);
  result.errors = errors;
  return result;
}

bool ResponseOk(const std::string& response) {
  return response.find("\"ok\":true") != std::string::npos;
}

/// Cold: every request runs against a fresh Service (fresh registry, fresh
/// engine, cache disabled) — the per-request cost of the one-shot path.
RunResult RunCold(const DataSeries& series,
                  const std::vector<std::string>& stream) {
  std::vector<double> latencies_ms;
  latencies_ms.reserve(stream.size());
  std::size_t errors = 0;
  WallTimer total;
  for (const std::string& request : stream) {
    WallTimer timer;
    ServiceOptions options;
    options.workers = 1;
    options.cache_capacity = 0;
    Service service(options);
    auto loaded = service.registry().LoadSeries("bench", series.Clone());
    if (!loaded.ok() || !ResponseOk(service.HandleRequest(request))) {
      ++errors;
    }
    latencies_ms.push_back(timer.ElapsedMillis());
  }
  return Finish(total.ElapsedSeconds(), std::move(latencies_ms), errors);
}

/// Warm: one Service for the whole stream, `clients` threads issuing
/// disjoint slices of it concurrently.
RunResult RunWarm(Service& service, const std::vector<std::string>& stream,
                  std::size_t clients) {
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::size_t> errors(clients, 0);
  WallTimer total;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = c; i < stream.size(); i += clients) {
        WallTimer timer;
        if (!ResponseOk(service.HandleRequest(stream[i]))) ++errors[c];
        latencies[c].push_back(timer.ElapsedMillis());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = total.ElapsedSeconds();
  std::vector<double> all;
  std::size_t total_errors = 0;
  for (std::size_t c = 0; c < clients; ++c) {
    all.insert(all.end(), latencies[c].begin(), latencies[c].end());
    total_errors += errors[c];
  }
  return Finish(seconds, std::move(all), total_errors);
}

/// Overload: a miss-storm against a deliberately undersized service (2
/// workers, 8 queue slots, cache off, every request a distinct shape) from
/// twice as many clients as the queue can absorb — half at priority 5,
/// half at the default 0 — each speaking through the RetryClient, so the
/// documented retry/backoff contract (ResourceExhausted + retry_after_ms)
/// is what keeps the storm sustainable. Reports per-class outcomes plus
/// the scheduler's shed/rejected counters: under pressure, capacity must
/// go to the high-priority class, and its p99 must stay bounded by
/// queue-depth x service-time rather than growing with the storm.
Value RunOverload(const DataSeries& series, std::size_t length) {
  ServiceOptions options;
  options.workers = 2;
  // 8 clients against 2 workers + 4 slots: up to 6 requests are waiting at
  // once, so the queue genuinely overflows and the shed/retry machinery is
  // what every client's progress actually rides on.
  options.queue_capacity = 4;
  options.cache_capacity = 0;  // every request computes: a pure miss-storm
  Service service(options);
  auto loaded = service.registry().LoadSeries("bench", series.Clone());
  if (!loaded.ok()) {
    std::fprintf(stderr, "overload load failed: %s\n",
                 loaded.status().ToString().c_str());
    return Value();
  }

  constexpr std::size_t kClientsPerClass = 4;
  constexpr std::size_t kRequestsPerClient = 4;
  struct ClassOutcome {
    std::vector<double> latencies_ms;
    std::size_t ok = 0;
    std::size_t failed = 0;
    std::uint64_t retries = 0;
    std::uint64_t gave_up = 0;
  };
  std::vector<ClassOutcome> outcomes(2 * kClientsPerClass);

  WallTimer total;
  std::vector<std::thread> clients;
  for (std::size_t idx = 0; idx < outcomes.size(); ++idx) {
    clients.emplace_back([&, idx] {
      const bool high = idx < kClientsPerClass;
      const int priority = high ? 5 : 0;
      valmod::service::CallbackTransport transport(
          [&service](const std::string& line) {
            return service.HandleRequest(line);
          });
      valmod::service::RetryOptions retry;
      retry.max_attempts = 4;
      retry.initial_backoff_ms = 5;
      retry.max_backoff_ms = 200;
      retry.jitter_seed = idx + 1;  // desynchronize, deterministically
      valmod::service::RetryClient client(transport, retry);
      ClassOutcome& outcome = outcomes[idx];
      for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
        // Every (client, i) pair is a distinct motifs shape: no request
        // ever hits the (disabled) cache or another client's work.
        const std::size_t lmin = length + 4 * (idx * kRequestsPerClient + i);
        const std::string request =
            "{\"verb\":\"motifs\",\"dataset\":\"bench\",\"params\":{\"lmin\":" +
            std::to_string(lmin) + ",\"lmax\":" + std::to_string(lmin + 2) +
            ",\"k\":1},\"priority\":" + std::to_string(priority) + "}";
        WallTimer timer;
        auto response = client.Call(request);
        outcome.latencies_ms.push_back(timer.ElapsedMillis());
        if (response.ok() && response->GetBool("ok", false)) {
          ++outcome.ok;
        } else {
          ++outcome.failed;
        }
      }
      outcome.retries = client.stats().retries;
      outcome.gave_up = client.stats().gave_up;
    });
  }
  for (std::thread& t : clients) t.join();
  const double seconds = total.ElapsedSeconds();

  const auto class_value = [&](std::size_t begin) {
    ClassOutcome merged;
    for (std::size_t c = begin; c < begin + kClientsPerClass; ++c) {
      const ClassOutcome& o = outcomes[c];
      merged.latencies_ms.insert(merged.latencies_ms.end(),
                                 o.latencies_ms.begin(), o.latencies_ms.end());
      merged.ok += o.ok;
      merged.failed += o.failed;
      merged.retries += o.retries;
      merged.gave_up += o.gave_up;
    }
    std::sort(merged.latencies_ms.begin(), merged.latencies_ms.end());
    Value::Object o;
    o.emplace("ok", Value(merged.ok));
    o.emplace("failed", Value(merged.failed));
    o.emplace("retries", Value(merged.retries));
    o.emplace("gave_up", Value(merged.gave_up));
    o.emplace("p50_ms", Value(Percentile(merged.latencies_ms, 0.50)));
    o.emplace("p99_ms", Value(Percentile(merged.latencies_ms, 0.99)));
    return std::make_pair(Value(std::move(o)), merged);
  };
  auto [high_value, high] = class_value(0);
  auto [low_value, low] = class_value(kClientsPerClass);
  const valmod::service::SchedulerStats sched = service.scheduler().stats();

  std::fprintf(stderr,
               "overload      : %5.2f s  high %zu/%zu ok (p99 %7.2f ms)  "
               "low %zu/%zu ok (p99 %7.2f ms)  shed %llu  rejected %llu  "
               "retries %llu\n",
               seconds, high.ok, high.ok + high.failed,
               Percentile(high.latencies_ms, 0.99), low.ok,
               low.ok + low.failed, Percentile(low.latencies_ms, 0.99),
               static_cast<unsigned long long>(sched.shed),
               static_cast<unsigned long long>(sched.rejected),
               static_cast<unsigned long long>(high.retries + low.retries));

  Value::Object overload;
  overload.emplace("seconds", Value(seconds));
  overload.emplace("workers", Value(options.workers));
  overload.emplace("queue_capacity", Value(options.queue_capacity));
  overload.emplace("high_priority", std::move(high_value));
  overload.emplace("low_priority", std::move(low_value));
  overload.emplace("shed", Value(sched.shed));
  overload.emplace("rejected", Value(sched.rejected));
  overload.emplace("mean_service_ms", Value(sched.mean_service_ms));
  return Value(std::move(overload));
}

Value RunValue(const RunResult& run);

/// TCP front-end sweep: one warm Service behind the epoll transport,
/// hammered by `client_counts` concurrent connections each issuing round
/// trips from the (cache-hot) stream. Requests are hits, so the number
/// measures the transport — accept/read/dispatch/write — not the compute
/// behind it. The 64–256 blocking client threads share the cores with the
/// server, so this is a load check, not a transport comparison.
Value RunTcpSweep(const DataSeries& series,
                  const std::vector<std::string>& stream,
                  const std::vector<std::size_t>& client_counts,
                  std::size_t requests_per_client) {
  ServiceOptions options;
  options.workers = 4;
  options.cache_capacity = 256;
  Service service(options);
  auto loaded = service.registry().LoadSeries("bench", series.Clone());
  if (!loaded.ok()) {
    std::fprintf(stderr, "tcp sweep load failed: %s\n",
                 loaded.status().ToString().c_str());
    return Value();
  }
  auto server = valmod::service::MakeEpollServer(service, {});
  if (!server.ok()) {
    std::fprintf(stderr, "tcp sweep bind failed: %s\n",
                 server.status().ToString().c_str());
    return Value();
  }
  const int port = (*server)->port();
  std::thread serve_thread([&server] { (void)(*server)->Serve(); });

  // Warm every cache entry in-process so the sweep measures the wire.
  for (const std::string& request : stream) {
    (void)service.HandleRequest(request);
  }

  Value::Object runs;
  for (const std::size_t clients : client_counts) {
    std::vector<std::vector<double>> latencies(clients);
    std::vector<std::size_t> errors(clients, 0);
    WallTimer total;
    std::vector<std::thread> client_threads;
    client_threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      client_threads.emplace_back([&, c] {
        valmod::service::TcpTransport transport(port);
        valmod::service::RetryClient client(transport);
        for (std::size_t i = 0; i < requests_per_client; ++i) {
          const std::string& request =
              stream[(c * requests_per_client + i) % stream.size()];
          WallTimer timer;
          auto response = client.Call(request);
          latencies[c].push_back(timer.ElapsedMillis());
          if (!response.ok() || !response->GetBool("ok", false)) ++errors[c];
        }
      });
    }
    for (std::thread& t : client_threads) t.join();
    const double seconds = total.ElapsedSeconds();
    std::vector<double> all;
    std::size_t total_errors = 0;
    for (std::size_t c = 0; c < clients; ++c) {
      all.insert(all.end(), latencies[c].begin(), latencies[c].end());
      total_errors += errors[c];
    }
    const RunResult run = Finish(seconds, std::move(all), total_errors);
    std::fprintf(
        stderr,
        "tcp epoll %3zu clients: %8.2f req/s (p50 %6.2f ms, p99 %6.2f ms)%s\n",
        clients, run.throughput, run.p50_ms, run.p99_ms,
        run.errors > 0 ? "  [errors!]" : "");
    Value::Object entry = RunValue(run).AsObject();
    entry.emplace("clients", Value(clients));
    runs.emplace(std::to_string(clients) + "_clients",
                 Value(std::move(entry)));
  }

  {
    valmod::service::TcpTransport transport(port);
    (void)transport.RoundTrip("{\"verb\":\"shutdown\"}");
  }
  serve_thread.join();
  return Value(std::move(runs));
}

/// Miss coalescing under a storm: 64 clients issue the *same* cold-key
/// request at once. The flight machinery must collapse them to ONE
/// computation (observed through the scheduler's completed counter), so
/// the storm's wall time stays ~1x a single miss, not 64x (or queue-full
/// errors, which capacity 64 could not absorb uncoalesced).
Value RunMissStorm(const DataSeries& series, std::size_t length) {
  constexpr std::size_t kClients = 64;
  ServiceOptions options;
  options.workers = 4;
  options.cache_capacity = 64;
  options.queue_capacity = 8;  // far fewer slots than storm clients
  Service service(options);
  auto loaded = service.registry().LoadSeries("bench", series.Clone());
  if (!loaded.ok()) {
    std::fprintf(stderr, "miss storm load failed: %s\n",
                 loaded.status().ToString().c_str());
    return Value();
  }
  const auto profile_request = [&](std::size_t l) {
    return "{\"verb\":\"profile\",\"dataset\":\"bench\",\"params\":{\"l\":" +
           std::to_string(l) + "}}";
  };

  // Baseline: one cold miss, alone.
  WallTimer baseline_timer;
  const bool baseline_ok =
      ResponseOk(service.HandleRequest(profile_request(length + 5)));
  const double baseline_ms = baseline_timer.ElapsedMillis();

  // Storm: a different cold key, hit by every client at once.
  const std::string storm_request = profile_request(length + 7);
  const std::uint64_t completed_before = service.scheduler().stats().completed;
  std::vector<std::size_t> errors(kClients, 0);
  WallTimer storm_timer;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      if (!ResponseOk(service.HandleRequest(storm_request))) ++errors[c];
    });
  }
  for (std::thread& t : clients) t.join();
  const double storm_ms = storm_timer.ElapsedMillis();
  const std::uint64_t computations =
      service.scheduler().stats().completed - completed_before;
  std::size_t storm_errors = 0;
  for (const std::size_t e : errors) storm_errors += e;
  const double ratio = baseline_ms > 0.0 ? storm_ms / baseline_ms : 0.0;

  std::uint64_t coalesced = 0;
  auto stats = valmod::json::Parse(
      service.HandleRequest("{\"verb\":\"stats\"}"));
  if (stats.ok()) {
    if (const Value* cache = stats->Find("result")->Find("cache")) {
      coalesced = static_cast<std::uint64_t>(cache->GetNumber("coalesced", 0));
    }
  }

  std::fprintf(stderr,
               "miss storm    : %zu clients, 1 key: %llu computation%s, "
               "%llu coalesced, %.2f ms vs %.2f ms single miss (%.2fx)%s\n",
               kClients, static_cast<unsigned long long>(computations),
               computations == 1 ? "" : "s",
               static_cast<unsigned long long>(coalesced), storm_ms,
               baseline_ms, ratio,
               (storm_errors > 0 || !baseline_ok) ? "  [errors!]" : "");

  Value::Object o;
  o.emplace("clients", Value(kClients));
  o.emplace("single_miss_ms", Value(baseline_ms));
  o.emplace("storm_ms", Value(storm_ms));
  o.emplace("storm_vs_single_miss", Value(ratio));
  o.emplace("computations", Value(computations));
  o.emplace("coalesced", Value(coalesced));
  o.emplace("errors", Value(storm_errors + (baseline_ok ? 0u : 1u)));
  return Value(std::move(o));
}

/// Tracing-overhead probe at 64 clients over a cache-hot stream (every
/// request is a result-cache hit, so the measured path is exactly the
/// request machinery tracing instruments). Three p50s: tracing globally
/// disabled (--no-trace), enabled-but-unrequested (the default serving
/// configuration — this is the one with the <1% overhead acceptance bar),
/// and per-request "trace":true (span tree rendered into every response).
Value RunTraceOverhead(const DataSeries& series,
                       const std::vector<std::string>& stream) {
  constexpr std::size_t kClients = 64;
  ServiceOptions options;
  options.workers = 4;
  options.cache_capacity = 256;
  Service service(options);
  auto loaded = service.registry().LoadSeries("bench", series.Clone());
  if (!loaded.ok()) {
    std::fprintf(stderr, "trace overhead load failed: %s\n",
                 loaded.status().ToString().c_str());
    return Value();
  }
  // Warm every cache entry so all three runs measure pure hits.
  for (const std::string& request : stream) {
    (void)service.HandleRequest(request);
  }
  // Same shapes, each asking for its span tree back.
  std::vector<std::string> traced;
  traced.reserve(stream.size());
  for (const std::string& request : stream) {
    traced.push_back("{\"trace\":true," + request.substr(1));
  }

  // Each client replays the full stream, so the sample count is
  // kClients * stream.size() regardless of the stream length.
  const auto run = [&](const std::vector<std::string>& requests) {
    std::vector<std::vector<double>> latencies(kClients);
    std::vector<std::size_t> errors(kClients, 0);
    WallTimer total;
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (const std::string& request : requests) {
          WallTimer timer;
          if (!ResponseOk(service.HandleRequest(request))) ++errors[c];
          latencies[c].push_back(timer.ElapsedMillis());
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double seconds = total.ElapsedSeconds();
    std::vector<double> all;
    std::size_t total_errors = 0;
    for (std::size_t c = 0; c < kClients; ++c) {
      all.insert(all.end(), latencies[c].begin(), latencies[c].end());
      total_errors += errors[c];
    }
    return Finish(seconds, std::move(all), total_errors);
  };

  const bool was_enabled = valmod::trace::Enabled();
  valmod::trace::SetEnabled(false);
  const RunResult disabled = run(stream);
  valmod::trace::SetEnabled(true);
  const RunResult enabled = run(stream);
  const RunResult requested = run(traced);
  valmod::trace::SetEnabled(was_enabled);

  // Two views of the same delta. The hit-ratio divides by this probe's
  // pure-cache-hit p50 (microseconds), which makes ~1-2 us of context
  // setup look enormous; the absolute delta is what scales to real
  // traffic, and main() divides it by the 64-client TCP sweep's p50 to
  // report the overhead a real client actually sees.
  const double overhead_fraction =
      disabled.p50_ms > 0.0 ? enabled.p50_ms / disabled.p50_ms - 1.0 : 0.0;
  const double overhead_us = (enabled.p50_ms - disabled.p50_ms) * 1000.0;
  std::fprintf(stderr,
               "trace overhead: %zu clients p50 off %.4f ms, on %.4f ms "
               "(%+.3f us, %+.2f%% of a pure hit), trace=true %.4f ms%s\n",
               kClients, disabled.p50_ms, enabled.p50_ms, overhead_us,
               overhead_fraction * 100.0, requested.p50_ms,
               (disabled.errors + enabled.errors + requested.errors) > 0
                   ? "  [errors!]"
                   : "");

  Value::Object o;
  o.emplace("clients", Value(kClients));
  o.emplace("requests_per_run", Value(kClients * stream.size()));
  o.emplace("disabled", RunValue(disabled));
  o.emplace("enabled_unrequested", RunValue(enabled));
  o.emplace("trace_requested", RunValue(requested));
  o.emplace("p50_overhead_us", Value(overhead_us));
  o.emplace("p50_overhead_enabled_vs_disabled_pure_hits",
            Value(overhead_fraction));
  return Value(std::move(o));
}

std::string AppendRequest(const double* values, std::size_t count) {
  std::string request =
      "{\"verb\":\"append\",\"dataset\":\"stream\",\"params\":{\"values\":[";
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0) request += ',';
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", values[i]);
    request += buffer;
  }
  request += "]}}";
  return request;
}

/// Windowed streaming ingestion through the serving stack. Two claims:
///
///   flatness — per-append latency must not grow with total history. The
///              window bounds the maintained state, so a batch appended
///              after 100x-window of churn must cost what a batch at
///              2x-window cost. Reported as p50(late epoch)/p50(mid
///              epoch); a leaky O(history) implementation grows ~50x here.
///   memory   — a 1M-point append-then-query run must end with the
///              dataset's `stats`-reported footprint reflecting the
///              window, not the million points.
///
/// Requests are built before each timer starts, so the measured cost is
/// the serving stack (parse, registry, maintained profile), not snprintf.
Value RunStreamingIngest(std::size_t length) {
  Value::Object doc;

  // --- Flatness sweep: history grows to 100x the window. ---
  // Window sizes here trade CI wall time against realism: per-append cost
  // is O(window) (the update pass plus the occasional repair rescan after
  // an eviction), so 2048/1024 keep the whole section under ~1 minute
  // while still streaming 100x the window / a million points.
  {
    const std::size_t window = 2048;
    const std::size_t batch = 128;
    const std::size_t total_points = 100 * window;
    auto source = valmod::synth::ByName("random_walk", total_points, 77);
    if (!source.ok()) return Value(std::move(doc));
    const auto raw = source->values();

    ServiceOptions options;
    options.workers = 2;
    Service service(options);
    if (!ResponseOk(service.HandleRequest(
            "{\"verb\":\"load\",\"dataset\":\"stream\",\"params\":{"
            "\"streaming_length\":" + std::to_string(length) +
            ",\"window\":" + std::to_string(window) + "}}"))) {
      return Value(std::move(doc));
    }

    const std::size_t batches = total_points / batch;
    std::vector<double> batch_ms;
    batch_ms.reserve(batches);
    std::size_t errors = 0;
    WallTimer total;
    for (std::size_t b = 0; b < batches; ++b) {
      const std::string request = AppendRequest(raw.data() + b * batch, batch);
      WallTimer timer;
      if (!ResponseOk(service.HandleRequest(request))) ++errors;
      batch_ms.push_back(timer.ElapsedMillis());
    }
    const double seconds = total.ElapsedSeconds();

    // Mid epoch: steady state just after the window first filled (history
    // 2x..3x window). Late epoch: the last window's worth of batches, with
    // history at 100x. Flat means late/mid ~= 1.
    const std::size_t per_epoch = window / batch;
    std::vector<double> mid(batch_ms.begin() + 2 * per_epoch,
                            batch_ms.begin() + 3 * per_epoch);
    std::vector<double> late(batch_ms.end() - per_epoch, batch_ms.end());
    std::sort(mid.begin(), mid.end());
    std::sort(late.begin(), late.end());
    std::sort(batch_ms.begin(), batch_ms.end());
    const double mid_p50 = Percentile(mid, 0.50);
    const double late_p50 = Percentile(late, 0.50);
    const double flatness = mid_p50 > 0.0 ? late_p50 / mid_p50 : 0.0;
    const double appends_per_sec =
        seconds > 0.0 ? static_cast<double>(total_points) / seconds : 0.0;
    const double p99_us = Percentile(batch_ms, 0.99) * 1000.0;

    std::fprintf(stderr,
                 "stream ingest : %8.0f points/s  batch p50 %6.3f ms  "
                 "p99 %8.1f us  flatness(100x/2x) %.2fx%s\n",
                 appends_per_sec, Percentile(batch_ms, 0.50), p99_us, flatness,
                 errors > 0 ? "  [errors!]" : "");

    Value::Object o;
    o.emplace("window", Value(window));
    o.emplace("length", Value(length));
    o.emplace("batch_points", Value(batch));
    o.emplace("total_points", Value(total_points));
    o.emplace("seconds", Value(seconds));
    o.emplace("appends_per_sec", Value(appends_per_sec));
    o.emplace("p50_append_latency_ms", Value(Percentile(batch_ms, 0.50)));
    o.emplace("p99_append_latency_us", Value(p99_us));
    o.emplace("append_latency_flatness_100x_vs_2x", Value(flatness));
    o.emplace("errors", Value(errors));
    doc.emplace("flatness", Value(std::move(o)));
  }

  // --- 1M-point append-then-query within the window memory bound. ---
  {
    const std::size_t window = 1024;
    const std::size_t length = 32;  // shadows the sweep length: see above
    const std::size_t total_points = 1'000'000;
    const std::size_t batch = 1024;
    auto source = valmod::synth::ByName("random_walk", total_points, 79);
    if (!source.ok()) return Value(std::move(doc));
    const auto raw = source->values();

    ServiceOptions options;
    options.workers = 2;
    Service service(options);
    if (!ResponseOk(service.HandleRequest(
            "{\"verb\":\"load\",\"dataset\":\"stream\",\"params\":{"
            "\"streaming_length\":" + std::to_string(length) +
            ",\"max_points\":" + std::to_string(window) + "}}"))) {
      return Value(std::move(doc));
    }

    std::size_t errors = 0;
    WallTimer ingest_timer;
    for (std::size_t begin = 0; begin < total_points; begin += batch) {
      const std::size_t count = std::min(batch, total_points - begin);
      const std::string request = AppendRequest(raw.data() + begin, count);
      if (!ResponseOk(service.HandleRequest(request))) ++errors;
    }
    const double ingest_seconds = ingest_timer.ElapsedSeconds();

    WallTimer profile_timer;
    const bool profile_ok = ResponseOk(service.HandleRequest(
        "{\"verb\":\"profile\",\"dataset\":\"stream\"}"));
    const double profile_ms = profile_timer.ElapsedMillis();
    WallTimer motifs_timer;
    const bool motifs_ok = ResponseOk(service.HandleRequest(
        "{\"verb\":\"motifs\",\"dataset\":\"stream\",\"params\":{\"k\":3}}"));
    const double motifs_ms = motifs_timer.ElapsedMillis();

    double memory_bytes = 0.0;
    auto stats = valmod::json::Parse(
        service.HandleRequest("{\"verb\":\"stats\"}"));
    if (stats.ok()) {
      if (const Value* datasets = stats->Find("result")->Find("datasets")) {
        if (!datasets->AsArray().empty()) {
          memory_bytes = datasets->AsArray()[0].GetNumber("memory_bytes", 0);
        }
      }
    }

    std::fprintf(stderr,
                 "stream 1M     : ingest %5.2f s (%8.0f points/s)  "
                 "profile %6.2f ms  motifs %6.2f ms  memory %.2f MiB%s\n",
                 ingest_seconds,
                 ingest_seconds > 0.0 ? total_points / ingest_seconds : 0.0,
                 profile_ms, motifs_ms, memory_bytes / (1024.0 * 1024.0),
                 (errors > 0 || !profile_ok || !motifs_ok) ? "  [errors!]"
                                                           : "");

    Value::Object o;
    o.emplace("window", Value(window));
    o.emplace("length", Value(length));
    o.emplace("total_points", Value(total_points));
    o.emplace("ingest_seconds", Value(ingest_seconds));
    o.emplace("appends_per_sec",
              Value(ingest_seconds > 0.0 ? total_points / ingest_seconds
                                         : 0.0));
    o.emplace("profile_ms", Value(profile_ms));
    o.emplace("motifs_ms", Value(motifs_ms));
    o.emplace("memory_bytes", Value(memory_bytes));
    o.emplace("errors",
              Value(errors + (profile_ok ? 0u : 1u) + (motifs_ok ? 0u : 1u)));
    doc.emplace("million_point", Value(std::move(o)));
  }

  return Value(std::move(doc));
}

Value RunValue(const RunResult& run) {
  Value::Object o;
  o.emplace("seconds", Value(run.seconds));
  o.emplace("requests_per_second", Value(run.throughput));
  o.emplace("p50_ms", Value(run.p50_ms));
  o.emplace("p99_ms", Value(run.p99_ms));
  o.emplace("errors", Value(run.errors));
  return Value(std::move(o));
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const std::size_t n = static_cast<std::size_t>(flags.GetInt("n", 8192));
  const std::size_t requests =
      static_cast<std::size_t>(flags.GetInt("requests", 30));
  const std::size_t length =
      static_cast<std::size_t>(flags.GetInt("length", 128));
  const std::size_t max_clients =
      static_cast<std::size_t>(flags.GetInt("clients", 4));

  auto series = valmod::synth::ByName("ecg", n, 1);
  if (!series.ok()) {
    std::fprintf(stderr, "generator failed: %s\n",
                 series.status().ToString().c_str());
    return 1;
  }
  const std::vector<std::string> stream =
      BuildRequestStream(*series, requests, length);

  std::fprintf(stderr, "bench_service: n=%zu requests=%zu length=%zu\n", n,
               requests, length);

  const RunResult cold = RunCold(*series, stream);
  std::fprintf(stderr, "cold  1 client : %6.2f req/s (p50 %7.2f ms, p99 %7.2f ms)\n",
               cold.throughput, cold.p50_ms, cold.p99_ms);

  Value::Object doc;
  doc.emplace("bench", Value("service"));
  doc.emplace("git_sha", Value(std::string(valmod::bench::GitSha())));
  doc.emplace("run_results_version", Value(valmod::mass::kResultsVersion));
  doc.emplace("simd_target",
              Value(std::string(valmod::simd::TargetName(
                  valmod::simd::ActiveTarget()))));
  doc.emplace("cpu_features", Value(valmod::simd::CpuFeatureString()));
  doc.emplace("n", Value(n));
  doc.emplace("requests", Value(requests));
  doc.emplace("length", Value(length));
  doc.emplace("cold_1client", RunValue(cold));

  double warm_1client_throughput = 0.0;
  Value::Object warm_runs;
  {
    // One service across every client count: later rounds see the caches
    // the earlier rounds built, exactly as a long-lived server would. The
    // first (1-client) round starts cold-engine but warms within the run.
    ServiceOptions options;
    options.workers = static_cast<int>(max_clients);
    options.cache_capacity = 256;
    Service service(options);
    auto loaded = service.registry().LoadSeries("bench", series->Clone());
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    for (std::size_t clients = 1; clients <= max_clients; clients *= 2) {
      const RunResult warm = RunWarm(service, stream, clients);
      std::fprintf(
          stderr,
          "warm %2zu client%s: %6.2f req/s (p50 %7.2f ms, p99 %7.2f ms)\n",
          clients, clients == 1 ? " " : "s", warm.throughput, warm.p50_ms,
          warm.p99_ms);
      if (clients == 1) warm_1client_throughput = warm.throughput;
      warm_runs.emplace(std::to_string(clients) + "_clients",
                        RunValue(warm));
    }
    // The per-verb latency panel the `stats` verb serves (Welford mean +
    // histogram p50/p99), as observed after the whole warm sweep.
    auto stats = valmod::json::Parse(
        service.HandleRequest("{\"verb\":\"stats\"}"));
    if (stats.ok()) {
      if (const Value* verbs = stats->Find("result")->Find("verbs")) {
        doc.emplace("verb_latency", *verbs);
      }
    }
  }
  doc.emplace("warm", Value(std::move(warm_runs)));

  const double speedup =
      cold.throughput > 0.0 ? warm_1client_throughput / cold.throughput : 0.0;
  doc.emplace("speedup_warm_vs_cold_1client", Value(speedup));
  std::fprintf(stderr, "speedup warm/cold (1 client): %.2fx\n", speedup);

  Value trace_overhead = RunTraceOverhead(*series, stream);
  doc.emplace("overload", RunOverload(*series, length));
  doc.emplace("miss_storm", RunMissStorm(*series, length));
  doc.emplace("streaming_ingest",
              RunStreamingIngest(static_cast<std::size_t>(
                  flags.GetInt("stream-length", 64))));

  // TCP transport sweep at 64..tcp-clients connections over cache-hot
  // requests. Any failed request in it fails the run (exit 1).
  const std::size_t tcp_max =
      static_cast<std::size_t>(flags.GetInt("tcp-clients", 256));
  std::vector<std::size_t> client_counts;
  for (std::size_t c = 64; c <= tcp_max; c *= 2) client_counts.push_back(c);
  bool tcp_failed = false;
  if (!client_counts.empty()) {
    const std::size_t per_client =
        static_cast<std::size_t>(flags.GetInt("tcp-requests", 16));
    Value epoll_sweep =
        RunTcpSweep(*series, stream, client_counts, per_client);
    // The acceptance-facing overhead number: the probe's absolute per-hit
    // tracing delta as a fraction of what a 64-client TCP request really
    // costs end to end. (The probe's own ratio divides by a microsecond
    // pure-hit p50 and so wildly overstates the impact on live traffic.)
    if (trace_overhead.is_object()) {
      const Value* sixty_four = epoll_sweep.Find("64_clients");
      const double overhead_us =
          trace_overhead.GetNumber("p50_overhead_us", 0.0);
      const double sweep_p50_ms =
          sixty_four != nullptr ? sixty_four->GetNumber("p50_ms", 0.0) : 0.0;
      const double fraction =
          sweep_p50_ms > 0.0 ? (overhead_us / 1000.0) / sweep_p50_ms : 0.0;
      trace_overhead.AsObject().emplace("p50_overhead_vs_tcp64_sweep",
                                        Value(fraction));
      std::fprintf(stderr,
                   "trace overhead vs 64-client sweep p50: %+.4f%%\n",
                   fraction * 100.0);
    }
    tcp_failed = !epoll_sweep.is_object();
    if (!tcp_failed) {
      for (const auto& [name, run] : epoll_sweep.AsObject()) {
        tcp_failed |= run.GetNumber("errors", 0.0) > 0.0;
      }
    }
    doc.emplace("tcp_event_loop", std::move(epoll_sweep));
  }
  doc.emplace("trace_overhead", std::move(trace_overhead));

  const std::string json = Value(std::move(doc)).Serialize();
  std::fputs(json.c_str(), stdout);
  std::fputc('\n', stdout);
  const std::string path = flags.GetString("json", "");
  if (!path.empty()) {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), out);
    std::fputc('\n', out);
    std::fclose(out);
  }
  if (tcp_failed) {
    std::fprintf(stderr, "bench_service: the TCP sweep had errors\n");
    return 1;
  }
  return 0;
}
