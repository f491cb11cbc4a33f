// Chaos suite: drives the serving stack under armed fault points and
// asserts the robustness contract — every failure is a structured error,
// the process never dies, the registry stays intact, and the result cache
// is never poisoned by fault-tainted or partial responses. The in-process
// tests exercise Service + RetryClient directly; under VALMOD_SERVER_BINARY
// the real binary is driven over TCP (--port=0), including the
// mid-response-disconnect SIGPIPE regression.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/json.h"
#include "mp/stomp.h"
#include "series/generators.h"
#include "service/client.h"
#include "service/server.h"

namespace valmod::service {
namespace {

using json::Value;

Value Roundtrip(Service& service, const std::string& line) {
  const std::string response = service.HandleRequest(line);
  auto parsed = json::Parse(response);
  EXPECT_TRUE(parsed.ok()) << "unparseable response: " << response;
  return parsed.ok() ? *parsed : Value();
}

bool Ok(const Value& response) { return response.GetBool("ok", false); }

std::string ErrorCode(const Value& response) {
  const Value* error = response.Find("error");
  return error == nullptr ? "" : error->GetString("code", "");
}

double RetryAfterMs(const Value& response) {
  const Value* error = response.Find("error");
  return error == nullptr ? 0.0 : error->GetNumber("retry_after_ms", 0.0);
}

/// Fast retry settings so chaos tests spend milliseconds, not seconds,
/// in backoff.
RetryOptions FastRetry() {
  RetryOptions options;
  options.max_attempts = 6;
  options.initial_backoff_ms = 1;
  options.max_backoff_ms = 10;
  return options;
}

/// Every test starts and ends with a clean global injector: fault points
/// are process-global state, and a leaked armed point would bleed into
/// later tests in this binary.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fault::kFaultInjectionEnabled) {
      GTEST_SKIP() << "fault injection compiled out";
    }
    fault::FaultInjector::Global().DisarmAll();
  }
  void TearDown() override {
    if (fault::kFaultInjectionEnabled) {
      fault::FaultInjector::Global().DisarmAll();
    }
  }
};

TEST_F(ChaosTest, AllocFailureDuringLoadRetriesCleanly) {
  Service service;
  // Arm through the `faults` verb — the runtime chaos path, not the test
  // API — so the verb's directive plumbing is covered too.
  Value armed = Roundtrip(service,
      R"({"verb":"faults","params":)"
      R"({"arm":"registry.load.alloc=alloc:nth=1"}})");
  ASSERT_TRUE(Ok(armed)) << armed.Serialize();
  ASSERT_EQ(armed.Find("result")->Find("armed")->AsArray().size(), 1u);

  // The first load attempt hits the injected allocation failure; the retry
  // client backs off and the second attempt succeeds — which proves the
  // failed load released the dataset name instead of leaking a claim.
  CallbackTransport transport(
      [&service](const std::string& line) {
        return service.HandleRequest(line);
      });
  RetryClient client(transport, FastRetry());
  auto loaded = client.Call(
      R"({"verb":"load","dataset":"d",)"
      R"("params":{"generator":"random_walk","n":2048,"seed":3}})");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(Ok(*loaded)) << loaded->Serialize();
  EXPECT_GE(client.stats().retries, 1u);

  // Registry intact and the dataset fully usable.
  ASSERT_EQ(service.registry().List().size(), 1u);
  Value motifs = Roundtrip(service,
      R"({"verb":"motifs","dataset":"d","params":{"lmin":32,"lmax":34}})");
  EXPECT_TRUE(Ok(motifs)) << motifs.Serialize();
}

TEST_F(ChaosTest, FaultTaintedResponsesAreNeverCached) {
  Service service;
  Roundtrip(service,
            R"({"verb":"load","dataset":"d",)"
            R"("params":{"generator":"sine","n":1024}})");
  // The first scheduled job fails with an injected Unavailable.
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kError;
  spec.code = StatusCode::kUnavailable;
  spec.nth = 1;
  fault::FaultInjector::Global().Arm("scheduler.worker.stall", spec);

  const std::string request =
      R"({"verb":"motifs","dataset":"d","params":{"lmin":32,"lmax":33}})";
  Value failed = Roundtrip(service, request);
  EXPECT_FALSE(Ok(failed));
  EXPECT_EQ(ErrorCode(failed), "Unavailable");

  // The failure was not cached: the same request computes fresh (miss),
  // and only then becomes a hit.
  Value stats = Roundtrip(service, R"({"verb":"stats"})");
  EXPECT_DOUBLE_EQ(
      stats.Find("result")->Find("cache")->GetNumber("entries", -1), 0.0);
  Value fresh = Roundtrip(service, request);
  ASSERT_TRUE(Ok(fresh)) << fresh.Serialize();
  EXPECT_FALSE(fresh.GetBool("cached", true));
  EXPECT_TRUE(Roundtrip(service, request).GetBool("cached", false));
}

TEST_F(ChaosTest, PartialResponsesAreNeverCached) {
  Service service;
  Roundtrip(service,
            R"({"verb":"load","dataset":"d",)"
            R"("params":{"generator":"random_walk","n":8192,"seed":1}})");
  // Burn most of the deadline before the job starts so the wide length
  // range cannot complete. The run may still (a) finish everything on a
  // fast machine, or (b) miss even the initial scan — both are legal; the
  // invariant under test is that a response flagged partial never lands
  // in the cache.
  fault::FaultSpec stall;
  stall.kind = fault::FaultKind::kDelay;
  stall.delay_ms = 150;
  fault::FaultInjector::Global().Arm("scheduler.worker.stall", stall);

  const std::string request =
      R"({"verb":"motifs","dataset":"d",)"
      R"("params":{"lmin":64,"lmax":256,"allow_partial":true},)"
      R"("timeout_ms":250})";
  for (int round = 0; round < 2; ++round) {
    Value response = Roundtrip(service, request);
    if (Ok(response)) {
      // Complete or partial — but a partial response must say so, must
      // report how far it got, and must never be served from cache.
      if (response.Find("result")->GetBool("partial", false)) {
        const double completed =
            response.Find("result")->GetNumber("completed_lmax", 0.0);
        EXPECT_GE(completed, 64.0);
        EXPECT_LT(completed, 256.0);
        EXPECT_FALSE(response.GetBool("cached", true));
      }
    } else {
      EXPECT_EQ(ErrorCode(response), "DeadlineExceeded");
    }
    // Whatever the outcome, nothing partial or failed may have been
    // cached. (A fully-completed run *is* cacheable; detect that case and
    // stop asserting emptiness.)
    Value stats = Roundtrip(service, R"({"verb":"stats"})");
    const bool completed_fully =
        Ok(response) && !response.Find("result")->GetBool("partial", false);
    if (!completed_fully) {
      EXPECT_DOUBLE_EQ(
          stats.Find("result")->Find("cache")->GetNumber("entries", -1), 0.0)
          << "round " << round;
    }
  }
}

TEST_F(ChaosTest, ShedVictimGetsStructuredOverloadError) {
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.cache_capacity = 0;
  Service service(options);
  Roundtrip(service,
            R"({"verb":"load","dataset":"d",)"
            R"("params":{"generator":"random_walk","n":2048}})");
  // Pin the single worker on its first job long enough for the queue to
  // fill and the priority fight to happen deterministically.
  fault::FaultSpec stall;
  stall.kind = fault::FaultKind::kDelay;
  stall.delay_ms = 500;
  stall.nth = 1;
  fault::FaultInjector::Global().Arm("scheduler.worker.stall", stall);

  Value occupant, victim, winner;
  std::thread occupant_thread([&service, &occupant] {
    occupant = Roundtrip(service,
        R"({"verb":"motifs","dataset":"d","params":{"lmin":32,"lmax":33}})");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  std::thread victim_thread([&service, &victim] {
    victim = Roundtrip(service,
        R"({"verb":"motifs","dataset":"d","params":{"lmin":34,"lmax":35}})");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  std::thread winner_thread([&service, &winner] {
    winner = Roundtrip(service,
        R"({"verb":"motifs","dataset":"d",)"
        R"("params":{"lmin":36,"lmax":37},"priority":5})");
  });
  occupant_thread.join();
  victim_thread.join();
  winner_thread.join();

  EXPECT_TRUE(Ok(occupant)) << occupant.Serialize();
  EXPECT_TRUE(Ok(winner)) << winner.Serialize();
  // The queued default-priority request was shed in favor of the
  // priority-5 newcomer, with the full structured overload contract: the
  // machine-readable code and a usable backoff hint.
  ASSERT_FALSE(Ok(victim)) << victim.Serialize();
  EXPECT_EQ(ErrorCode(victim), "ResourceExhausted");
  EXPECT_NE(victim.Find("error")->GetString("message", "").find("shed"),
            std::string::npos);
  EXPECT_GT(RetryAfterMs(victim), 0.0);
  EXPECT_EQ(service.scheduler().stats().shed, 1u);
}

TEST_F(ChaosTest, ProbabilisticFaultStormNeverKillsTheService) {
  ServiceOptions options;
  options.cache_capacity = 0;  // every request recomputes (and re-rolls)
  Service service(options);
  Roundtrip(service,
            R"({"verb":"load","dataset":"d",)"
            R"("params":{"generator":"ecg","n":1024}})");
  // Half of all scheduled jobs fail with Unavailable, deterministically
  // under seed 7 — reruns replay the exact same fire pattern.
  ASSERT_TRUE(fault::FaultInjector::Global()
                  .ArmFromString(
                      "scheduler.worker.stall=error:code=Unavailable:"
                      "p=0.5:seed=7")
                  .ok());

  CallbackTransport transport(
      [&service](const std::string& line) {
        return service.HandleRequest(line);
      });
  RetryClient client(transport, FastRetry());
  int ok_count = 0;
  for (int i = 0; i < 20; ++i) {
    auto response = client.Call(
        R"({"verb":"motifs","dataset":"d","params":{"lmin":32,"lmax":33}})");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (Ok(*response)) {
      ++ok_count;
    } else {
      // Exhausted retries still end in a structured overload error.
      EXPECT_EQ(ErrorCode(*response), "Unavailable");
    }
  }
  // With 6 attempts per call at p=0.5, nearly every call lands.
  EXPECT_GE(ok_count, 15);
  EXPECT_GE(client.stats().retries, 1u);

  // The storm is over: disarm, and the service is fully healthy — no
  // poisoned state, registry intact.
  fault::FaultInjector::Global().DisarmAll();
  Value health = Roundtrip(service, R"({"verb":"health"})");
  ASSERT_TRUE(Ok(health)) << health.Serialize();
  EXPECT_EQ(health.Find("result")->GetString("status", ""), "ok");
  EXPECT_DOUBLE_EQ(health.Find("result")->GetNumber("datasets", -1), 1.0);
}

TEST_F(ChaosTest, HealthReportsDegradedWhileFaultsArmed) {
  Service service;
  Value healthy = Roundtrip(service, R"({"verb":"health"})");
  ASSERT_TRUE(Ok(healthy));
  EXPECT_EQ(healthy.Find("result")->GetString("status", ""), "ok");

  ASSERT_TRUE(Ok(Roundtrip(service,
      R"({"verb":"faults","params":{"arm":"server.write=delay:delay_ms=1"}})")));
  Value degraded = Roundtrip(service, R"({"verb":"health"})");
  ASSERT_TRUE(Ok(degraded));
  EXPECT_EQ(degraded.Find("result")->GetString("status", ""), "degraded");
  const Value::Array& reasons =
      degraded.Find("result")->Find("reasons")->AsArray();
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0].AsString(), "faults_armed");
  EXPECT_DOUBLE_EQ(degraded.Find("result")->GetNumber("faults_armed", 0), 1.0);

  ASSERT_TRUE(Ok(Roundtrip(service,
      R"({"verb":"faults","params":{"disarm_all":true}})")));
  Value recovered = Roundtrip(service, R"({"verb":"health"})");
  EXPECT_EQ(recovered.Find("result")->GetString("status", ""), "ok");
}

// Sustained windowed ingestion under chaos: two appender threads stream
// into a bounded dataset while query threads hammer the maintained verbs
// and batch snapshots, with append/snapshot allocation faults firing
// probabilistically throughout. Asserts the streaming contract end to end:
// every append eventually lands (atomically — a faulted batch appends
// nothing), the retained window and memory stay bounded while total
// history grows, and the maintained profile still equals a batch STOMP of
// the final retained window.
TEST_F(ChaosTest, SustainedWindowedAppendSoak) {
  const std::size_t length = 32;
  const std::size_t window = 1024;
  const std::size_t batch_points = 64;
  const std::size_t batches_per_thread = 150;
  const std::size_t num_appenders = 2;

  Service service;
  ASSERT_TRUE(Ok(Roundtrip(service,
      R"({"verb":"load","dataset":"s",)"
      R"("params":{"streaming_length":32,"max_points":1024}})")));
  ASSERT_TRUE(fault::FaultInjector::Global()
                  .ArmFromString(
                      "streaming.append.alloc=error:code=Unavailable:"
                      "p=0.15:seed=11")
                  .ok());
  ASSERT_TRUE(fault::FaultInjector::Global()
                  .ArmFromString(
                      "registry.snapshot.alloc=error:code=Unavailable:"
                      "p=0.10:seed=13")
                  .ok());

  auto source = synth::ByName(
      "random_walk", num_appenders * batches_per_thread * batch_points, 21);
  ASSERT_TRUE(source.ok());
  const auto values = source->values();

  std::atomic<std::size_t> appends_ok{0};
  std::vector<std::thread> appenders;
  for (std::size_t t = 0; t < num_appenders; ++t) {
    appenders.emplace_back([&, t] {
      CallbackTransport transport([&service](const std::string& line) {
        return service.HandleRequest(line);
      });
      RetryClient client(transport, FastRetry());
      const std::size_t offset = t * batches_per_thread * batch_points;
      for (std::size_t b = 0; b < batches_per_thread; ++b) {
        std::string request =
            R"({"verb":"append","dataset":"s","params":{"values":[)";
        for (std::size_t i = 0; i < batch_points; ++i) {
          if (i > 0) request += ',';
          request += std::to_string(values[offset + b * batch_points + i]);
        }
        request += "]}}";
        auto response = client.Call(request);
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        ASSERT_TRUE(Ok(*response)) << response->Serialize();
        appends_ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::atomic<bool> done{false};
  std::thread querier([&] {
    while (!done.load(std::memory_order_relaxed)) {
      // Maintained verbs + batch snapshot materialization racing appends
      // and the armed snapshot fault; any failure must be structured.
      for (const char* request :
           {R"({"verb":"profile","dataset":"s"})",
            R"({"verb":"motifs","dataset":"s","params":{"k":3}})",
            R"({"verb":"discords","dataset":"s","params":{"k":2}})",
            R"({"verb":"stats"})"}) {
        Value response = Roundtrip(service, request);
        if (!Ok(response)) {
          EXPECT_NE(ErrorCode(response), "") << response.Serialize();
        }
      }
    }
  });

  for (std::thread& appender : appenders) appender.join();
  done.store(true, std::memory_order_relaxed);
  querier.join();
  fault::FaultInjector::Global().DisarmAll();
  EXPECT_EQ(appends_ok.load(), num_appenders * batches_per_thread);

  // Occupancy: the window retained exactly `window` points while the total
  // history grew ~19x past it, and the footprint reflects the window, not
  // the history.
  Value stats = Roundtrip(service, R"({"verb":"stats"})");
  ASSERT_TRUE(Ok(stats)) << stats.Serialize();
  const Value& info = stats.Find("result")->Find("datasets")->AsArray()[0];
  const double total = num_appenders * batches_per_thread * batch_points;
  EXPECT_DOUBLE_EQ(info.GetNumber("points", 0), window);
  EXPECT_DOUBLE_EQ(info.GetNumber("total_appended", 0), total);
  EXPECT_DOUBLE_EQ(info.GetNumber("evicted", 0), total - window);
  EXPECT_DOUBLE_EQ(info.GetNumber("window_occupancy", 0), 1.0);
  const double memory_bytes = info.GetNumber("memory_bytes", 0);
  EXPECT_GT(memory_bytes, 0.0);
  // Generous absolute cap — but far below what O(total) retention of the
  // ~19k-point history across the maintained arrays would cost.
  EXPECT_LT(memory_bytes, 1.5e6);

  // Final parity: the maintained profile equals batch STOMP of the
  // retained window (the snapshot values are anchor-shifted, which
  // z-normalized distances cannot observe).
  auto dataset = service.registry().Get("s");
  ASSERT_TRUE(dataset.ok());
  auto state = (*dataset)->StreamingProfileSnapshot();
  ASSERT_TRUE(state.ok());
  auto snapshot = (*dataset)->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  auto batch = mp::ComputeStomp((*snapshot)->series(), length);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(state->profile.size(), batch->size());
  for (std::size_t i = 0; i < batch->size(); ++i) {
    EXPECT_NEAR(state->profile.distances[i], batch->distances[i], 2e-5)
        << "row " << i;
  }
}

#ifdef VALMOD_SERVER_BINARY

/// Runs the real valmod_server over TCP on an ephemeral port (--port=0),
/// parsing the bound port from its "listening on 127.0.0.1:<port>" line.
/// Shutdown() speaks the shutdown verb and reports the process exit
/// status; the destructor falls back to it so a failing test still reaps
/// the child.
class ServerProcess {
 public:
  explicit ServerProcess(const std::string& env_prefix = "") {
    const std::string command = env_prefix + VALMOD_SERVER_BINARY +
                                " --port=0 2>&1 </dev/null";
    pipe_ = popen(command.c_str(), "r");
    if (pipe_ == nullptr) return;
    char line[256];
    if (std::fgets(line, sizeof(line), pipe_) != nullptr) {
      const char* colon = std::strrchr(line, ':');
      if (colon != nullptr) port_ = std::atoi(colon + 1);
    }
  }

  ~ServerProcess() {
    if (pipe_ != nullptr) Shutdown();
  }

  bool started() const { return pipe_ != nullptr && port_ > 0; }
  int port() const { return port_; }

  int Shutdown() {
    if (pipe_ == nullptr) return -1;
    {
      TcpTransport transport(port_);
      (void)transport.RoundTrip(R"({"verb":"shutdown"})");
    }
    char buffer[4096];
    while (std::fread(buffer, 1, sizeof(buffer), pipe_) > 0) {
    }
    const int status = pclose(pipe_);
    pipe_ = nullptr;
    return status;
  }

 private:
  std::FILE* pipe_ = nullptr;
  int port_ = 0;
};

// The SIGPIPE regression: a client that disconnects while the server still
// has responses in flight must cost that one connection, never the
// process. The armed server.write delay guarantees responses are written
// *after* the disconnect, so the failing-send path genuinely runs.
TEST(ServerChaosTcpTest, MidStreamDisconnectDoesNotKillTheServer) {
  if (!fault::kFaultInjectionEnabled) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  ServerProcess server;
  ASSERT_TRUE(server.started());

  {
    TcpTransport setup(server.port());
    auto loaded = setup.RoundTrip(
        R"({"verb":"load","dataset":"d",)"
        R"("params":{"generator":"random_walk","n":1024}})");
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    auto armed = setup.RoundTrip(
        R"({"verb":"faults","params":)"
        R"({"arm":"server.write=delay:delay_ms=150"}})");
    ASSERT_TRUE(armed.ok()) << armed.status().ToString();
  }

  // The doomed connection: pipeline several requests, then close without
  // reading a byte. The server works through them one delayed write at a
  // time; by the second write the kernel has seen our RST, so send() on an
  // unfixed server raises SIGPIPE.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(server.port()));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
        0);
    const std::string burst =
        R"({"verb":"stats"})" "\n" R"({"verb":"stats"})" "\n"
        R"({"verb":"stats"})" "\n" R"({"verb":"stats"})" "\n";
    ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(burst.size()));
    ::close(fd);  // FIN now; responses arriving later draw RSTs
  }
  // Let the server hit the failed write (2 delayed responses ≈ 300 ms).
  std::this_thread::sleep_for(std::chrono::milliseconds(700));

  // The process survived with its state intact: a fresh connection gets
  // real answers.
  {
    TcpTransport probe(server.port());
    auto disarmed = probe.RoundTrip(
        R"({"verb":"faults","params":{"disarm_all":true}})");
    ASSERT_TRUE(disarmed.ok()) << disarmed.status().ToString();
    auto health = probe.RoundTrip(R"({"verb":"health"})");
    ASSERT_TRUE(health.ok()) << health.status().ToString();
    auto parsed = json::Parse(*health);
    ASSERT_TRUE(parsed.ok()) << *health;
    EXPECT_TRUE(Ok(*parsed)) << *health;
    EXPECT_EQ(parsed->Find("result")->GetString("status", ""), "ok");
    EXPECT_DOUBLE_EQ(parsed->Find("result")->GetNumber("datasets", -1), 1.0);
  }
  EXPECT_EQ(server.Shutdown(), 0);
}

// Full client-retry loop against the real binary: a fault armed over TCP
// fails the first load, the RetryClient recovers, health reflects the
// armed/disarmed transitions.
TEST(ServerChaosTcpTest, FaultsVerbAndRetryClientOverTcp) {
  if (!fault::kFaultInjectionEnabled) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  ServerProcess server;
  ASSERT_TRUE(server.started());

  TcpTransport transport(server.port());
  RetryClient client(transport, FastRetry());

  auto armed = client.Call(
      R"({"verb":"faults","params":)"
      R"({"arm":"registry.load.alloc=alloc:nth=1"}})");
  ASSERT_TRUE(armed.ok()) << armed.status().ToString();
  ASSERT_TRUE(Ok(*armed)) << armed->Serialize();

  auto loaded = client.Call(
      R"({"verb":"load","dataset":"d",)"
      R"("params":{"generator":"ecg","n":1024}})");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(Ok(*loaded)) << loaded->Serialize();
  EXPECT_GE(client.stats().retries, 1u);

  auto degraded = client.Call(R"({"verb":"health"})");
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ((*degraded).Find("result")->GetString("status", ""), "degraded");

  ASSERT_TRUE(Ok(*client.Call(
      R"({"verb":"faults","params":{"disarm_all":true}})")));
  auto recovered = client.Call(R"({"verb":"health"})");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered).Find("result")->GetString("status", ""), "ok");

  auto motifs = client.Call(
      R"({"verb":"motifs","dataset":"d","params":{"lmin":32,"lmax":34}})");
  ASSERT_TRUE(motifs.ok());
  EXPECT_TRUE(Ok(*motifs)) << motifs->Serialize();

  EXPECT_EQ(server.Shutdown(), 0);
}

// VALMOD_FAULTS is applied at startup: the `faults` verb lists the
// env-armed point before any fault point has been hit.
TEST(ServerChaosTcpTest, EnvVarArmsFaultsAtStartup) {
  if (!fault::kFaultInjectionEnabled) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  const std::string script =
      R"({"id":1,"verb":"faults"})" "\n"
      R"({"id":2,"verb":"shutdown"})" "\n";
  const std::string command =
      std::string("printf '%s' '") + script +
      "' | VALMOD_FAULTS='registry.snapshot.alloc=alloc:nth=5' " +
      VALMOD_SERVER_BINARY + " --stdio 2>/dev/null";
  std::FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char buffer[4096];
  std::size_t n;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output.append(buffer, n);
  }
  EXPECT_EQ(pclose(pipe), 0);

  const std::size_t newline = output.find('\n');
  ASSERT_NE(newline, std::string::npos) << output;
  auto first = json::Parse(output.substr(0, newline));
  ASSERT_TRUE(first.ok()) << output;
  ASSERT_TRUE(Ok(*first)) << output;
  const Value::Array& armed = first->Find("result")->Find("armed")->AsArray();
  ASSERT_EQ(armed.size(), 1u);
  EXPECT_EQ(armed[0].GetString("point", ""), "registry.snapshot.alloc");
  EXPECT_EQ(armed[0].GetString("kind", ""), "alloc");
  EXPECT_DOUBLE_EQ(armed[0].GetNumber("fires", -1), 0.0);
}

// The two requests that used to kill the process on a 4096-point dataset
// (p far beyond the window count: std::bad_alloc; a huge thread count: one
// partial-profile set per thread until the OOM killer) now get structured
// responses, and the server still shuts down cleanly. The thread count is
// clamped rather than rejected, so the answer must match threads=1 byte
// for byte; the two runs use separate datasets so the second is computed,
// not served from the first's cache entry.
TEST(ServerChaosStdioTest, OversizedRequestsGetStructuredResponses) {
  const std::string script =
      R"({"id":1,"verb":"load","dataset":"a","params":{"generator":"random_walk","n":4096}})" "\n"
      R"({"id":2,"verb":"load","dataset":"b","params":{"generator":"random_walk","n":4096}})" "\n"
      R"({"id":3,"verb":"motifs","dataset":"a","params":{"lmin":64,"lmax":72,"p":200000}})" "\n"
      R"({"id":4,"verb":"motifs","dataset":"a","params":{"lmin":64,"lmax":72,"threads":100000}})" "\n"
      R"({"id":5,"verb":"motifs","dataset":"b","params":{"lmin":64,"lmax":72,"threads":1}})" "\n"
      R"({"id":6,"verb":"shutdown"})" "\n";
  const std::string command = std::string("printf '%s' '") + script +
                              "' | " + VALMOD_SERVER_BINARY +
                              " --stdio 2>/dev/null";
  std::FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char buffer[4096];
  std::size_t n;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output.append(buffer, n);
  }
  EXPECT_EQ(pclose(pipe), 0) << output;

  std::vector<Value> responses;
  std::size_t start = 0, newline;
  while ((newline = output.find('\n', start)) != std::string::npos) {
    auto parsed = json::Parse(output.substr(start, newline - start));
    ASSERT_TRUE(parsed.ok()) << output;
    responses.push_back(*parsed);
    start = newline + 1;
  }
  ASSERT_EQ(responses.size(), 6u) << output;
  EXPECT_TRUE(Ok(responses[0])) << output;
  EXPECT_TRUE(Ok(responses[1])) << output;

  EXPECT_FALSE(Ok(responses[2])) << output;
  EXPECT_EQ(ErrorCode(responses[2]), "InvalidArgument") << output;

  const Value& clamped = responses[3];
  const Value& serial = responses[4];
  ASSERT_TRUE(Ok(clamped)) << output;
  ASSERT_TRUE(Ok(serial)) << output;
  EXPECT_FALSE(serial.GetBool("cached", true));
  EXPECT_EQ(clamped.Find("result")->Serialize(),
            serial.Find("result")->Serialize());
  EXPECT_TRUE(Ok(responses[5])) << output;
}

#endif  // VALMOD_SERVER_BINARY

}  // namespace
}  // namespace valmod::service
