// Event-loop transport tests over real sockets: round trips and shutdown
// drain through both TCP front ends (epoll and the legacy thread-per-
// connection one), client-side reassembly of paged responses, pipelined
// out-of-order completion, and the incremental request-line cap.

#include "service/tcp_server.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "common/fault.h"
#include "common/json.h"
#include "service/client.h"
#include "service/server.h"

namespace valmod::service {
namespace {

using json::Value;

/// A Service plus a TCP front end serving it on an ephemeral port from a
/// background thread. The destructor shuts the server down (through the
/// protocol, like a real client would) so a failed assertion never leaves
/// a test hanging on join().
struct ServerHarness {
  explicit ServerHarness(const ServiceOptions& options,
                         bool threaded = false,
                         const TcpServerOptions& tcp = {})
      : service(options) {
    auto made = threaded ? MakeThreadedServer(service, tcp)
                         : MakeEpollServer(service, tcp);
    if (!made.ok()) {
      ADD_FAILURE() << made.status().ToString();
      return;
    }
    server = std::move(*made);
    serve_thread = std::thread([this] { exit_code = server->Serve(); });
  }

  ~ServerHarness() { Stop(); }

  void Stop() {
    if (!serve_thread.joinable()) return;
    if (!service.shutdown_requested()) {
      TcpTransport transport(server->port());
      (void)transport.RoundTrip(R"({"verb":"shutdown"})");
    }
    serve_thread.join();
  }

  int port() const { return server->port(); }

  Service service;
  std::unique_ptr<TcpServer> server;
  std::thread serve_thread;
  int exit_code = -1;
};

constexpr char kLoad[] =
    R"({"id":1,"verb":"load","dataset":"d",)"
    R"("params":{"generator":"sine","n":4096,"seed":7}})";
constexpr char kMotifs[] =
    R"({"id":2,"verb":"motifs","dataset":"d",)"
    R"("params":{"lmin":64,"lmax":66,"k":1}})";
constexpr char kProfile[] =
    R"({"id":3,"verb":"profile","dataset":"d","params":{"l":64}})";

void SmokeSession(int port) {
  TcpTransport transport(port);
  RetryClient client(transport);

  auto load = client.Call(kLoad);
  ASSERT_TRUE(load.ok()) << load.status().ToString();
  ASSERT_TRUE(load->GetBool("ok", false)) << load->Serialize();

  auto miss = client.Call(kMotifs);
  ASSERT_TRUE(miss.ok() && miss->GetBool("ok", false));
  EXPECT_FALSE(miss->GetBool("cached", true));
  auto hit = client.Call(kMotifs);
  ASSERT_TRUE(hit.ok() && hit->GetBool("ok", false));
  EXPECT_TRUE(hit->GetBool("cached", false));
  EXPECT_EQ(hit->Find("result")->Serialize(),
            miss->Find("result")->Serialize());

  // The stats verb must expose the per-verb latency panel.
  auto stats = client.Call(R"({"id":4,"verb":"stats"})");
  ASSERT_TRUE(stats.ok() && stats->GetBool("ok", false));
  const Value* verbs = stats->Find("result")->Find("verbs");
  ASSERT_NE(verbs, nullptr) << stats->Serialize();
  bool saw_motifs = false;
  for (const Value& verb : verbs->AsArray()) {
    if (verb.GetString("verb", "") != "motifs") continue;
    saw_motifs = true;
    EXPECT_EQ(verb.GetNumber("count", 0), 2.0);
    EXPECT_GT(verb.GetNumber("p50_ms", -1.0), 0.0);
    EXPECT_GE(verb.GetNumber("p99_ms", 0.0), verb.GetNumber("p50_ms", 0.0));
    EXPECT_GE(verb.GetNumber("mean_ms", -1.0), 0.0);
  }
  EXPECT_TRUE(saw_motifs) << stats->Serialize();
}

TEST(EpollServerTest, RoundTripsAndCleanShutdown) {
  ServerHarness harness(ServiceOptions{});
  ASSERT_NE(harness.server, nullptr);
  SmokeSession(harness.port());
  harness.Stop();
  EXPECT_EQ(harness.exit_code, 0);
}

TEST(ThreadedServerTest, RoundTripsAndCleanShutdown) {
  ServerHarness harness(ServiceOptions{}, /*threaded=*/true);
  ASSERT_NE(harness.server, nullptr);
  SmokeSession(harness.port());
  harness.Stop();
  EXPECT_EQ(harness.exit_code, 0);
}

/// The client must reassemble a paged profile into the same bytes an
/// unpaged response carries, on both transports.
void PagedReassemblySession(ServerHarness& harness) {
  TcpTransport transport(harness.port());
  RetryClient client(transport);
  ASSERT_TRUE(client.Call(kLoad)->GetBool("ok", false));

  auto paged = client.Call(kProfile);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  ASSERT_TRUE(paged->GetBool("ok", false)) << paged->Serialize();
  EXPECT_GT(client.stats().pages, 0u)
      << "a ~4000-point profile at page_bytes=2048 must page";
  // The paging bookkeeping never leaks into the reassembled object.
  EXPECT_EQ(paged->Find("chunk"), nullptr);
  EXPECT_EQ(paged->Find("seq"), nullptr);
  EXPECT_EQ(paged->Find("partial"), nullptr);

  // A service with paging off computes the same request into one line;
  // its result bytes must match the reassembled ones exactly.
  ServiceOptions unpaged_options;
  unpaged_options.page_bytes = 0;
  Service unpaged_service(unpaged_options);
  ASSERT_TRUE(json::Parse(unpaged_service.HandleRequest(kLoad))
                  ->GetBool("ok", false));
  const std::string unpaged_wire = unpaged_service.HandleRequest(kProfile);
  EXPECT_EQ(unpaged_wire.find('\n'), unpaged_wire.size() - 1);
  auto unpaged = json::Parse(unpaged_wire);
  ASSERT_TRUE(unpaged.ok() && unpaged->GetBool("ok", false));
  EXPECT_FALSE(unpaged->GetBool("cached", true));
  EXPECT_EQ(paged->Find("result")->Serialize(),
            unpaged->Find("result")->Serialize());
}

TEST(EpollServerTest, PagedResponseReassembledByClient) {
  ServiceOptions options;
  options.page_bytes = 2048;
  ServerHarness harness(options);
  ASSERT_NE(harness.server, nullptr);
  PagedReassemblySession(harness);
}

TEST(ThreadedServerTest, PagedResponseReassembledByClient) {
  ServiceOptions options;
  options.page_bytes = 2048;
  ServerHarness harness(options, /*threaded=*/true);
  ASSERT_NE(harness.server, nullptr);
  PagedReassemblySession(harness);
}

// A pipelined connection on the epoll transport completes independent
// requests out of order: a slow compute must not block the cheap admin
// verb sent right behind it on the same connection.
TEST(EpollServerTest, PipelinedRequestsCompleteOutOfOrder) {
  if (!fault::kFaultInjectionEnabled) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  fault::FaultInjector::Global().DisarmAll();
  ServerHarness harness(ServiceOptions{});
  ASSERT_NE(harness.server, nullptr);
  TcpTransport transport(harness.port());
  RetryClient client(transport);
  ASSERT_TRUE(client.Call(kLoad)->GetBool("ok", false));

  fault::FaultSpec slow;
  slow.kind = fault::FaultKind::kDelay;
  slow.delay_ms = 300;
  fault::FaultInjector::Global().Arm("server.query.compute", slow);

  // Two requests in one write: the embedded newline pipelines them.
  const std::string pipelined = std::string(kMotifs) + "\n" +
                                R"({"id":9,"verb":"stats"})";
  auto first = transport.RoundTrip(pipelined);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto first_parsed = json::Parse(*first);
  ASSERT_TRUE(first_parsed.ok());
  EXPECT_EQ(first_parsed->GetNumber("id", -1), 9.0)
      << "the cheap stats response must overtake the stalled compute: "
      << *first;
  auto second = transport.ReceiveLine();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  auto second_parsed = json::Parse(*second);
  ASSERT_TRUE(second_parsed.ok());
  EXPECT_EQ(second_parsed->GetNumber("id", -1), 2.0);
  EXPECT_TRUE(second_parsed->GetBool("ok", false)) << *second;
  fault::FaultInjector::Global().DisarmAll();
}

// The 32 MiB request-line cap is enforced incrementally: a connection
// streaming an unterminated line is cut off once it crosses the cap —
// the server must not buffer until the process dies.
TEST(EpollServerTest, OversizedRequestLineIsRejected) {
  ServerHarness harness(ServiceOptions{});
  ASSERT_NE(harness.server, nullptr);
  TcpTransport transport(harness.port());
  std::string huge(kMaxRequestLineBytes + 1, 'x');
  auto response = transport.RoundTrip(huge);
  if (response.ok()) {
    // The error response raced ahead of the connection teardown.
    auto parsed = json::Parse(*response);
    ASSERT_TRUE(parsed.ok()) << *response;
    EXPECT_FALSE(parsed->GetBool("ok", true)) << *response;
  } else {
    // The server dropped the connection mid-send: also a correct outcome,
    // and the one a real flood usually sees.
    EXPECT_EQ(response.status().code(), StatusCode::kIoError);
  }
  // The server survives and serves the next well-formed connection.
  TcpTransport fresh(harness.port());
  RetryClient client(fresh);
  auto stats = client.Call(R"({"verb":"stats"})");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->GetBool("ok", false));
}

// An injected read failure (server.read) kills that one connection; the
// listener and every other connection keep serving.
TEST(EpollServerTest, InjectedReadFaultDropsOnlyThatConnection) {
  if (!fault::kFaultInjectionEnabled) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  fault::FaultInjector::Global().DisarmAll();
  ServerHarness harness(ServiceOptions{});
  ASSERT_NE(harness.server, nullptr);

  fault::FaultSpec read_fault;
  read_fault.kind = fault::FaultKind::kError;
  read_fault.code = StatusCode::kIoError;
  read_fault.nth = 1;
  read_fault.max_fires = 1;
  fault::FaultInjector::Global().Arm("server.read", read_fault);

  TcpTransport doomed(harness.port());
  RetryOptions no_retry;
  no_retry.max_attempts = 1;
  no_retry.retry_io_errors = false;
  RetryClient doomed_client(doomed, no_retry);
  auto dropped = doomed_client.Call(R"({"verb":"stats"})");
  EXPECT_FALSE(dropped.ok());

  TcpTransport survivor(harness.port());
  RetryClient client(survivor);
  auto stats = client.Call(R"({"verb":"stats"})");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->GetBool("ok", false));
  fault::FaultInjector::Global().DisarmAll();
}

}  // namespace
}  // namespace valmod::service
