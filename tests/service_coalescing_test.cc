// Miss-coalescing tests: N concurrent identical cache misses must run the
// underlying computation exactly once (one leader, N-1 parked waiters),
// and a failed leader must fail over to the next waiter instead of
// erroring every one of them. Computation counts are observed through the
// `server.query.compute` fault point's hit counter — every admitted query
// job checks it, so hits == computations actually executed.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/json.h"
#include "service/server.h"

namespace valmod::service {
namespace {

using json::Value;

class CoalescingTest : public ::testing::Test {
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

Value Roundtrip(Service& service, const std::string& line) {
  const std::string response = service.HandleRequest(line);
  auto parsed = json::Parse(response);
  EXPECT_TRUE(parsed.ok()) << "unparseable response: " << response;
  return parsed.ok() ? *parsed : Value();
}

std::uint64_t PointHits(std::string_view point) {
  for (const auto& info : fault::FaultInjector::Global().List()) {
    if (info.point == point) return info.hits;
  }
  return 0;
}

void LoadDataset(Service& service) {
  Value load = Roundtrip(service,
      R"({"id":0,"verb":"load","dataset":"d",)"
      R"("params":{"generator":"sine","n":1024,"seed":3}})");
  ASSERT_TRUE(load.GetBool("ok", false)) << load.Serialize();
}

constexpr char kRequest[] =
    R"({"id":1,"verb":"motifs","dataset":"d",)"
    R"("params":{"lmin":64,"lmax":66,"k":1}})";

TEST_F(CoalescingTest, ConcurrentIdenticalMissesComputeExactlyOnce) {
  Service service;
  LoadDataset(service);

  // Slow the computation down so every thread arrives while the first
  // request's flight is still open. The delay fault counts a hit per
  // executed computation either way.
  fault::FaultSpec slow;
  slow.kind = fault::FaultKind::kDelay;
  slow.delay_ms = 200;
  fault::FaultInjector::Global().Arm("server.query.compute", slow);

  constexpr int kClients = 8;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&service, &responses, t] {
      responses[t] = service.HandleRequest(kRequest);
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(PointHits("server.query.compute"), 1u)
      << "identical concurrent misses must share one computation";

  int leaders = 0;
  std::string result_bytes;
  for (const auto& wire : responses) {
    auto parsed = json::Parse(wire);
    ASSERT_TRUE(parsed.ok()) << wire;
    ASSERT_TRUE(parsed->GetBool("ok", false)) << wire;
    // Every response carries identical result bytes regardless of how it
    // was delivered (computed, coalesced fan-out, or late cache hit).
    const std::string bytes = parsed->Find("result")->Serialize();
    if (result_bytes.empty()) result_bytes = bytes;
    EXPECT_EQ(bytes, result_bytes);
    if (!parsed->GetBool("cached", false) &&
        !parsed->GetBool("coalesced", false)) {
      ++leaders;
    }
  }
  EXPECT_EQ(leaders, 1) << "exactly one response is the computed one";

  Value stats = Roundtrip(service, R"({"id":9,"verb":"stats"})");
  const Value* cache = stats.Find("result")->Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->GetNumber("inflight", -1), 0.0);
  // Whoever raced in while the flight was open was coalesced; the rest
  // (if any) were cache hits after completion. Together: kClients - 1.
  EXPECT_EQ(cache->GetNumber("coalesced", -1) +
                cache->GetNumber("hits", -1),
            static_cast<double>(kClients - 1));
  const Value* scheduler = stats.Find("result")->Find("scheduler");
  ASSERT_NE(scheduler, nullptr);
  EXPECT_EQ(scheduler->GetNumber("completed", -1), 1.0);
}

TEST_F(CoalescingTest, FailedLeaderFailsOverToOneWaiter) {
  Service service;
  LoadDataset(service);

  // The leader's worker stalls long enough for every client to park on
  // the flight, then its computation fails (first hit only). The flight
  // must promote ONE waiter — which recomputes successfully — instead of
  // fanning the error out to everyone.
  fault::FaultSpec stall;
  stall.kind = fault::FaultKind::kDelay;
  stall.delay_ms = 200;
  fault::FaultInjector::Global().Arm("scheduler.worker.stall", stall);
  fault::FaultSpec fail_once;
  fail_once.kind = fault::FaultKind::kError;
  fail_once.code = StatusCode::kInternal;
  fail_once.nth = 1;
  fail_once.max_fires = 1;
  fault::FaultInjector::Global().Arm("server.query.compute", fail_once);

  constexpr int kClients = 6;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&service, &responses, t] {
      responses[t] = service.HandleRequest(kRequest);
    });
  }
  for (auto& thread : threads) thread.join();

  int ok_count = 0;
  int error_count = 0;
  for (const auto& wire : responses) {
    auto parsed = json::Parse(wire);
    ASSERT_TRUE(parsed.ok()) << wire;
    if (parsed->GetBool("ok", false)) {
      ++ok_count;
    } else {
      ++error_count;
      EXPECT_EQ(parsed->Find("error")->GetString("code", ""), "Internal")
          << wire;
    }
  }
  EXPECT_EQ(error_count, 1) << "only the failed leader sees the error";
  EXPECT_EQ(ok_count, kClients - 1);
  // One failed computation + one successful recompute by the promoted
  // waiter — never one per waiter.
  EXPECT_EQ(PointHits("server.query.compute"), 2u);

  Value stats = Roundtrip(service, R"({"id":9,"verb":"stats"})");
  const Value* cache = stats.Find("result")->Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->GetNumber("failovers", -1), 1.0);
  EXPECT_EQ(cache->GetNumber("inflight", -1), 0.0);
}

TEST_F(CoalescingTest, DistinctRequestsAreNotCoalesced) {
  Service service;
  LoadDataset(service);
  fault::FaultSpec slow;
  slow.kind = fault::FaultKind::kDelay;
  slow.delay_ms = 50;
  fault::FaultInjector::Global().Arm("server.query.compute", slow);

  // Two requests differing in params must both compute.
  std::thread a([&service] {
    const std::string wire = service.HandleRequest(kRequest);
    auto parsed = json::Parse(wire);
    ASSERT_TRUE(parsed.ok() && parsed->GetBool("ok", false)) << wire;
  });
  std::thread b([&service] {
    const std::string wire = service.HandleRequest(
        R"({"id":2,"verb":"motifs","dataset":"d",)"
        R"("params":{"lmin":64,"lmax":66,"k":2}})");
    auto parsed = json::Parse(wire);
    ASSERT_TRUE(parsed.ok() && parsed->GetBool("ok", false)) << wire;
  });
  a.join();
  b.join();
  EXPECT_EQ(PointHits("server.query.compute"), 2u);
}

}  // namespace
}  // namespace valmod::service
