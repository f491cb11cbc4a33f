// Unit tests for the fault-injection framework: trigger gates (nth,
// probability, max_fires), deterministic replay under a fixed seed,
// directive parsing for the VALMOD_FAULTS / `faults`-verb grammar, and
// disarm semantics. All tests use private FaultInjector instances so they
// cannot interfere with the process-global registry (or each other).

#include "common/fault.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace valmod::fault {
namespace {

TEST(FaultInjectorTest, DisarmedPointReturnsOk) {
  FaultInjector injector;
  EXPECT_EQ(injector.armed_count(), 0);
  EXPECT_TRUE(injector.Check("anything.at.all").ok());
  EXPECT_TRUE(injector.List().empty());
}

TEST(FaultInjectorTest, ErrorFaultFiresEveryHitWithDefaults) {
  FaultInjector injector;
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.code = StatusCode::kUnavailable;
  injector.Arm("server.write", spec);
  EXPECT_EQ(injector.armed_count(), 1);

  for (int i = 0; i < 3; ++i) {
    const Status status = injector.Check("server.write");
    EXPECT_EQ(status.code(), StatusCode::kUnavailable);
    // The default message names the point — a chaos assertion can tell
    // injected failures from organic ones.
    EXPECT_NE(status.message().find("server.write"), std::string::npos);
  }
  // A different point is unaffected.
  EXPECT_TRUE(injector.Check("registry.load.alloc").ok());

  const std::vector<FaultPointInfo> info = injector.List();
  ASSERT_EQ(info.size(), 1u);
  EXPECT_EQ(info[0].point, "server.write");
  EXPECT_EQ(info[0].hits, 3u);
  EXPECT_EQ(info[0].fires, 3u);
}

TEST(FaultInjectorTest, NthGateFiresExactlyOnce) {
  FaultInjector injector;
  FaultSpec spec;
  spec.kind = FaultKind::kAllocFail;
  spec.nth = 3;
  injector.Arm("registry.load.alloc", spec);

  EXPECT_TRUE(injector.Check("registry.load.alloc").ok());   // hit 1
  EXPECT_TRUE(injector.Check("registry.load.alloc").ok());   // hit 2
  const Status third = injector.Check("registry.load.alloc");  // hit 3
  EXPECT_EQ(third.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(third.message().find("allocation"), std::string::npos);
  EXPECT_TRUE(injector.Check("registry.load.alloc").ok());   // hit 4
}

TEST(FaultInjectorTest, MaxFiresStopsAfterBudget) {
  FaultInjector injector;
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.max_fires = 2;
  injector.Arm("p", spec);

  EXPECT_FALSE(injector.Check("p").ok());
  EXPECT_FALSE(injector.Check("p").ok());
  // Budget exhausted: the point stays armed (hits keep counting) but no
  // longer fires.
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(injector.Check("p").ok());
  const std::vector<FaultPointInfo> info = injector.List();
  ASSERT_EQ(info.size(), 1u);
  EXPECT_EQ(info[0].fires, 2u);
  EXPECT_EQ(info[0].hits, 7u);
}

TEST(FaultInjectorTest, ProbabilityIsDeterministicPerSeed) {
  const auto fire_pattern = [](std::uint64_t seed) {
    FaultInjector injector;
    FaultSpec spec;
    spec.kind = FaultKind::kError;
    spec.probability = 0.5;
    spec.seed = seed;
    injector.Arm("p", spec);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(!injector.Check("p").ok());
    return fired;
  };

  const std::vector<bool> first = fire_pattern(42);
  // Same seed -> bit-identical replay (this is what makes chaos failures
  // reproducible).
  EXPECT_EQ(fire_pattern(42), first);
  // A different seed gives a different pattern.
  EXPECT_NE(fire_pattern(43), first);
  // p=0.5 over 64 hits: both outcomes must occur.
  int fires = 0;
  for (const bool f : first) fires += f ? 1 : 0;
  EXPECT_GT(fires, 0);
  EXPECT_LT(fires, 64);
}

TEST(FaultInjectorTest, ProbabilityEndpointsAreExact) {
  FaultInjector injector;
  FaultSpec never;
  never.probability = 0.0;
  injector.Arm("never", never);
  FaultSpec always;
  always.probability = 1.0;
  injector.Arm("always", always);
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(injector.Check("never").ok());
    EXPECT_FALSE(injector.Check("always").ok());
  }
}

TEST(FaultInjectorTest, DelayFaultSleepsThenContinues) {
  FaultInjector injector;
  FaultSpec spec;
  spec.kind = FaultKind::kDelay;
  spec.delay_ms = 30;
  injector.Arm("scheduler.worker.stall", spec);

  const auto start = std::chrono::steady_clock::now();
  const Status status = injector.Check("scheduler.worker.stall");
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_TRUE(status.ok());  // delay faults stall, they do not fail
  EXPECT_GE(elapsed.count(), 25);
}

TEST(FaultInjectorTest, ReArmingResetsCounters) {
  FaultInjector injector;
  FaultSpec spec;
  spec.nth = 1;
  injector.Arm("p", spec);
  EXPECT_FALSE(injector.Check("p").ok());
  EXPECT_TRUE(injector.Check("p").ok());  // nth=1 already consumed
  injector.Arm("p", spec);                // re-arm: counters restart
  EXPECT_EQ(injector.armed_count(), 1);
  EXPECT_FALSE(injector.Check("p").ok());
}

TEST(FaultInjectorTest, DisarmRestoresOkAndArmedCount) {
  FaultInjector injector;
  injector.Arm("a", FaultSpec());
  injector.Arm("b", FaultSpec());
  EXPECT_EQ(injector.armed_count(), 2);
  EXPECT_TRUE(injector.Disarm("a"));
  EXPECT_FALSE(injector.Disarm("a"));  // already gone
  EXPECT_EQ(injector.armed_count(), 1);
  EXPECT_TRUE(injector.Check("a").ok());
  EXPECT_FALSE(injector.Check("b").ok());
  injector.DisarmAll();
  EXPECT_EQ(injector.armed_count(), 0);
  EXPECT_TRUE(injector.Check("b").ok());
}

TEST(FaultInjectorTest, DirectiveStringArmsMultiplePoints) {
  FaultInjector injector;
  ASSERT_TRUE(injector
                  .ArmFromString(
                      "registry.load.alloc=alloc:nth=2;"
                      "server.write=error:code=IoError:max_fires=1;"
                      "scheduler.worker.stall=delay:delay_ms=5")
                  .ok());
  EXPECT_EQ(injector.armed_count(), 3);

  EXPECT_TRUE(injector.Check("registry.load.alloc").ok());
  EXPECT_EQ(injector.Check("registry.load.alloc").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(injector.Check("server.write").code(), StatusCode::kIoError);
  EXPECT_TRUE(injector.Check("server.write").ok());  // max_fires=1 spent
  EXPECT_TRUE(injector.Check("scheduler.worker.stall").ok());
}

TEST(FaultInjectorTest, OffDirectiveDisarmsInsideOneString) {
  FaultInjector injector;
  injector.Arm("p", FaultSpec());
  ASSERT_TRUE(injector.ArmFromString("p=off").ok());
  EXPECT_EQ(injector.armed_count(), 0);
  EXPECT_TRUE(injector.Check("p").ok());
}

TEST(FaultInjectorTest, MalformedDirectivesRejectAtomically) {
  FaultInjector injector;
  const std::vector<std::string> bad = {
      "noequals",                    // missing '='
      "p=explode",                   // unknown kind
      "p=error:code=NotACode",       // unknown status code
      "p=error:p=1.5",               // probability out of [0,1]
      "p=error:nth=abc",             // non-numeric
      "p=error:unknownkey=1",        // unknown key
      "good=error;bad=explode",      // second directive bad
  };
  for (const std::string& directives : bad) {
    const Status status = injector.ArmFromString(directives);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << directives;
    // All-or-nothing: nothing from a rejected string may have been armed.
    EXPECT_EQ(injector.armed_count(), 0) << directives;
  }
}

TEST(FaultInjectorTest, GlobalMacroRoundTrip) {
  // Exercise the real macro against the real global registry, restoring
  // state afterwards. Serial with respect to other tests in this binary
  // (gtest runs tests in one thread).
  FaultInjector& global = FaultInjector::Global();
  const int before = global.armed_count();
  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  global.Arm("fault_test.macro", spec);
  EXPECT_EQ(VALMOD_FAULT_POINT("fault_test.macro").code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(global.Disarm("fault_test.macro"));
  EXPECT_EQ(global.armed_count(), before);
}

}  // namespace
}  // namespace valmod::fault
