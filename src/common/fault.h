#ifndef VALMOD_COMMON_FAULT_H_
#define VALMOD_COMMON_FAULT_H_

// Fault-injection framework for chaos testing the serving stack.
//
// Production code declares *fault points* — named places where a failure
// could plausibly happen — with the VALMOD_FAULT_POINT macro:
//
//   VALMOD_RETURN_IF_ERROR(VALMOD_FAULT_POINT("registry.load.alloc"));
//
// A disarmed fault point costs one relaxed atomic load (the global armed
// counter), so points stay in release builds by default. Tests, the
// VALMOD_FAULTS environment variable, or the server's `faults` verb arm a
// point with a FaultSpec describing *when* it fires (every hit, the Nth
// hit, or with probability p under a deterministic seed) and *what* it does
// (return an error Status, sleep, or simulate an allocation failure).
//
// Directive syntax (env var and `faults` verb):
//
//   point=kind[:key=value]*  joined by ';'
//
//   kinds: error | delay | alloc | off
//   keys:  code=<StatusCodeName>  nth=<1-based hit>  p=<probability>
//          seed=<u64>  max_fires=<count, 0=unlimited>  delay_ms=<ms>
//
//   VALMOD_FAULTS='registry.load.alloc=alloc:nth=1;server.write=error:p=0.5:seed=7'
//
// Probability decisions are a pure hash of (seed, hit index) — rerunning a
// chaos test with the same seed replays the exact same fire pattern.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace valmod::fault {

enum class FaultKind {
  kError,      // return spec.code / spec.message from the fault point
  kDelay,      // sleep delay_ms, then continue (point returns Ok)
  kAllocFail,  // return kResourceExhausted, phrased as an allocation failure
};

/// What an armed fault point does and when it triggers. Trigger gates
/// compose: a hit fires only if it passes the nth gate AND the probability
/// gate AND the max_fires budget.
struct FaultSpec {
  FaultKind kind = FaultKind::kError;
  /// For kError: the status code to return.
  StatusCode code = StatusCode::kUnavailable;
  /// For kError: the message; defaults to "injected fault at '<point>'".
  std::string message;
  /// Fire only on the nth hit (1-based). 0 = every hit passes this gate.
  std::uint64_t nth = 0;
  /// Fire with this probability per hit, decided by hashing (seed, hit).
  double probability = 1.0;
  std::uint64_t seed = 0;
  /// Stop firing after this many fires. 0 = unlimited.
  std::uint64_t max_fires = 0;
  /// For kDelay: how long to sleep.
  int delay_ms = 0;
};

/// Observed state of an armed fault point, for the `faults` verb and tests.
struct FaultPointInfo {
  std::string point;
  FaultSpec spec;
  std::uint64_t hits = 0;
  std::uint64_t fires = 0;
};

/// Registry of armed fault points. Thread-safe. Use Global() in production
/// code; tests may construct private instances.
class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Process-wide instance. On first use, arms any directives found in the
  /// VALMOD_FAULTS environment variable (malformed directives are ignored
  /// with a note on stderr — a chaos harness typo must not change server
  /// behavior silently, but must not take the process down either).
  static FaultInjector& Global();

  /// Arms (or re-arms, resetting counters) a fault point.
  void Arm(std::string_view point, FaultSpec spec);

  /// Parses and applies one or more `point=kind[:k=v]*` directives joined
  /// by ';'. Returns InvalidArgument naming the first bad directive.
  Status ArmFromString(std::string_view directives);

  /// Disarms one point. Returns false if it was not armed.
  bool Disarm(std::string_view point);
  void DisarmAll();

  /// Snapshot of every armed point with hit/fire counters.
  std::vector<FaultPointInfo> List() const;

  /// Number of currently armed points (relaxed; the fast-path gate).
  int armed_count() const {
    return armed_.load(std::memory_order_relaxed);
  }

  /// The hook production code calls through VALMOD_FAULT_POINT. Returns
  /// Ok() unless `point` is armed and its trigger gates pass.
  Status Check(std::string_view point);

 private:
  struct ArmedPoint {
    FaultSpec spec;
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
  };

  Status CheckSlow(std::string_view point);

  std::atomic<int> armed_{0};
  mutable std::mutex mutex_;
  std::map<std::string, ArmedPoint, std::less<>> points_;
};

}  // namespace valmod::fault

#define VALMOD_FAULT_POINT(point) \
  ::valmod::fault::FaultInjector::Global().Check(point)

#endif  // VALMOD_COMMON_FAULT_H_
