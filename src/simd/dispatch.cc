#include "simd/dispatch.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "simd/kernels.h"

namespace valmod::simd {
namespace {

#if defined(__x86_64__) || defined(_M_X64)
constexpr bool kIsX86 = true;
#else
constexpr bool kIsX86 = false;
#endif

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const Kernels* KernelsFor(Target target) {
  switch (target) {
    case Target::kScalar:
      return &ScalarKernels();
    case Target::kAvx2:
#if defined(VALMOD_SIMD_HAVE_AVX2)
      return &Avx2Kernels();
#else
      return nullptr;
#endif
    case Target::kNeon:
#if defined(VALMOD_SIMD_HAVE_NEON)
      return &NeonKernels();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

struct Dispatch {
  std::atomic<const Kernels*> kernels{nullptr};
  std::atomic<Target> target{Target::kScalar};
};

Dispatch& State() {
  static Dispatch* dispatch = new Dispatch();
  return *dispatch;
}

Target DetectBestTarget() {
  if (TargetSupported(Target::kAvx2)) return Target::kAvx2;
  if (TargetSupported(Target::kNeon)) return Target::kNeon;
  return Target::kScalar;
}

/// Resolves the startup target: auto-detection, overridden by VALMOD_SIMD
/// when it names a usable target. An unknown or unsupported value warns
/// once on stderr and keeps the auto-detected choice — a bad ops-side env
/// var must not crash (or silently slow down) a serving binary with SIGILL.
Target ResolveStartupTarget() {
  Target target = DetectBestTarget();
  const char* env = std::getenv("VALMOD_SIMD");
  if (env != nullptr && env[0] != '\0') {
    Result<Target> parsed = ParseTarget(env);
    if (!parsed.ok()) {
      std::fprintf(stderr,
                   "valmod: ignoring unknown VALMOD_SIMD=%s "
                   "(want scalar|avx2|neon); using %s\n",
                   env, TargetName(target));
    } else if (!TargetSupported(*parsed)) {
      std::fprintf(stderr,
                   "valmod: VALMOD_SIMD=%s not supported on this "
                   "machine/build; using %s\n",
                   env, TargetName(target));
    } else {
      target = *parsed;
    }
  }
  return target;
}

const Kernels& ResolveAndStore() {
  Dispatch& state = State();
  const Target target = ResolveStartupTarget();
  const Kernels* table = KernelsFor(target);
  // Both stores may race with a concurrent first call; all racers compute
  // the same values, so last-writer-wins is benign.
  state.target.store(target, std::memory_order_relaxed);
  state.kernels.store(table, std::memory_order_release);
  return *table;
}

}  // namespace

const char* TargetName(Target target) {
  switch (target) {
    case Target::kScalar:
      return "scalar";
    case Target::kAvx2:
      return "avx2";
    case Target::kNeon:
      return "neon";
  }
  return "unknown";
}

Result<Target> ParseTarget(std::string_view name) {
  if (name == "scalar") return Target::kScalar;
  if (name == "avx2") return Target::kAvx2;
  if (name == "neon") return Target::kNeon;
  return Status::InvalidArgument(
      "unknown SIMD target '" + std::string(name) +
      "' (want scalar|avx2|neon)");
}

bool TargetCompiled(Target target) { return KernelsFor(target) != nullptr; }

bool TargetSupported(Target target) {
  if (!TargetCompiled(target)) return false;
  switch (target) {
    case Target::kScalar:
      return true;
    case Target::kAvx2:
      return CpuHasAvx2();
    case Target::kNeon:
      return !kIsX86;  // compiled in only on aarch64, where ASIMD is baseline
  }
  return false;
}

std::vector<Target> SupportedTargets() {
  std::vector<Target> targets;
  for (Target t : {Target::kAvx2, Target::kNeon, Target::kScalar}) {
    if (TargetSupported(t)) targets.push_back(t);
  }
  return targets;
}

const Kernels& ActiveKernels() {
  const Kernels* table = State().kernels.load(std::memory_order_acquire);
  if (table != nullptr) return *table;
  return ResolveAndStore();
}

Target ActiveTarget() {
  ActiveKernels();  // force startup resolution
  return State().target.load(std::memory_order_relaxed);
}

Status SetTarget(Target target) {
  if (!TargetCompiled(target)) {
    return Status::InvalidArgument(std::string("SIMD target '") +
                                   TargetName(target) +
                                   "' is not compiled into this binary");
  }
  if (!TargetSupported(target)) {
    return Status::InvalidArgument(std::string("SIMD target '") +
                                   TargetName(target) +
                                   "' is not supported by this CPU");
  }
  Dispatch& state = State();
  state.target.store(target, std::memory_order_relaxed);
  state.kernels.store(KernelsFor(target), std::memory_order_release);
  return Status::Ok();
}

namespace {

std::atomic<std::uint64_t> g_kernel_calls[kNumTargets][kNumKernelKinds];

}  // namespace

const char* KernelKindName(KernelKind kind) {
  switch (kind) {
    case KernelKind::kRadix2Pass:
      return "radix2_pass";
    case KernelKind::kFusedRadix4Dit:
      return "fused_radix4_dit";
    case KernelKind::kFusedRadix4Dif:
      return "fused_radix4_dif";
    case KernelKind::kComplexMultiply:
      return "complex_multiply";
    case KernelKind::kDotProduct:
      return "dot_product";
    case KernelKind::kWindowStats:
      return "window_stats";
  }
  return "unknown";
}

void NoteKernelCalls(KernelKind kind, std::uint64_t calls) {
  if (calls == 0) return;
  // Reads the stored target directly (no ActiveTarget() round trip): the
  // caller just dispatched through the table, so resolution has happened.
  const int target =
      static_cast<int>(State().target.load(std::memory_order_relaxed));
  g_kernel_calls[target][static_cast<int>(kind)].fetch_add(
      calls, std::memory_order_relaxed);
}

KernelCounters KernelCountersSnapshot() {
  KernelCounters out;
  for (int t = 0; t < kNumTargets; ++t) {
    for (int k = 0; k < kNumKernelKinds; ++k) {
      out.calls[t][k] = g_kernel_calls[t][k].load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::string CpuFeatureString() {
  std::string features;
  const auto append = [&features](const char* name) {
    if (!features.empty()) features += ' ';
    features += name;
  };
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("sse4.2")) append("sse4.2");
  if (__builtin_cpu_supports("avx")) append("avx");
  if (__builtin_cpu_supports("avx2")) append("avx2");
  if (__builtin_cpu_supports("fma")) append("fma");
  if (__builtin_cpu_supports("avx512f")) append("avx512f");
  if (__builtin_cpu_supports("avx512dq")) append("avx512dq");
  if (__builtin_cpu_supports("avx512bw")) append("avx512bw");
  if (__builtin_cpu_supports("avx512vl")) append("avx512vl");
#elif defined(__aarch64__)
  append("asimd");
#endif
  if (features.empty()) features = "generic";
  return features;
}

}  // namespace valmod::simd
