#ifndef VALMOD_SIMD_DISPATCH_H_
#define VALMOD_SIMD_DISPATCH_H_

// Runtime SIMD dispatch for the MASS hot kernels.
//
// The engine's dense numeric sweeps — FFT butterflies, spectrum products,
// direct sliding dots, and the moving mean/std sweep — are implemented once
// per instruction set in per-ISA translation units (kernels_scalar.cc,
// kernels_avx2.cc, kernels_avx512.cc, kernels_neon.cc), each compiled with
// per-file arch flags so the rest of the binary stays generic-arch. The
// best target the CPU supports is detected once at startup (cpuid on x86,
// baseline ASIMD on aarch64) and resolved to a table of function pointers;
// every hot loop reads the table through one atomic pointer load.
//
// Every vector kernel is written to be BIT-IDENTICAL to the scalar oracle:
// no FMA contraction, the same per-element operation order, and the exact
// four-accumulator reduction pattern for dot products on every width. This
// keeps golden results byte-stable across `VALMOD_SIMD` targets, so
// switching targets never needs a kResultsVersion bump.
//
// Override order (strongest last): cpuid auto-detection, then the
// `VALMOD_SIMD=scalar|avx2|avx512|neon` environment variable (read at first
// use; invalid or unsupported values warn once and fall back to
// auto-detection), then an explicit SetTarget() call (the `--simd` flag in
// valmod_cli / valmod_server, and tests).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace valmod::simd {

enum class Target {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
  kNeon = 3,
};

/// The hot-kernel table. One instance per compiled-in target; all entries
/// are always non-null.
struct Kernels {
  /// Span-2 butterfly pass (unit twiddles) over n complex values stored as
  /// 2*n interleaved doubles. Requires n even.
  void (*radix2_pass)(double* d, std::size_t n);

  /// Fused radix-2^2 decimation-in-time pass: spans `len` and `2*len` of an
  /// n-point transform over interleaved doubles, twiddle table `tw`
  /// (interleaved re/im, n/2 entries), sign = +1 forward / -1 inverse.
  void (*fused_radix4_dit)(double* d, std::size_t n, std::size_t len,
                           const double* tw, double sign);

  /// Mirror decimation-in-frequency pass (twiddles applied after the
  /// butterfly). Same contract as fused_radix4_dit.
  void (*fused_radix4_dif)(double* d, std::size_t n, std::size_t len,
                           const double* tw, double sign);

  /// Elementwise complex product out[k] = a[k] * b[k] over n bins of
  /// interleaved (re, im) doubles. `out` may alias `a` or `b`. Matches the
  /// libstdc++ std::complex<double> finite-math product bit-for-bit:
  /// re = ar*br - ai*bi, im = ar*bi + ai*br.
  void (*complex_multiply)(const double* a, const double* b, double* out,
                           std::size_t n);

  /// Dot product with the engine's canonical four-accumulator reduction:
  /// lane j accumulates elements j, j+4, j+8, ...; the tail goes into lane
  /// 0; the final sum is (acc0 + acc1) + (acc2 + acc3). Every target
  /// preserves this exact grouping so results are bit-identical.
  double (*dot_product)(const double* a, const double* b, std::size_t n);

  /// Moving mean/std sweep over `count` windows of `length` >= 2 samples,
  /// from prefix sums: means[i] = (prefix[i+length] - prefix[i]) / length
  /// + global_mean; std_devs[i] = sqrt(max(mean_sq - cm*cm, 0)) with the
  /// variance terms scaled by 1.0/length (multiplication, matching
  /// stats::MovingStats::Variance exactly).
  void (*window_stats)(const double* prefix, const double* prefix_sq,
                       std::size_t count, std::size_t length,
                       double global_mean, double* means, double* std_devs);
};

/// Name for a target: "scalar", "avx2", "avx512", "neon".
const char* TargetName(Target target);

/// Parses a target name (the values accepted by VALMOD_SIMD and --simd).
Result<Target> ParseTarget(std::string_view name);

/// True when the target's kernels were compiled into this binary.
bool TargetCompiled(Target target);

/// True when the target is compiled in AND the running CPU supports it.
bool TargetSupported(Target target);

/// All supported targets, best-first (e.g. {avx512, avx2, scalar}).
std::vector<Target> SupportedTargets();

/// The active kernel table. First call resolves the startup target
/// (auto-detect, then the VALMOD_SIMD override); later calls are one atomic
/// load. Safe to call concurrently.
const Kernels& ActiveKernels();

/// The target ActiveKernels() currently resolves to.
Target ActiveTarget();

/// Forces the dispatch target (--simd flag, tests). Fails with
/// InvalidArgument if the target is not compiled in or not supported by
/// this CPU. Thread-safe; takes effect for subsequent ActiveKernels() calls.
Status SetTarget(Target target);

/// Human-readable list of detected CPU features ("avx2 fma avx512f ...").
std::string CpuFeatureString();

// ---------------------------------------------------------------------------
// Dispatch telemetry: kernel invocations per (target, kernel) pair.
//
// Counting every kernel call individually would put an atomic increment
// inside loops that currently run at memory bandwidth, so the convention is
// batched accounting at the *sweep* level: each hot-path call site issues
// one NoteKernelCalls per dispatched sweep (a whole butterfly schedule, a
// whole spectrum product, a whole row of direct dots), passing how many
// kernel invocations the sweep performed. One relaxed fetch_add per sweep
// is unmeasurable; the totals still attribute work to the ISA that did it.
// ---------------------------------------------------------------------------

enum class KernelKind {
  kRadix2Pass = 0,
  kFusedRadix4Dit = 1,
  kFusedRadix4Dif = 2,
  kComplexMultiply = 3,
  kDotProduct = 4,
  kWindowStats = 5,
};

inline constexpr int kNumTargets = 4;
inline constexpr int kNumKernelKinds = 6;

/// Metric-label spelling: "radix2_pass", "complex_multiply", ...
const char* KernelKindName(KernelKind kind);

/// Adds `calls` invocations of `kind` to the active target's counter.
/// Relaxed atomics; safe from any thread.
void NoteKernelCalls(KernelKind kind, std::uint64_t calls);

/// Point-in-time copy of every (target, kind) counter, indexed
/// [static_cast<int>(Target)][static_cast<int>(KernelKind)].
struct KernelCounters {
  std::uint64_t calls[kNumTargets][kNumKernelKinds] = {};
};
KernelCounters KernelCountersSnapshot();

}  // namespace valmod::simd

#endif  // VALMOD_SIMD_DISPATCH_H_
