#ifndef VALMOD_SIMD_DISPATCH_H_
#define VALMOD_SIMD_DISPATCH_H_

// Runtime SIMD dispatch for the hot kernels.
//
// The dense numeric sweeps — FFT butterflies, spectrum products, direct
// sliding dots, the moving mean/std sweep, the diagonal tile of the O(n^2)
// profile scans and the re-seed of VALMOD's recomputed rows — are
// implemented once per instruction set in per-ISA translation units
// (kernels_scalar.cc, kernels_avx2.cc, kernels_neon.cc), each compiled with
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
// `VALMOD_SIMD=scalar|avx2|neon` environment variable (read at first
// use; invalid or unsupported values warn once and fall back to
// auto-detection), then an explicit SetTarget() call (the `--simd` flag in
// valmod_cli / valmod_server, and tests).

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace valmod::simd {

enum class Target {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

/// Receives the partial-profile candidates a diagonal tile admits. The simd
/// layer knows only this array-and-callback contract; the caller (VALMOD's
/// seeding scan) owns the storage behind it.
struct OfferSink {
  /// Per-row admission gate: the candidate (row, match) reaches `offer`
  /// only when its base LB is <= admit[row]. The owner keeps it at +inf
  /// while a row can still grow, at the current worst stored base LB once
  /// it is full, and at -inf for rows that take no candidates. `offer` may
  /// change admit[] — tiles re-read it after every offer — but only ever
  /// lowers it during a walk: the diagonal tile's row gates
  /// (DiagonalTile::gate) rely on that.
  const double* admit;
  void (*offer)(void* context, std::size_t row, std::int64_t match,
                double dot, double base_lb);
  void* context;
};

/// Per-window arrays of one side of a diagonal walk (all indexed by window
/// offset): the globally centered series, centered window means, standard
/// deviations and the constant-window flags.
struct WindowArrays {
  const double* values = nullptr;
  const double* means = nullptr;
  const double* stds = nullptr;
  const char* is_const = nullptr;
  std::size_t count = 0;  // windows
};

/// Lanes of one diagonal tile: one 256-bit vector of doubles.
inline constexpr std::size_t kDiagonalLanes = 4;

/// One tile of the O(n^2) self-join scans (mp/diagonal.h): `lanes` adjacent
/// diagonals first_diagonal + k, k < lanes, walked in lockstep from row 0.
/// Lane k visits the cells (i, j = i + first_diagonal + k) while window j
/// exists, carrying the dot product QT(i, j) by the recurrence
///
///   QT(i, j) = QT(i-1, j-1) + values[i+l-1] * values[j+l-1]
///                           - values[i-1] * values[j-1]
///
/// from `initial_dots[k]` = QT(0, first_diagonal + k). Each cell's distance
/// (series::PairDistanceFromDot conventions) updates the minimum of i, then
/// that of j, under MatchPrecedes (common/match_order.h), and, with a sink,
/// offers the pair's base LB (core::BaseLowerBound) to rows i and j through
/// the admission gate. Every target computes every cell with the scalar
/// operation order, so results are bit-identical.
///
/// A cell of two non-constant windows is first compared, by its
/// correlation rho alone, with the gates of its two rows: when rho is below
/// both it can change neither minimum nor pass either admission gate, and
/// the tile moves on without computing its distance or base LB.
struct DiagonalTile {
  WindowArrays windows;
  std::size_t length;
  std::size_t first_diagonal;
  std::size_t lanes;  // 1..kDiagonalLanes
  const double* initial_dots;
  /// Minima of the windows, updated in place. They only fall during a walk.
  double* dist;
  std::int64_t* idx;
  /// Partial-profile seeding; null for a plain profile.
  const OfferSink* sink;
  /// Per-row correlation gates, windows.count entries, kept by the tile: no
  /// cell whose correlation is at or below gate[r] can change row r's
  /// merged result, the minimum and the partial profile that the walk's
  /// caller merges from all its workers. The caller fills gate[r] with
  /// DiagonalGate(dist[r], admit[r], length) (admit -inf without a sink)
  /// before a worker's first tile and keeps the array between that
  /// worker's tiles; between tiles it may raise gate[r] to another worker's
  /// gate. A tile raises gate[r] to DiagonalGate(...) whenever it changes
  /// dist[r] or an offer changes admit[r], keeping the larger of the two.
  /// Every worker's gate rejects only a distance strictly above that
  /// worker's minimum, or a base LB strictly above the p-th base LB its
  /// sink stores, so any cell it rejects is beaten by a minimum or by p
  /// entries that the merge keeps; ties still reach MatchPrecedes and the
  /// offer. Since dist and admit only fall, a gate that lags behind them is
  /// looser, never wrong.
  double* gate;
};

/// The gate of one row of a diagonal walk: a correlation at or below which
/// no cell of non-constant windows can change the row's minimum `dist` (its
/// distance <= dist, so exact ties still reach MatchPrecedes) or pass its
/// admission gate `admit` (its base LB <= admit). The distance and the base
/// LB are the tile's own scalar formulas, both non-increasing in the
/// correlation; the gate starts from their closed-form inverses and is
/// verified with the formulas themselves, so it needs no slack and sits
/// within about 2^-44 below the smallest correlation that can change the
/// row. -inf when every cell can (an open row, a row with no minimum yet);
/// a closed row (admit -inf) gates on its minimum alone.
double DiagonalGate(double dist, double admit, std::size_t length);

/// What a row re-seed reuses from one row to the next: the row's base LBs
/// and the offer order of its blocks. The kernel sizes it; each thread that
/// re-seeds rows keeps its own, so the hot loop allocates nothing.
struct RowReseedScratch {
  std::vector<double> base_lbs;
  std::vector<std::pair<double, std::size_t>> blocks;
};

/// One exact row of a self-join, re-seeded from its dot products (VALMOD's
/// recomputed rows): window `row` against every window j of `windows`
/// outside the exclusion zone |j - row| < exclusion. Each cell's distance
/// and correlation come from the diagonal tile's cell math, so the row
/// minimum (MatchPrecedes) and the base LBs are the bits a diagonal walk
/// over the same dot products produces. A first pass updates the minimum
/// and stores every base LB; an offer pass then sends (row, j) candidates
/// through the sink's gate, best blocks of cells first. The candidates
/// offered depend on the gate the sink keeps, but a sink that keeps a total
/// order of the best (as core::PartialProfileSet does) ends with the same
/// set on every target.
struct RowReseed {
  WindowArrays windows;
  std::size_t length;
  std::size_t row;
  std::size_t exclusion;  // >= 1
  const double* dots;     // windows.count dot products QT(row, j)
  /// The row minimum, updated in place (+inf / -1 for a fresh row).
  double* min_dist;
  std::int64_t* min_idx;
  /// Never null; not shared with a concurrent re-seed.
  RowReseedScratch* scratch;
  /// Receives (row, j) candidates only; never null.
  const OfferSink* sink;
};

/// The hot-kernel table. One instance per compiled-in target; all entries
/// are always non-null.
struct Kernels {
  /// Span-2 butterfly pass (unit twiddles) over n complex values stored as
  /// 2*n interleaved doubles. Requires n even.
  void (*radix2_pass)(double* d, std::size_t n);

  /// Fused radix-2^2 decimation-in-time pass of the inverse transform: spans
  /// `len` and `2*len` of an n-point transform over interleaved doubles,
  /// with the conjugates of the twiddle table `tw` (interleaved re/im, n/2
  /// forward twiddles).
  void (*fused_radix4_dit)(double* d, std::size_t n, std::size_t len,
                           const double* tw);

  /// Mirror decimation-in-frequency pass of the forward transform, with the
  /// twiddles of `tw` as they are (applied after the butterfly).
  void (*fused_radix4_dif)(double* d, std::size_t n, std::size_t len,
                           const double* tw);

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

  /// Walks one diagonal tile (see DiagonalTile). Vector targets run the
  /// lanes in one register and drop to the scalar cell body for the lanes
  /// that pass a row gate, constant windows and the ragged tail rows.
  void (*diagonal_tile)(const DiagonalTile& tile);

  /// Re-seeds one row (see RowReseed). Vector targets evaluate four cells
  /// per register in the first pass and drop to the scalar cell body as the
  /// tile does; the offer pass is scalar on every target.
  void (*reseed_row)(const RowReseed& row);
};

/// Name for a target: "scalar", "avx2", "neon".
const char* TargetName(Target target);

/// Parses a target name (the values accepted by VALMOD_SIMD and --simd).
Result<Target> ParseTarget(std::string_view name);

/// True when the target's kernels were compiled into this binary.
bool TargetCompiled(Target target);

/// True when the target is compiled in AND the running CPU supports it.
bool TargetSupported(Target target);

/// All supported targets, best-first (e.g. {avx2, scalar}).
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

inline constexpr int kNumTargets = 3;
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
