#ifndef VALMOD_MASS_BACKEND_H_
#define VALMOD_MASS_BACKEND_H_

#include <cstddef>

namespace valmod::mass {

/// Version label of the numerical results the library produces. Backends
/// are numerically equivalent to ~1e-9 relative but not bit-identical, so
/// *which* backend the cost model picks determines the exact ulps of every
/// downstream motif distance — and so does whether a VALMOD row minimum
/// comes from a running dot product or from a MASS recompute. There is one
/// selection policy (`ChooseConvolutionBackend`) and one recompute policy
/// (core/valmod.cc); whenever either changes, this label is bumped and the
/// golden outputs under tests/goldens/ are regenerated in place. It is
/// output-only: reported in responses, CLI headers and build info, never
/// selectable.
///
/// v2 is the static backend-aware cost model below — every backend is
/// priced by the work its kernel actually does. v3 keeps it and lets a
/// partial-profile row that fails certification grow its capacity, so rows
/// certify from running dot products where v2 recomputed them with MASS.
/// v4 deletes the half-spectrum single-query FFT path: a single row and the
/// odd tail row of a batch now run the pair-packed full-size transform with
/// an empty second lane, which rounds differently. v5 (current) derives most
/// recomputed rows from a cached nearby row by the STOMP recurrences instead
/// of MASS, and takes a re-seeded row's base LBs straight from the
/// correlation rather than back from the distance; both move the last ulps.
inline constexpr int kResultsVersion = 5;

/// How a MASS engine turns queries into sliding dot products. The backends
/// are numerically equivalent (every one computes the same dot products to
/// ~1e-9 relative) but differ in evaluation order, so results are not
/// bit-identical across backends; within one backend, results depend only on
/// the inputs and — for the batched entry point — the row order, never on
/// the thread count.
enum class ConvolutionBackend {
  /// Cost-model selection (see ChooseConvolutionBackend). The default
  /// everywhere; forcing a specific backend exists for tests and benches.
  kAuto,
  /// O(count * length) direct multiply-adds. Wins for short windows.
  kDirect,
  /// Full-size pair-packed FFT: two queries ride the real/imaginary lanes
  /// of one complex transform, so a pair of rows costs one forward + one
  /// inverse. Batched calls pack rows pairwise; a single row (or the odd
  /// tail row of a batch) runs the same pipeline with an empty second
  /// lane.
  kFftPair,
  /// Overlap-save: chunked FFTs of ~4x the query length against per-chunk
  /// series spectra cached in the engine. Cuts the per-row flop count from
  /// O(n log n) to O(n log m) and keeps the transform working set cache
  /// resident; batched calls pair-pack the chunk pipeline too.
  kOverlapSave,
};

/// Human-readable backend name for logs / bench JSON.
const char* ConvolutionBackendName(ConvolutionBackend backend);

/// Per-backend cost weights, in units of one direct multiply-add (so
/// `direct` is 1.0 by construction). A backend's predicted per-row cost is
/// its kernel's dominant operation count scaled by these weights — see the
/// cost functions below for the exact formulas. The static defaults were
/// fitted offline from the boundary sweep in bench_mass_engine (the
/// `boundary_sweep` rows of BENCH_engine.json hold the measurements the fit
/// is audited against). They are the only weights the library prices with,
/// so which backend kAuto picks never depends on the machine or on timing.
struct BackendCostModel {
  /// Cost of one direct sliding-dot multiply-add. The unit of the model.
  double direct = 1.0;
  /// Cost per butterfly unit (`F * log2(F)`, F the padded full transform
  /// size) of an unpaired full-size row: one pair-packed forward + product
  /// + inverse that carries a single query. Butterfly weights land well
  /// above 1 because the direct path is a dense auto-vectorized FMA loop
  /// while a butterfly pass is strided and latency-bound.
  double fft_single = 5.5;
  /// Per-row cost per butterfly unit of the pair-packed full-size path (two
  /// rows share one forward + product + inverse).
  double fft_pair = 4.0;
  /// Cost per butterfly unit (`C * log2(C)`, C the overlap-save chunk size)
  /// per chunk-size transform of the overlap-save pipeline.
  double overlap_save = 4.0;
  /// Cost per chunk point of the per-chunk pointwise product + unload sweep
  /// (the O(C) work between the cached chunk spectrum and the output dots).
  double overlap_save_chunk = 2.0;
};

/// Predicted cost of one row of sliding dot products, per backend family.
/// `count = series_size - length + 1` rows of `length`-point dots. The
/// `pair` flavors price a row inside a pair-packed batch (two rows per
/// transform); the overlap-save formula amortizes the filter transform and
/// the per-chunk inverse over `hop = C/2` outputs per chunk and assumes the
/// chunk spectra themselves are cached by the engine (they are built once
/// per (series, chunk size) and reused by every row).
double DirectSlidingDotsCost(const BackendCostModel& model, std::size_t length,
                             std::size_t count);
double FftSlidingDotsCost(const BackendCostModel& model,
                          std::size_t series_size, std::size_t length,
                          bool pair);
double OverlapSaveSlidingDotsCost(const BackendCostModel& model,
                                  std::size_t length, std::size_t count,
                                  bool pair);

/// Resolves kAuto for one row profile: a pure function of its arguments that
/// picks the backend with the smallest predicted cost under `model` (the
/// static fit; tests pass other weights to steer the choice). With `batched`
/// set the FFT family is priced pair-packed — two rows per transform, as the
/// batched entry point executes it; otherwise the unpaired flavors compete.
/// A full-FFT winner is kFftPair either way. Overlap-save is excluded when
/// its chunk would not be smaller than the full transform (chunking
/// degenerates to one full-size block plus overhead). Never returns kAuto.
ConvolutionBackend ChooseConvolutionBackend(
    std::size_t series_size, std::size_t length, std::size_t count,
    bool batched = false, const BackendCostModel& model = BackendCostModel{});

}  // namespace valmod::mass

#endif  // VALMOD_MASS_BACKEND_H_
