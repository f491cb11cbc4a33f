#ifndef VALMOD_MASS_ENGINE_H_
#define VALMOD_MASS_ENGINE_H_

#include <complex>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "fft/plan.h"
#include "mass/backend.h"
#include "mass/mass.h"
#include "series/data_series.h"

namespace valmod::mass {

/// A MASS engine bound to one series: amortizes everything that does not
/// depend on the query across calls.
///
/// The engine is the single place the library computes sliding dot
/// products (MASS, Mueen's Algorithm for Similarity Search), behind a
/// `ConvolutionBackend` selection (see mass/backend.h):
///
///  - kDirect: O(count * length) multiply-adds; short windows.
///  - kFftPair: queries ride the lanes of one full-size complex transform
///    against the cached bit-reversed series spectrum (the spectrum, the
///    `FftPlan` tables, and the scratch buffers are all reused across
///    calls). The batched form packs rows two at a time, so a pair of rows
///    costs one forward and one inverse transform plus one pointwise
///    product; a single row leaves the second lane empty.
///  - kOverlapSave: the series is pre-transformed in overlapping chunks of
///    ~4x the query length (cached per chunk size, ~32 bytes per series
///    point), and each row runs one small filter transform plus one cached
///    chunk product + small inverse per chunk. This replaces the full-size
///    transform's n*log(n) per-row work with n*log(m), with every transform
///    cache resident; pairs of rows share the chunk pipeline the same way
///    the full-size pair path does.
///
/// Self-join rows come back as dots: VALMOD re-seeds a recomputed row from
/// them and never reads a distance row, and the callers that do want
/// distances derive them with `DistancesFromDots` (mass/mass.h).
///
/// `ConvolutionBackend::kAuto` (the default everywhere) applies the static
/// cost model in `ChooseConvolutionBackend` — batched calls are priced
/// pair-packed, exactly as they execute; forcing a specific backend through
/// the per-call `backend` argument exists for tests and benches. Backends
/// agree to ~1e-9 relative, not bit-for-bit (the evaluation order differs);
/// within one backend, batched results depend only on the row order, never
/// on `num_threads`.
///
/// Thread-safety: all public methods are safe to call concurrently (the
/// VALMOD certification loop recomputes batches of rows in parallel). The
/// series must outlive the engine.
class MassEngine {
 public:
  explicit MassEngine(const series::DataSeries& series) : series_(series) {}

  MassEngine(const MassEngine&) = delete;
  MassEngine& operator=(const MassEngine&) = delete;

  const series::DataSeries& series() const { return series_; }

  /// Centered sliding dot products of the window at each offset in `rows`
  /// (at `length` points) against every window of the series, in input
  /// order: `dots[r][j] = sum_t centered[rows[r] + t] * centered[j + t]`.
  ///
  /// Under kAuto the backend is resolved once for the whole batch, with the
  /// FFT family priced pair-packed when the batch has more than one row. A
  /// 1-row batch is priced unpaired and runs the single-lane pipeline. In a
  /// longer batch adjacent rows share one transform, and an odd tail row
  /// stays in the batch's family with an empty second lane. The row pairing
  /// — and therefore the numeric result — depends only on the order of
  /// `rows`, never on `num_threads`, which only controls how the work fans
  /// out over the pool. A forced backend must still satisfy the window
  /// validation.
  Result<std::vector<std::vector<double>>> ComputeRowProfiles(
      std::span<const std::size_t> rows, std::size_t length,
      int num_threads = 1,
      ConvolutionBackend backend = ConvolutionBackend::kAuto);

  /// MASS against an external query: z-normalized distances of `query`
  /// against every window of the series of `query.size()` points, priced
  /// and run as a 1-row batch.
  Result<std::vector<double>> DistanceProfile(
      std::span<const double> query,
      ConvolutionBackend backend = ConvolutionBackend::kAuto);

  /// Approximate heap footprint of the engine's caches (spectra, chunk
  /// spectra, scratch free list), for the `stats` verb's per-dataset
  /// memory reporting.
  std::size_t CacheMemoryBytes();

 private:
  /// The forward spectrum of the series zero-padded to one FFT size, in
  /// the pair pipeline's full-size bit-reversed layout.
  struct SeriesSpectrum {
    std::shared_ptr<const fft::FftPlan> plan;
    std::vector<std::complex<double>> pair_bins;  // plan->size(), bit-rev
  };

  /// Overlap-save state for one chunk FFT size: the bit-reversed spectra of
  /// the centered series cut into chunks of `plan->size()` points starting
  /// every `hop = size / 2` points. Chunk starts depend only on the chunk
  /// size — never on the query length — so one cache entry serves every
  /// length that maps to this size. Memory: 2 * 16 bytes per series point,
  /// which is why the cache is bounded (kMaxChunkSpectraSizes entries, LRU)
  /// unlike the two-entry-in-practice full-size spectra: a wide length
  /// sweep crosses one chunk size per power-of-two band of lengths.
  struct ChunkSpectra {
    std::shared_ptr<const fft::FftPlan> plan;
    std::size_t hop = 0;
    std::vector<std::vector<std::complex<double>>> chunks;
    std::uint64_t last_used = 0;  // LRU stamp; guarded by mutex_
  };

  /// Reusable per-call transform buffers, recycled through a free list.
  struct Scratch {
    std::vector<double> reversed_query;
    // Full-size path: the packed spectrum (also holds both
    // convolutions after the in-place inverse — the dots are read straight
    // from its real/imaginary lanes) and the second reversed query.
    std::vector<std::complex<double>> pair_bins;
    std::vector<double> reversed_query_b;
    // Overlap-save path: the (persistent across chunks) packed filter
    // spectrum and the per-chunk product/inverse buffer.
    std::vector<std::complex<double>> ols_filter;
    std::vector<std::complex<double>> ols_work;
  };

  /// Spectrum for `fft_size`, built on first use. The returned reference is
  /// stable: spectra are heap-allocated and never evicted.
  const SeriesSpectrum& SpectrumFor(std::size_t fft_size);

  /// Overlap-save chunk spectra for `chunk_fft_size`, built on first use
  /// (one small transform per chunk — amortized across every row computed
  /// at this size). Returned as a shared handle: the cache evicts the
  /// least-recently-used size beyond kMaxChunkSpectraSizes, and the handle
  /// keeps an evicted entry alive for callers mid-computation.
  std::shared_ptr<const ChunkSpectra> ChunkSpectraFor(
      std::size_t chunk_fft_size);

  /// Evicts least-recently-used chunk-spectra entries beyond the cap.
  /// Caller holds mutex_.
  void TrimChunkSpectraLocked();

  std::unique_ptr<Scratch> AcquireScratch();
  void ReleaseScratch(std::unique_ptr<Scratch> scratch);

  /// The one place a resolved backend becomes sliding dots: `query_a`
  /// (and `query_b`, when non-empty, with the same length) against the whole
  /// centered series. `dots_b` may be null when `query_b` is empty. Counts
  /// the rows on the backend's engine counter. Fails only on kAuto.
  Status BackendDots(ConvolutionBackend backend,
                     std::span<const double> query_a,
                     std::span<const double> query_b,
                     std::vector<double>* dots_a,
                     std::vector<double>* dots_b);

  /// kFftPair: both queries ride the real and imaginary lanes of one
  /// full-size complex transform against the cached series spectrum, so a
  /// pair costs one forward + one inverse. Same lane contract as
  /// BackendDots.
  void CachedSlidingDotsPair(std::span<const double> query_a,
                             std::span<const double> query_b,
                             std::vector<double>* dots_a,
                             std::vector<double>* dots_b);

  /// kOverlapSave: both queries ride one chunk-size pair transform,
  /// multiplied against every cached chunk spectrum in turn. Same lane
  /// contract as BackendDots.
  void OverlapSaveDotsPair(std::span<const double> query_a,
                           std::span<const double> query_b,
                           std::vector<double>* dots_a,
                           std::vector<double>* dots_b);

  const series::DataSeries& series_;

  /// Most chunk-spectra sizes a single engine retains (a VALMOD length
  /// sweep touches one per power-of-two band of lengths, so two is
  /// typical; four gives headroom before the ~32 bytes/point entries of a
  /// wide pan-profile sweep start piling up).
  static constexpr std::size_t kMaxChunkSpectraSizes = 4;

  std::mutex mutex_;
  std::map<std::size_t, std::unique_ptr<SeriesSpectrum>> spectra_;
  std::map<std::size_t, std::shared_ptr<ChunkSpectra>> chunk_spectra_;
  std::uint64_t chunk_spectra_clock_ = 0;
  std::vector<std::unique_ptr<Scratch>> free_scratch_;

 public:
  /// Number of chunk-spectra sizes currently cached (for eviction tests).
  std::size_t ChunkSpectraCacheSizeForTesting();
};

/// Process-wide engine telemetry, summed over every MassEngine instance.
///
/// Counters are global rather than per-engine because engines are
/// per-snapshot and ephemeral — the serving stack rebuilds one per append
/// generation — while the `metrics` verb needs monotone process totals that
/// survive those rebuilds. All increments are relaxed atomics; a process
/// that never queries pays nothing beyond the idle counters themselves.
struct EngineCounters {
  // Full-size series-spectra cache (SpectrumFor).
  std::uint64_t series_spectra_hits = 0;
  std::uint64_t series_spectra_misses = 0;
  // Overlap-save chunk-spectra cache (ChunkSpectraFor).
  std::uint64_t chunk_spectra_hits = 0;
  std::uint64_t chunk_spectra_misses = 0;
  std::uint64_t chunk_spectra_evictions = 0;
  // Always 0: streaming snapshots no longer carry chunk spectra across
  // append generations. Kept only because the repository benchmark reads
  // it; the next change to that benchmark removes it.
  std::uint64_t chunk_spectra_adopted = 0;
  // Rows of sliding-dot work per executed backend (kAuto resolves
  // before counting, so every row lands on a concrete backend).
  std::uint64_t rows_direct = 0;
  // Always 0: the half-spectrum single-query backend is gone. Kept only
  // because the repository benchmark reads it; the next change to that
  // benchmark removes it.
  std::uint64_t rows_fft_single = 0;
  std::uint64_t rows_fft_pair = 0;
  std::uint64_t rows_overlap_save = 0;
};
EngineCounters EngineCountersSnapshot();

/// Adds `rows` to the counter for concrete backend `backend` (must not be
/// kAuto). Exposed for the engine internals; relaxed atomics.
void NoteEngineRows(ConvolutionBackend backend, std::uint64_t rows);

}  // namespace valmod::mass

#endif  // VALMOD_MASS_ENGINE_H_
