#include "mass/engine.h"

#include <atomic>
#include <string>
#include <utility>

#include "common/parallel.h"
#include "fft/fft.h"
#include "series/znorm.h"
#include "stats/moving_stats.h"

namespace valmod::mass {

namespace {

struct EngineCounterStorage {
  std::atomic<std::uint64_t> series_spectra_hits{0};
  std::atomic<std::uint64_t> series_spectra_misses{0};
  std::atomic<std::uint64_t> chunk_spectra_hits{0};
  std::atomic<std::uint64_t> chunk_spectra_misses{0};
  std::atomic<std::uint64_t> chunk_spectra_evictions{0};
  std::atomic<std::uint64_t> rows_direct{0};
  std::atomic<std::uint64_t> rows_fft_pair{0};
  std::atomic<std::uint64_t> rows_overlap_save{0};
};

EngineCounterStorage g_engine_counters;

void Bump(std::atomic<std::uint64_t>& counter, std::uint64_t by = 1) {
  counter.fetch_add(by, std::memory_order_relaxed);
}

}  // namespace

EngineCounters EngineCountersSnapshot() {
  const EngineCounterStorage& c = g_engine_counters;
  EngineCounters out;
  out.series_spectra_hits = c.series_spectra_hits.load(std::memory_order_relaxed);
  out.series_spectra_misses =
      c.series_spectra_misses.load(std::memory_order_relaxed);
  out.chunk_spectra_hits = c.chunk_spectra_hits.load(std::memory_order_relaxed);
  out.chunk_spectra_misses =
      c.chunk_spectra_misses.load(std::memory_order_relaxed);
  out.chunk_spectra_evictions =
      c.chunk_spectra_evictions.load(std::memory_order_relaxed);
  out.rows_direct = c.rows_direct.load(std::memory_order_relaxed);
  out.rows_fft_pair = c.rows_fft_pair.load(std::memory_order_relaxed);
  out.rows_overlap_save = c.rows_overlap_save.load(std::memory_order_relaxed);
  return out;
}

void NoteEngineRows(ConvolutionBackend backend, std::uint64_t rows) {
  if (rows == 0) return;
  switch (backend) {
    case ConvolutionBackend::kDirect:
      Bump(g_engine_counters.rows_direct, rows);
      return;
    case ConvolutionBackend::kFftPair:
      Bump(g_engine_counters.rows_fft_pair, rows);
      return;
    case ConvolutionBackend::kOverlapSave:
      Bump(g_engine_counters.rows_overlap_save, rows);
      return;
    case ConvolutionBackend::kAuto:
      // Callers count after resolution; an unresolved backend here is a
      // programming error, but telemetry must never crash the engine.
      return;
  }
}

const MassEngine::SeriesSpectrum& MassEngine::SpectrumFor(
    std::size_t fft_size) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = spectra_.find(fft_size);
  if (it == spectra_.end()) {
    Bump(g_engine_counters.series_spectra_misses);
    auto spectrum = std::make_unique<SeriesSpectrum>();
    spectrum->plan = fft::GetPlan(fft_size);
    spectrum->pair_bins.resize(fft_size);
    // RealForwardPair with an empty second lane is exactly "spectrum of one
    // real signal" in the pair pipeline's layout.
    spectrum->plan->RealForwardPair(series_.centered(), {},
                                    spectrum->pair_bins);
    it = spectra_.emplace(fft_size, std::move(spectrum)).first;
  } else {
    Bump(g_engine_counters.series_spectra_hits);
  }
  // References stay valid: spectra are heap-allocated, and map nodes are
  // never erased, so concurrent inserts cannot move this entry.
  return *it->second;
}

std::shared_ptr<const MassEngine::ChunkSpectra> MassEngine::ChunkSpectraFor(
    std::size_t chunk_fft_size) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = chunk_spectra_.find(chunk_fft_size);
  if (it == chunk_spectra_.end()) {
    Bump(g_engine_counters.chunk_spectra_misses);
    auto spectra = std::make_shared<ChunkSpectra>();
    spectra->plan = fft::GetPlan(chunk_fft_size);
    spectra->hop = chunk_fft_size / 2;
    const auto centered = series_.centered();
    const std::size_t n = centered.size();
    // Chunks start every `hop` points and read `chunk_fft_size` points
    // (zero-padded past the series end), so chunk c serves dot products at
    // offsets [c * hop, (c + 1) * hop) for any query length with
    // length - 1 <= hop — guaranteed by OverlapSaveFftSize >= 4 * length.
    const std::size_t num_chunks = (n + spectra->hop - 1) / spectra->hop;
    spectra->chunks.resize(num_chunks);
    for (std::size_t c = 0; c < num_chunks; ++c) {
      const std::size_t begin = c * spectra->hop;
      const std::size_t len = std::min(chunk_fft_size, n - begin);
      std::vector<std::complex<double>>& bins = spectra->chunks[c];
      bins.resize(chunk_fft_size);
      spectra->plan->RealForwardPair(centered.subspan(begin, len), {}, bins);
    }
    // Stamped before eviction so the entry being inserted is never its own
    // victim.
    spectra->last_used = ++chunk_spectra_clock_;
    std::shared_ptr<const ChunkSpectra> handle = spectra;
    chunk_spectra_.emplace(chunk_fft_size, std::move(spectra));
    TrimChunkSpectraLocked();
    return handle;
  }
  Bump(g_engine_counters.chunk_spectra_hits);
  it->second->last_used = ++chunk_spectra_clock_;
  return it->second;
}

void MassEngine::TrimChunkSpectraLocked() {
  // At ~32 bytes per series point per entry, stale sizes from a wide
  // length sweep are too big to keep forever: evict least-recently-used
  // beyond the cap. In-flight callers hold shared_ptrs, so eviction only
  // drops the cache's reference.
  while (chunk_spectra_.size() > kMaxChunkSpectraSizes) {
    auto victim = chunk_spectra_.begin();
    for (auto cand = chunk_spectra_.begin(); cand != chunk_spectra_.end();
         ++cand) {
      if (cand->second->last_used < victim->second->last_used) {
        victim = cand;
      }
    }
    chunk_spectra_.erase(victim);
    Bump(g_engine_counters.chunk_spectra_evictions);
  }
}

std::size_t MassEngine::CacheMemoryBytes() {
  std::lock_guard<std::mutex> lock(mutex_);
  constexpr std::size_t kComplexBytes = sizeof(std::complex<double>);
  std::size_t bytes = 0;
  for (const auto& entry : spectra_) {
    bytes += entry.second->pair_bins.capacity() * kComplexBytes;
  }
  for (const auto& entry : chunk_spectra_) {
    for (const auto& chunk : entry.second->chunks) {
      bytes += chunk.capacity() * kComplexBytes;
    }
  }
  for (const auto& scratch : free_scratch_) {
    bytes += scratch->reversed_query.capacity() * sizeof(double);
    bytes += scratch->pair_bins.capacity() * kComplexBytes;
    bytes += scratch->reversed_query_b.capacity() * sizeof(double);
    bytes += scratch->ols_filter.capacity() * kComplexBytes;
    bytes += scratch->ols_work.capacity() * kComplexBytes;
  }
  return bytes;
}

std::size_t MassEngine::ChunkSpectraCacheSizeForTesting() {
  std::lock_guard<std::mutex> lock(mutex_);
  return chunk_spectra_.size();
}

std::unique_ptr<MassEngine::Scratch> MassEngine::AcquireScratch() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!free_scratch_.empty()) {
      std::unique_ptr<Scratch> scratch = std::move(free_scratch_.back());
      free_scratch_.pop_back();
      return scratch;
    }
  }
  return std::make_unique<Scratch>();
}

void MassEngine::ReleaseScratch(std::unique_ptr<Scratch> scratch) {
  std::lock_guard<std::mutex> lock(mutex_);
  free_scratch_.push_back(std::move(scratch));
}

void MassEngine::CachedSlidingDotsPair(std::span<const double> query_a,
                                       std::span<const double> query_b,
                                       std::size_t length,
                                       std::vector<double>* dots_a,
                                       std::vector<double>* dots_b) {
  const auto centered = series_.centered();
  const std::size_t n = centered.size();
  const std::size_t m = length;
  const std::size_t out_size = n + m - 1;
  const std::size_t fft_size = fft::NextPowerOfTwo(out_size);
  const std::size_t count = n - m + 1;

  if (fft_size < 2) {  // single-point series and queries
    dots_a->assign(1, query_a[0] * centered[0]);
    if (query_b.empty()) {
      dots_b->clear();
    } else {
      dots_b->assign(1, query_b[0] * centered[0]);
    }
    return;
  }

  const SeriesSpectrum& spectrum = SpectrumFor(fft_size);
  std::unique_ptr<Scratch> scratch = AcquireScratch();

  // Both reversed queries ride one full-size complex transform (real and
  // imaginary lanes), the packed spectrum is multiplied elementwise by the
  // cached bit-reversed series spectrum — legal because multiplying by a
  // shared real spectrum commutes with the packing, and order-agnostic
  // because a pointwise product doesn't care how bins are permuted — and
  // one inverse separates both convolutions. Two rows therefore cost one
  // forward + one inverse + one product and (running DIF -> DIT) no
  // bit-reversal permutation passes at all.
  scratch->reversed_query.assign(query_a.rbegin(), query_a.rend());
  scratch->reversed_query_b.assign(query_b.rbegin(), query_b.rend());
  scratch->pair_bins.resize(fft_size);
  spectrum.plan->RealForwardPair(scratch->reversed_query,
                                 scratch->reversed_query_b,
                                 scratch->pair_bins);
  spectrum.plan->MultiplyPairByRealSpectrum(spectrum.pair_bins,
                                            scratch->pair_bins);
  // Instead of RealInversePair (which would materialize two full-size real
  // arrays only for `count` entries of each to survive), run the inverse in
  // place and read the two convolutions straight out of the packed buffer's
  // real/imaginary lanes — at large sizes the two skipped full-size unpack
  // sweeps are a measurable share of the pair cost.
  spectrum.plan->InverseBitrev(scratch->pair_bins);

  dots_a->resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    (*dots_a)[i] = scratch->pair_bins[m - 1 + i].real();
  }
  if (query_b.empty()) {
    dots_b->clear();
  } else {
    dots_b->resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      (*dots_b)[i] = scratch->pair_bins[m - 1 + i].imag();
    }
  }
  ReleaseScratch(std::move(scratch));
}

void MassEngine::OverlapSaveDotsPair(std::span<const double> query_a,
                                     std::span<const double> query_b,
                                     std::size_t length,
                                     std::vector<double>* dots_a,
                                     std::vector<double>* dots_b) {
  const auto centered = series_.centered();
  const std::size_t n = centered.size();
  const std::size_t m = length;
  const std::size_t count = n - m + 1;
  const std::size_t chunk_size = fft::OverlapSaveFftSize(m);

  const std::shared_ptr<const ChunkSpectra> spectra_handle =
      ChunkSpectraFor(chunk_size);
  const ChunkSpectra& spectra = *spectra_handle;
  std::unique_ptr<Scratch> scratch = AcquireScratch();

  // One small pair transform of the reversed queries serves every chunk:
  // the packed filter spectrum is multiplied (non-destructively) against
  // each cached chunk spectrum, and one chunk-size inverse per chunk yields
  // `hop` fresh dot products per lane. Everything after the filter
  // transform touches only chunk_size-sized buffers, so the whole per-row
  // pipeline stays cache resident no matter how long the series is.
  scratch->reversed_query.assign(query_a.rbegin(), query_a.rend());
  scratch->reversed_query_b.assign(query_b.rbegin(), query_b.rend());
  scratch->ols_filter.resize(chunk_size);
  spectra.plan->RealForwardPair(scratch->reversed_query,
                                scratch->reversed_query_b,
                                scratch->ols_filter);

  dots_a->resize(count);
  if (dots_b != nullptr) dots_b->resize(count);
  scratch->ols_work.resize(chunk_size);
  const std::size_t hop = spectra.hop;
  for (std::size_t begin = 0; begin < count; begin += hop) {
    const std::vector<std::complex<double>>& chunk =
        spectra.chunks[begin / hop];
    spectra.plan->MultiplyPairByRealSpectrumInto(chunk, scratch->ols_filter,
                                                 scratch->ols_work);
    spectra.plan->InverseBitrev(scratch->ols_work);
    // Circular-convolution positions m-1 .. m-1+hop-1 of the chunk starting
    // at series offset `begin` are alias-free (m - 1 <= hop) and equal the
    // linear dot products at offsets begin .. begin+hop-1.
    const std::size_t end = std::min(count, begin + hop);
    for (std::size_t i = begin; i < end; ++i) {
      const std::complex<double>& v = scratch->ols_work[m - 1 + (i - begin)];
      (*dots_a)[i] = v.real();
      if (dots_b != nullptr) (*dots_b)[i] = v.imag();
    }
  }
  ReleaseScratch(std::move(scratch));
}

void MassEngine::ComputeRowPairFft(std::size_t offset_a, std::size_t offset_b,
                                   std::size_t length, RowProfile* row_a,
                                   RowProfile* row_b) {
  const auto centered = series_.centered();
  CachedSlidingDotsPair(centered.subspan(offset_a, length),
                        centered.subspan(offset_b, length), length,
                        &row_a->dots, &row_b->dots);
  DistancesFromDots(series_, offset_a, length, row_a->dots,
                    &row_a->distances);
  DistancesFromDots(series_, offset_b, length, row_b->dots,
                    &row_b->distances);
}

void MassEngine::ComputeRowPairOverlapSave(std::size_t offset_a,
                                           std::size_t offset_b,
                                           std::size_t length,
                                           RowProfile* row_a,
                                           RowProfile* row_b) {
  const auto centered = series_.centered();
  OverlapSaveDotsPair(centered.subspan(offset_a, length),
                      centered.subspan(offset_b, length), length,
                      &row_a->dots, &row_b->dots);
  DistancesFromDots(series_, offset_a, length, row_a->dots,
                    &row_a->distances);
  DistancesFromDots(series_, offset_b, length, row_b->dots,
                    &row_b->distances);
}

Result<RowProfile> MassEngine::ComputeRowProfile(std::size_t query_offset,
                                                 std::size_t length,
                                                 ConvolutionBackend backend) {
  VALMOD_RETURN_IF_ERROR(ValidateWindow(series_, query_offset, length));
  const std::size_t count = series_.NumSubsequences(length);
  if (backend == ConvolutionBackend::kAuto) {
    backend = ChooseConvolutionBackend(series_.size(), length, count);
  }

  RowProfile row;
  const auto query = series_.centered().subspan(query_offset, length);
  switch (backend) {
    case ConvolutionBackend::kDirect:
      row.dots =
          DirectSlidingDots(series_.centered(), query_offset, length, count);
      break;
    case ConvolutionBackend::kFftPair: {
      // A single row runs the pair machinery with the second lane empty.
      std::vector<double> unused;
      CachedSlidingDotsPair(query, {}, length, &row.dots, &unused);
      break;
    }
    case ConvolutionBackend::kOverlapSave:
      OverlapSaveDotsPair(query, {}, length, &row.dots, nullptr);
      break;
    case ConvolutionBackend::kAuto:
      return Status::Internal("unresolved convolution backend");
  }
  NoteEngineRows(backend, 1);
  DistancesFromDots(series_, query_offset, length, row.dots, &row.distances);
  return row;
}

Result<std::vector<RowProfile>> MassEngine::ComputeRowProfiles(
    std::span<const std::size_t> rows, std::size_t length, int num_threads,
    ConvolutionBackend backend) {
  for (std::size_t row : rows) {
    VALMOD_RETURN_IF_ERROR(ValidateWindow(series_, row, length));
  }
  const std::size_t count = series_.NumSubsequences(length);
  std::vector<RowProfile> profiles(rows.size());
  if (rows.empty()) return profiles;

  if (backend == ConvolutionBackend::kAuto) {
    // The cost model prices the batch as the engine will execute it:
    // adjacent rows share one pair-packed (or overlap-save) transform, so a
    // multi-row batch competes the pair flavors against the direct dots.
    backend = ChooseConvolutionBackend(series_.size(), length, count,
                                       /*batched=*/rows.size() > 1);
  }

  if (backend == ConvolutionBackend::kDirect) {
    // Row-independent kernel: just fan the rows out. Results are
    // bit-identical to per-row ComputeRowProfile calls.
    VALMOD_RETURN_IF_ERROR(ParallelForWithStatus(
        0, rows.size(), num_threads, [&](std::size_t i) -> Status {
          VALMOD_ASSIGN_OR_RETURN(
              profiles[i], ComputeRowProfile(rows[i], length, backend));
          return Status::Ok();
        }));
    return profiles;
  }

  // Pair families: adjacent rows share one packed transform; an odd tail
  // row runs the same family with an empty second lane. The pairing depends
  // only on the order of `rows`, so results are independent of num_threads.
  const bool overlap_save = backend == ConvolutionBackend::kOverlapSave;
  const std::size_t pairs = rows.size() / 2;
  const std::size_t tasks = pairs + rows.size() % 2;

  // Warm the spectra serially so pool workers never contend on their
  // one-time construction.
  if (overlap_save) {
    ChunkSpectraFor(fft::OverlapSaveFftSize(length));
  } else {
    SpectrumFor(fft::NextPowerOfTwo(series_.size() + length - 1));
  }
  VALMOD_RETURN_IF_ERROR(ParallelForWithStatus(
      0, tasks, num_threads, [&](std::size_t t) -> Status {
        if (t < pairs) {
          if (overlap_save) {
            ComputeRowPairOverlapSave(rows[2 * t], rows[2 * t + 1], length,
                                      &profiles[2 * t], &profiles[2 * t + 1]);
          } else {
            ComputeRowPairFft(rows[2 * t], rows[2 * t + 1], length,
                              &profiles[2 * t], &profiles[2 * t + 1]);
          }
          // The tail (and the direct fan-out above) count inside
          // ComputeRowProfile; the pair paths bypass it, so count here.
          NoteEngineRows(backend, 2);
          return Status::Ok();
        }
        VALMOD_ASSIGN_OR_RETURN(
            profiles.back(), ComputeRowProfile(rows.back(), length, backend));
        return Status::Ok();
      }));
  return profiles;
}

Result<std::vector<double>> MassEngine::DistanceProfile(
    std::span<const double> query, ConvolutionBackend backend) {
  if (query.empty()) {
    return Status::InvalidArgument("query must be non-empty");
  }
  if (query.size() > series_.size()) {
    return Status::InvalidArgument("query longer than series");
  }
  const std::size_t length = query.size();
  const std::size_t count = series_.NumSubsequences(length);
  if (backend == ConvolutionBackend::kAuto) {
    // Same cost-based selection as ComputeRowProfile: for short queries
    // (or short series) the direct products beat any transform by a wide
    // margin, and unconditionally taking an FFT path would also pay the
    // engine's one-time spectrum build for a single cheap call.
    backend = ChooseConvolutionBackend(series_.size(), length, count);
  }

  VALMOD_ASSIGN_OR_RETURN(CenteredQuery centered, CenterQuery(query));
  std::vector<double> dots;
  switch (backend) {
    case ConvolutionBackend::kDirect:
      dots = DirectExternalSlidingDots(series_.centered(), centered.values,
                                       count);
      break;
    case ConvolutionBackend::kFftPair: {
      std::vector<double> unused;
      CachedSlidingDotsPair(centered.values, {}, length, &dots, &unused);
      break;
    }
    case ConvolutionBackend::kOverlapSave:
      OverlapSaveDotsPair(centered.values, {}, length, &dots, nullptr);
      break;
    case ConvolutionBackend::kAuto:
      return Status::Internal("unresolved convolution backend");
  }
  NoteEngineRows(backend, 1);

  std::vector<double> distances;
  DistancesFromExternalQueryDots(series_, centered.std_dev,
                                 centered.constant, length, dots, &distances);
  return distances;
}

}  // namespace valmod::mass
