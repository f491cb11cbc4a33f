#include "mass/backend.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "fft/fft.h"
#include "fft/plan.h"
#include "mass/mass.h"

namespace valmod::mass {

namespace {

double ButterflyUnits(std::size_t fft_size) {
  return static_cast<double>(fft_size) *
         std::log2(static_cast<double>(std::max<std::size_t>(2, fft_size)));
}

std::mutex& ModelMutex() {
  static std::mutex mutex;
  return mutex;
}

/// The active model plus the key that scopes it: `installed` marks a model
/// set through SetBackendCostModel (calibration or tests), and
/// `fitted_target` records the SIMD dispatch target that was active when it
/// was installed. A model is only trusted while that target stays active.
struct ModelState {
  BackendCostModel model;  // defaults to the static fit
  bool installed = false;
  simd::Target fitted_target = simd::Target::kScalar;
};

ModelState& ModelStorage() {
  static ModelState state;
  return state;
}

std::atomic<std::uint64_t>& ModelGenerationStorage() {
  static std::atomic<std::uint64_t> generation{0};
  return generation;
}

std::atomic<std::uint64_t>& CalibrationRefitStorage() {
  static std::atomic<std::uint64_t> refits{0};
  return refits;
}

}  // namespace

const char* ConvolutionBackendName(ConvolutionBackend backend) {
  switch (backend) {
    case ConvolutionBackend::kAuto:
      return "auto";
    case ConvolutionBackend::kDirect:
      return "direct";
    case ConvolutionBackend::kFftSingle:
      return "fft_single";
    case ConvolutionBackend::kFftPair:
      return "fft_pair";
    case ConvolutionBackend::kOverlapSave:
      return "overlap_save";
  }
  return "unknown";
}

double DirectSlidingDotsCost(const BackendCostModel& model, std::size_t length,
                             std::size_t count) {
  return model.direct * static_cast<double>(count) *
         static_cast<double>(length);
}

double FftSlidingDotsCost(const BackendCostModel& model,
                          std::size_t series_size, std::size_t length,
                          bool pair) {
  const std::size_t fft_size =
      fft::NextPowerOfTwo(series_size + length - 1);
  const double weight = pair ? model.fft_pair : model.fft_single;
  return weight * ButterflyUnits(fft_size);
}

double OverlapSaveSlidingDotsCost(const BackendCostModel& model,
                                  std::size_t length, std::size_t count,
                                  bool pair) {
  const std::size_t chunk_size = fft::OverlapSaveFftSize(length);
  const std::size_t hop = chunk_size / 2;
  const double chunks =
      static_cast<double>((count + hop - 1) / std::max<std::size_t>(1, hop));
  // One filter transform plus one inverse per chunk, plus the O(C) product
  // and unload sweep per chunk. The chunk spectra themselves are cached per
  // (series, chunk size) in MassEngine and reused by every row at that
  // size, so their construction is not part of the per-row price.
  const double pipeline =
      model.overlap_save * ButterflyUnits(chunk_size) * (1.0 + chunks) +
      model.overlap_save_chunk * static_cast<double>(chunk_size) * chunks;
  // A pair-packed batch pushes two rows through one pipeline pass.
  return pair ? pipeline / 2.0 : pipeline;
}

BackendCostModel ActiveBackendCostModel() {
  const simd::Target current = simd::ActiveTarget();
  std::lock_guard<std::mutex> lock(ModelMutex());
  ModelState& state = ModelStorage();
  if (state.installed && state.fitted_target != current) {
    // The dispatch target changed under an installed (calibrated) model:
    // its weights priced kernels that are no longer running, so fall back
    // to the static fit and bump the generation so memoized kAuto results
    // are invalidated rather than served under stale weights.
    state.model = BackendCostModel{};
    state.installed = false;
    ModelGenerationStorage().fetch_add(1, std::memory_order_relaxed);
  }
  BackendCostModel model = state.model;
  model.simd_target = current;
  return model;
}

void SetBackendCostModel(const BackendCostModel& model) {
  const simd::Target current = simd::ActiveTarget();
  std::lock_guard<std::mutex> lock(ModelMutex());
  ModelState& state = ModelStorage();
  state.model = model;
  state.model.simd_target = current;
  state.installed = true;
  state.fitted_target = current;
  ModelGenerationStorage().fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t BackendCostModelGeneration() {
  return ModelGenerationStorage().load(std::memory_order_relaxed);
}

ConvolutionBackend ChooseConvolutionBackend(std::size_t series_size,
                                            std::size_t length,
                                            std::size_t count, bool batched,
                                            const BackendCostModel& model) {
  const std::size_t full_size =
      fft::NextPowerOfTwo(series_size + length - 1);
  const std::size_t chunk_size = fft::OverlapSaveFftSize(length);

  const double direct_cost = DirectSlidingDotsCost(model, length, count);
  const double fft_cost =
      FftSlidingDotsCost(model, series_size, length, batched);
  // When the chunk is not smaller than the full transform, chunking
  // degenerates to one full-size block plus overhead; the full-size path
  // strictly dominates, so overlap-save leaves the auction.
  const double ols_cost =
      chunk_size < full_size
          ? OverlapSaveSlidingDotsCost(model, length, count, batched)
          : std::numeric_limits<double>::infinity();

  if (direct_cost <= fft_cost && direct_cost <= ols_cost) {
    return ConvolutionBackend::kDirect;
  }
  if (ols_cost < fft_cost) {
    return ConvolutionBackend::kOverlapSave;
  }
  return batched ? ConvolutionBackend::kFftPair
                 : ConvolutionBackend::kFftSingle;
}

ConvolutionBackend ChooseConvolutionBackend(std::size_t series_size,
                                            std::size_t length,
                                            std::size_t count, bool batched) {
  return ChooseConvolutionBackend(series_size, length, count, batched,
                                  ActiveBackendCostModel());
}

namespace {

/// Median-of-three timed repetitions of `body` (seconds for one execution).
/// The microbench favors the median over the min: calibration runs on live
/// machines, and a single quiet-core minimum overstates sustained speed.
template <typename Body>
double TimeSeconds(std::size_t reps, const Body& body) {
  double samples[3];
  for (double& sample : samples) {
    WallTimer timer;
    for (std::size_t r = 0; r < reps; ++r) body();
    sample = timer.ElapsedSeconds() / static_cast<double>(reps);
  }
  std::sort(std::begin(samples), std::end(samples));
  return samples[1];
}

}  // namespace

BackendCostModel CalibrateBackendCostModel() {
  // Shapes mirror the kernels the engine actually runs: a mid-size series
  // for the direct dots, the matching full transform for the FFT paths, and
  // the overlap-save pipeline at two chunk counts so its two weights can be
  // separated. Everything below is a few milliseconds per kernel — the
  // whole calibration stays around 100 ms.
  constexpr std::size_t kSeriesSize = 16384;
  constexpr std::size_t kLength = 128;
  const std::size_t count = kSeriesSize - kLength + 1;
  const std::size_t full_size = fft::NextPowerOfTwo(kSeriesSize + kLength - 1);

  Rng rng(12345);
  std::vector<double> series(kSeriesSize);
  for (double& v : series) v = rng.Gaussian();
  std::vector<double> query(series.begin(), series.begin() + kLength);
  std::vector<double> reversed(query.rbegin(), query.rend());

  // Direct: seconds per multiply-add — the unit everything is expressed in.
  const double direct_seconds = TimeSeconds(4, [&] {
    volatile double sink =
        DirectExternalSlidingDots(series, query, count)[0];
    (void)sink;
  });
  const double sec_per_fma =
      direct_seconds /
      (static_cast<double>(count) * static_cast<double>(kLength));

  // Full-size single-query row: forward + half-spectrum product + inverse,
  // exactly the CachedSlidingDots pipeline minus the cached series forward.
  const auto full_plan = fft::GetPlan(full_size);
  std::vector<std::complex<double>> series_bins(
      full_plan->half_spectrum_size());
  full_plan->RealForward(series, series_bins);
  std::vector<std::complex<double>> bins(full_plan->half_spectrum_size());
  std::vector<double> conv(full_size);
  const double fft_single_seconds = TimeSeconds(8, [&] {
    full_plan->RealForward(reversed, bins);
    for (std::size_t i = 0; i < bins.size(); ++i) {
      bins[i] = series_bins[i] * bins[i];
    }
    full_plan->RealInverse(bins, conv);
  });

  // Full-size pair row: two rows per forward + product + inverse.
  std::vector<std::complex<double>> series_pair_bins(full_size);
  full_plan->RealForwardPair(series, {}, series_pair_bins);
  std::vector<std::complex<double>> pair_bins(full_size);
  const double fft_pair_seconds = TimeSeconds(8, [&] {
    full_plan->RealForwardPair(reversed, reversed, pair_bins);
    full_plan->MultiplyPairByRealSpectrum(series_pair_bins, pair_bins);
    full_plan->InverseBitrev(pair_bins);
  }) / 2.0;

  // Overlap-save pipeline at two chunk counts: t(K) is linear in K with an
  // intercept, t(K) = a * units * (1 + K) + b * C * K, so two measurements
  // separate the transform weight `a` from the per-chunk sweep weight `b`.
  const std::size_t chunk_size = fft::OverlapSaveFftSize(kLength);
  const std::size_t hop = chunk_size / 2;
  const auto chunk_plan = fft::GetPlan(chunk_size);
  std::vector<std::complex<double>> chunk_bins(chunk_size);
  chunk_plan->RealForwardPair({series.data(), chunk_size}, {}, chunk_bins);
  std::vector<std::complex<double>> filter(chunk_size);
  std::vector<std::complex<double>> work(chunk_size);
  std::vector<double> dots(chunk_size);
  const auto ols_pipeline = [&](std::size_t chunks) {
    chunk_plan->RealForwardPair(reversed, {}, filter);
    for (std::size_t c = 0; c < chunks; ++c) {
      chunk_plan->MultiplyPairByRealSpectrumInto(chunk_bins, filter, work);
      chunk_plan->InverseBitrev(work);
      for (std::size_t i = 0; i < hop; ++i) {
        dots[i] = work[kLength - 1 + i].real();
      }
    }
    volatile double sink = dots[0];
    (void)sink;
  };
  const std::size_t k_small = 8;
  const std::size_t k_large = 64;
  // The K = 0 run is the lone filter transform, a * units_chunk, measured
  // directly. (An earlier version extrapolated it as the intercept of the
  // two chunked runs; with vectorized butterflies the transform term is
  // small enough that measurement noise routinely drove the extrapolated
  // intercept — and with it the overlap_save weight — to zero.)
  const double ols_filter = TimeSeconds(32, [&] { ols_pipeline(0); });
  const double ols_small = TimeSeconds(16, [&] { ols_pipeline(k_small); });
  const double ols_large = TimeSeconds(4, [&] { ols_pipeline(k_large); });

  const double units_full = ButterflyUnits(full_size);
  const double units_chunk = ButterflyUnits(chunk_size);
  // Per-chunk increment: a*units + b*C. Two chunked runs give the slope,
  // the measured filter transform gives `a` on its own.
  const double dk = static_cast<double>(k_large - k_small);
  const double slope = (ols_large - ols_small) / dk;  // a*units + b*C
  double a = ols_filter / units_chunk;
  double b =
      (slope - a * units_chunk) / static_cast<double>(chunk_size);
  if (b < 0.0) {
    // Degenerate fit (noise): fall back to pricing everything into the
    // transform weight.
    a = slope / units_chunk;
    b = 0.0;
  }

  BackendCostModel model;
  model.direct = 1.0;
  model.fft_single = fft_single_seconds / units_full / sec_per_fma;
  model.fft_pair = fft_pair_seconds / units_full / sec_per_fma;
  model.overlap_save = a / sec_per_fma;
  model.overlap_save_chunk = b / sec_per_fma;
  SetBackendCostModel(model);
  CalibrationRefitStorage().fetch_add(1, std::memory_order_relaxed);
  return model;
}

std::uint64_t CalibrationRefitCount() {
  return CalibrationRefitStorage().load(std::memory_order_relaxed);
}

}  // namespace valmod::mass
