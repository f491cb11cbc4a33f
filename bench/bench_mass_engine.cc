// Micro-benchmark for the batched MASS engine (emits JSON for the perf
// trajectory; pass an output path as argv[1] to also write the JSON to a
// file — the VALMOD_BENCH_JSON CMake target and CI use this for the
// BENCH_engine.json artifact):
//
//   1. Repeated rows at a fixed length on a 2^17-point series: 1-row
//      batches (the single-lane path) vs the pair-packed batched path vs
//      the overlap-save batched path.
//   2. A backend sweep at 2^15 / 2^17 / 2^19 points: pair-packed vs
//      overlap-save rows, single-threaded so the speedups isolate the
//      algorithm, plus the backend the cost model actually picks at each
//      size.
//
//   2b. A boundary sweep over the short-window (series_n, length) grid
//      where direct dots and overlap-save compete: per-row measured
//      seconds for direct / pair-packed / overlap-save, the model's
//      predicted costs (so the static weights in mass::BackendCostModel
//      stay auditable against real timings), and the backend the cost
//      model picks. These are the `boundary_sweep` rows of BENCH_engine.json that
//      mass/backend.h and the cost-model tests refer to.
//   3. A SIMD target sweep: the overlap-save and direct paths under every
//      dispatch target this build and machine support.
//   4. ParallelFor dispatch: spawn-per-call std::thread (the seed's
//      implementation) vs the persistent pool, plus the pool's
//      threads-created counter across the timed regions — the observable
//      "no per-batch thread spawn" guarantee.
//
// Every timing covers sliding dots only: the engine returns dots, and no
// timed region derives distances from them.

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "mass/backend.h"
#include "mass/engine.h"
#include "series/data_series.h"
#include "series/generators.h"
#include "simd/dispatch.h"

namespace {

using valmod::WallTimer;
using valmod::series::DataSeries;

/// The seed's ParallelFor: spawn and join std::threads on every call.
void SpawnParallelFor(std::size_t begin, std::size_t end, int threads,
                      const std::function<void(std::size_t)>& fn) {
  const std::size_t count = end > begin ? end - begin : 0;
  const std::size_t workers = std::min<std::size_t>(
      threads > 1 ? static_cast<std::size_t>(threads) : 1, count);
  if (workers <= 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers);
  const std::size_t chunk = (count + workers - 1) / workers;
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t lo = begin + w * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    pool.emplace_back([lo, hi, &fn]() {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    });
  }
  for (auto& t : pool) t.join();
}

double Checksum(const std::vector<double>& values) {
  double acc = 0.0;
  for (double v : values) acc += v;
  return acc;
}

/// One backend-sweep configuration: single-threaded row-profile timings for
/// the pair-packed and overlap-save paths at one series size.
struct SweepResult {
  std::size_t series_n = 0;
  std::size_t repetitions = 0;
  double pair_seconds = 0.0;
  double overlap_save_seconds = 0.0;
  const char* auto_backend = "";
};

SweepResult RunBackendSweep(std::size_t n, std::size_t length,
                            std::size_t repetitions, double* checksum) {
  auto series_result = valmod::synth::ByName("ecg", n, 11);
  if (!series_result.ok()) {
    std::fprintf(stderr, "series generation failed: %s\n",
                 series_result.status().ToString().c_str());
    std::exit(1);
  }
  const DataSeries& series = *series_result;
  const std::size_t count = series.NumSubsequences(length);
  const std::size_t stride = count / repetitions;
  std::vector<std::size_t> rows(repetitions);
  for (std::size_t r = 0; r < repetitions; ++r) rows[r] = r * stride;

  using valmod::mass::ConvolutionBackend;
  valmod::mass::MassEngine engine(series);
  WallTimer timer;
  SweepResult result;
  result.series_n = n;
  result.repetitions = repetitions;
  result.auto_backend = valmod::mass::ConvolutionBackendName(
      valmod::mass::ChooseConvolutionBackend(n, length, count));

  // Untimed warmup per backend: plans, the cached series spectra, and the
  // overlap-save chunk spectra are one-time costs amortized over thousands
  // of rows in real runs, so every path gets the same warm treatment.
  const std::vector<std::size_t> warm_rows = {0, stride};
  (void)engine.ComputeRowProfiles(warm_rows, length, 1,
                                  ConvolutionBackend::kFftPair);
  (void)engine.ComputeRowProfiles(warm_rows, length, 1,
                                  ConvolutionBackend::kOverlapSave);

  // Checksums run inside every timed region, so the reported ratio
  // compares backend against backend, not backend against
  // backend-plus-checksum.
  timer.Restart();
  auto pair = engine.ComputeRowProfiles(rows, length, /*num_threads=*/1,
                                        ConvolutionBackend::kFftPair);
  for (const auto& row : *pair) *checksum += Checksum(row);
  result.pair_seconds = timer.ElapsedSeconds();

  timer.Restart();
  auto ols = engine.ComputeRowProfiles(rows, length, /*num_threads=*/1,
                                       ConvolutionBackend::kOverlapSave);
  for (const auto& row : *ols) *checksum += Checksum(row);
  result.overlap_save_seconds = timer.ElapsedSeconds();
  return result;
}

/// One boundary-sweep configuration: batched single-threaded per-row
/// timings for each backend family and the cost model's choice.
struct BoundaryResult {
  std::size_t series_n = 0;
  std::size_t length = 0;
  std::size_t repetitions = 0;
  double direct_seconds = 0.0;        // per row
  double fft_pair_seconds = 0.0;      // per row
  double overlap_save_seconds = 0.0;  // per row
  valmod::mass::ConvolutionBackend auto_backend =
      valmod::mass::ConvolutionBackend::kAuto;
};

double TimePerRow(valmod::mass::MassEngine& engine,
                  const std::vector<std::size_t>& rows, std::size_t length,
                  valmod::mass::ConvolutionBackend backend,
                  double* checksum) {
  // Warm the plans and cached spectra, then keep the fastest of three
  // batched single-threaded runs (the sweep compares kernels, not scheduler
  // noise).
  (void)engine.ComputeRowProfiles({rows.data(), 2}, length, 1, backend);
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    WallTimer timer;
    auto batch = engine.ComputeRowProfiles(rows, length, 1, backend);
    const double elapsed = timer.ElapsedSeconds();
    for (const auto& row : *batch) *checksum += Checksum(row);
    best = std::min(best, elapsed / static_cast<double>(rows.size()));
  }
  return best;
}

BoundaryResult RunBoundaryPoint(std::size_t n, std::size_t length,
                                double* checksum) {
  using valmod::mass::ConvolutionBackend;
  auto series_result = valmod::synth::ByName("ecg", n, 11);
  if (!series_result.ok()) {
    std::fprintf(stderr, "series generation failed: %s\n",
                 series_result.status().ToString().c_str());
    std::exit(1);
  }
  const DataSeries& series = *series_result;
  const std::size_t count = series.NumSubsequences(length);
  const std::size_t repetitions = 16;  // even: pair paths pack 2 per FFT
  const std::size_t stride = count / repetitions;
  std::vector<std::size_t> rows(repetitions);
  for (std::size_t r = 0; r < repetitions; ++r) rows[r] = r * stride;

  valmod::mass::MassEngine engine(series);
  BoundaryResult result;
  result.series_n = n;
  result.length = length;
  result.repetitions = repetitions;
  result.direct_seconds =
      TimePerRow(engine, rows, length, ConvolutionBackend::kDirect, checksum);
  result.fft_pair_seconds =
      TimePerRow(engine, rows, length, ConvolutionBackend::kFftPair, checksum);
  result.overlap_save_seconds = TimePerRow(
      engine, rows, length, ConvolutionBackend::kOverlapSave, checksum);

  result.auto_backend = valmod::mass::ChooseConvolutionBackend(
      n, length, count, /*batched=*/true);
  return result;
}

/// One SIMD dispatch target's timings over the engine hot paths. The
/// kernels are bit-identical across targets (checksums must agree), so
/// these rows measure pure instruction-level speedup.
struct SimdSweepResult {
  valmod::simd::Target target = valmod::simd::Target::kScalar;
  double overlap_save_seconds = 0.0;  // chunk FFTs + spectrum products
  double direct_seconds = 0.0;        // sliding-dot four-accumulator loop
  double total_seconds = 0.0;
};

/// Times the overlap-save chunk pipeline and the direct sliding-dot path
/// under every supported SIMD target (forced via simd::SetTarget), then
/// restores the entry target. Plans and cached spectra are warmed before
/// the loop — they are byte-identical across targets, so sharing them is
/// sound and keeps the comparison about the kernels.
std::vector<SimdSweepResult> RunSimdTargetSweep(double* checksum) {
  using valmod::mass::ConvolutionBackend;
  auto series_result = valmod::synth::ByName("ecg", std::size_t{1} << 16, 11);
  if (!series_result.ok()) {
    std::fprintf(stderr, "series generation failed: %s\n",
                 series_result.status().ToString().c_str());
    std::exit(1);
  }
  const DataSeries& series = *series_result;
  const std::size_t ols_length = 512;   // FFT-dominated configuration
  const std::size_t direct_length = 128;  // dot-product-dominated
  const std::size_t repetitions = 8;    // even: pair paths pack 2 per FFT
  const auto make_rows = [&](std::size_t length) {
    const std::size_t count = series.NumSubsequences(length);
    const std::size_t stride = count / repetitions;
    std::vector<std::size_t> rows(repetitions);
    for (std::size_t r = 0; r < repetitions; ++r) rows[r] = r * stride;
    return rows;
  };
  const std::vector<std::size_t> ols_rows = make_rows(ols_length);
  const std::vector<std::size_t> direct_rows = make_rows(direct_length);

  valmod::mass::MassEngine engine(series);
  (void)engine.ComputeRowProfiles({ols_rows.data(), 2}, ols_length, 1,
                                  ConvolutionBackend::kOverlapSave);
  (void)engine.ComputeRowProfiles({direct_rows.data(), 2}, direct_length, 1,
                                  ConvolutionBackend::kDirect);

  const valmod::simd::Target entry_target = valmod::simd::ActiveTarget();
  std::vector<SimdSweepResult> results;
  for (const valmod::simd::Target target : valmod::simd::SupportedTargets()) {
    if (!valmod::simd::SetTarget(target).ok()) continue;
    SimdSweepResult r;
    r.target = target;
    r.overlap_save_seconds = std::numeric_limits<double>::infinity();
    r.direct_seconds = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {  // keep the fastest of three
      WallTimer timer;
      auto ols = engine.ComputeRowProfiles(ols_rows, ols_length, 1,
                                           ConvolutionBackend::kOverlapSave);
      const double ols_elapsed = timer.ElapsedSeconds();
      for (const auto& row : *ols) *checksum += Checksum(row);
      timer.Restart();
      auto direct = engine.ComputeRowProfiles(direct_rows, direct_length, 1,
                                              ConvolutionBackend::kDirect);
      const double direct_elapsed = timer.ElapsedSeconds();
      for (const auto& row : *direct) *checksum += Checksum(row);
      r.overlap_save_seconds = std::min(r.overlap_save_seconds, ols_elapsed);
      r.direct_seconds = std::min(r.direct_seconds, direct_elapsed);
    }
    r.total_seconds = r.overlap_save_seconds + r.direct_seconds;
    results.push_back(r);
  }
  (void)valmod::simd::SetTarget(entry_target);
  return results;
}

void AppendFormat(std::string* out, const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list measure;
  va_copy(measure, args);
  const int needed = std::vsnprintf(nullptr, 0, format, measure);
  va_end(measure);
  if (needed > 0) {
    const std::size_t offset = out->size();
    out->resize(offset + static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(out->data() + offset, static_cast<std::size_t>(needed) + 1,
                   format, args);
    out->resize(offset + static_cast<std::size_t>(needed));
  }
  va_end(args);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = std::size_t{1} << 17;
  const std::size_t length = 1024;  // past the cost-model crossover: FFT path
  const std::size_t repetitions = 20;  // even: the pair path packs 2 per FFT

  auto series_result = valmod::synth::ByName("ecg", n, 11);
  if (!series_result.ok()) {
    std::fprintf(stderr, "series generation failed: %s\n",
                 series_result.status().ToString().c_str());
    return 1;
  }
  const DataSeries& series = *series_result;
  const std::size_t count = series.NumSubsequences(length);
  const std::size_t stride = count / repetitions;
  std::vector<std::size_t> rows(repetitions);
  for (std::size_t r = 0; r < repetitions; ++r) rows[r] = r * stride;

  valmod::mass::MassEngine engine(series);
  double checksum = 0.0;

  // Untimed warmup: builds the FFT plan and the engine's cached series
  // spectrum (the one-time cost is deliberately excluded — it is amortized
  // over thousands of calls in real runs). The 1-row batches are forced onto
  // the pair-packed backend, which then runs with an empty second lane: at
  // this size the cost model picks overlap-save, and the pair speedup below
  // must compare pairing against no pairing on one backend.
  using valmod::mass::ConvolutionBackend;
  (void)engine.ComputeRowProfiles({rows.data(), 1}, length, 1,
                                  ConvolutionBackend::kFftPair);

  WallTimer timer;
  for (std::size_t r = 0; r < repetitions; ++r) {
    auto row = engine.ComputeRowProfiles({&rows[r], 1}, length, 1,
                                         ConvolutionBackend::kFftPair);
    checksum += Checksum(row->front());
  }
  const double cached_seconds = timer.ElapsedSeconds();

  // The batched pair-packed and overlap-save paths, single-threaded so the
  // speedups isolate the algorithmic change rather than core count. The
  // backends are forced: at this size the cost model itself picks
  // overlap-save, and the JSON should keep tracking both.
  (void)engine.ComputeRowProfiles({rows.data(), 2}, length, 1,
                                  ConvolutionBackend::kOverlapSave);  // warm
  timer.Restart();
  auto batched = engine.ComputeRowProfiles(rows, length, /*num_threads=*/1,
                                           ConvolutionBackend::kFftPair);
  for (const auto& row : *batched) checksum += Checksum(row);
  const double pair_batched_seconds = timer.ElapsedSeconds();

  timer.Restart();
  auto overlap_batched = engine.ComputeRowProfiles(
      rows, length, /*num_threads=*/1, ConvolutionBackend::kOverlapSave);
  for (const auto& row : *overlap_batched) checksum += Checksum(row);
  const double overlap_save_batched_seconds = timer.ElapsedSeconds();

  // Backend sweep across series sizes (fewer repetitions at 2^19 to keep
  // the bench quick; still even so every row pairs up).
  std::vector<SweepResult> sweep;
  sweep.push_back(
      RunBackendSweep(std::size_t{1} << 15, length, 20, &checksum));
  sweep.push_back(
      RunBackendSweep(std::size_t{1} << 17, length, 20, &checksum));
  sweep.push_back(
      RunBackendSweep(std::size_t{1} << 19, length, 8, &checksum));

  // Boundary sweep: the short-window (series_n, length) grid where direct
  // dots and overlap-save compete. Every row reports the measured
  // per-backend timings next to the cost model's predictions so the static
  // weights stay auditable.
  std::vector<BoundaryResult> boundary;
  for (std::size_t bn : {std::size_t{1} << 12, std::size_t{1} << 13,
                         std::size_t{1} << 14}) {
    for (std::size_t bl :
         {std::size_t{64}, std::size_t{128}, std::size_t{256},
          std::size_t{512}}) {
      boundary.push_back(RunBoundaryPoint(bn, bl, &checksum));
    }
  }

  // SIMD target sweep: the same engine hot paths under every dispatch
  // target this build+machine supports, so the JSON records the measured
  // vector speedup (speedup_simd_vs_scalar_* rows).
  const std::vector<SimdSweepResult> simd_sweep =
      RunSimdTargetSweep(&checksum);
  double simd_scalar_total = 0.0;
  for (const SimdSweepResult& r : simd_sweep) {
    if (r.target == valmod::simd::Target::kScalar) {
      simd_scalar_total = r.total_seconds;
    }
  }

  // --- ParallelFor dispatch: spawn-per-call vs persistent pool ----------
  const int threads = 4;
  const std::size_t rounds = 200;
  const std::size_t range = 4096;
  std::vector<double> sink(range, 0.0);
  const auto body = [&](std::size_t i) { sink[i] += 1.0; };

  timer.Restart();
  for (std::size_t round = 0; round < rounds; ++round) {
    SpawnParallelFor(0, range, threads, body);
  }
  const double spawn_seconds = timer.ElapsedSeconds();

  valmod::ParallelFor(0, range, threads, body);  // warm the pool
  const std::uint64_t created_before =
      valmod::ThreadPool::Shared().threads_created();
  timer.Restart();
  for (std::size_t round = 0; round < rounds; ++round) {
    valmod::ParallelFor(0, range, threads, body);
  }
  const double pool_seconds = timer.ElapsedSeconds();
  const std::uint64_t created_during =
      valmod::ThreadPool::Shared().threads_created() - created_before;
  checksum += Checksum(sink);

  std::string sweep_json;
  for (std::size_t s = 0; s < sweep.size(); ++s) {
    const SweepResult& r = sweep[s];
    AppendFormat(
        &sweep_json,
        "%s{\"series_n\":%zu,\"repetitions\":%zu,"
        "\"pair_batched_seconds\":%.6f,"
        "\"overlap_save_batched_seconds\":%.6f,"
        "\"speedup_overlap_save_vs_pair\":%.3f,"
        "\"auto_backend\":\"%s\"}",
        s == 0 ? "" : ",", r.series_n, r.repetitions, r.pair_seconds,
        r.overlap_save_seconds, r.pair_seconds / r.overlap_save_seconds,
        r.auto_backend);
  }

  const valmod::mass::BackendCostModel model;  // the static fit
  std::string boundary_json;
  for (std::size_t b = 0; b < boundary.size(); ++b) {
    const BoundaryResult& r = boundary[b];
    const std::size_t count = r.series_n - r.length + 1;
    AppendFormat(
        &boundary_json,
        "%s{\"series_n\":%zu,\"length\":%zu,\"repetitions\":%zu,"
        "\"direct_seconds_per_row\":%.3e,"
        "\"fft_pair_seconds_per_row\":%.3e,"
        "\"overlap_save_seconds_per_row\":%.3e,"
        "\"predicted_direct\":%.4g,\"predicted_fft_pair\":%.4g,"
        "\"predicted_overlap_save\":%.4g,"
        "\"auto_backend\":\"%s\"}",
        b == 0 ? "" : ",", r.series_n, r.length, r.repetitions,
        r.direct_seconds, r.fft_pair_seconds, r.overlap_save_seconds,
        valmod::mass::DirectSlidingDotsCost(model, r.length, count),
        valmod::mass::FftSlidingDotsCost(model, r.series_n, r.length,
                                         /*pair=*/true),
        valmod::mass::OverlapSaveSlidingDotsCost(model, r.length, count,
                                                 /*pair=*/true),
        valmod::mass::ConvolutionBackendName(r.auto_backend));
  }

  std::string json;
  AppendFormat(
      &json,
      "{%s,\"bench\":\"mass_engine\",\"series_n\":%zu,\"length\":%zu,"
      "\"repetitions\":%zu,\"cached_seconds\":%.6f,"
      "\"pair_batched_seconds\":%.6f,"
      "\"overlap_save_batched_seconds\":%.6f,"
      "\"speedup_pair_batched_vs_cached_single\":%.3f,"
      "\"speedup_overlap_save_vs_pair\":%.3f,"
      "\"sweep\":[%s],",
      valmod::bench::RunMetadataJsonFragment().c_str(),
      n, length, repetitions, cached_seconds, pair_batched_seconds,
      overlap_save_batched_seconds, cached_seconds / pair_batched_seconds,
      pair_batched_seconds / overlap_save_batched_seconds,
      sweep_json.c_str());
  std::string simd_json;
  for (std::size_t s = 0; s < simd_sweep.size(); ++s) {
    const SimdSweepResult& r = simd_sweep[s];
    AppendFormat(&simd_json,
                 "%s{\"target\":\"%s\",\"overlap_save_seconds\":%.6f,"
                 "\"direct_seconds\":%.6f,\"total_seconds\":%.6f,"
                 "\"speedup_vs_scalar\":%.3f}",
                 s == 0 ? "" : ",", valmod::simd::TargetName(r.target),
                 r.overlap_save_seconds, r.direct_seconds, r.total_seconds,
                 simd_scalar_total / r.total_seconds);
  }
  AppendFormat(&json,
               "\"simd_target\":\"%s\",\"cpu_features\":\"%s\","
               "\"simd_sweep\":[%s],",
               valmod::simd::TargetName(valmod::simd::ActiveTarget()),
               valmod::simd::CpuFeatureString().c_str(), simd_json.c_str());
  for (const SimdSweepResult& r : simd_sweep) {
    if (r.target == valmod::simd::Target::kScalar) continue;
    AppendFormat(&json, "\"speedup_simd_vs_scalar_%s\":%.3f,",
                 valmod::simd::TargetName(r.target),
                 simd_scalar_total / r.total_seconds);
  }
  AppendFormat(
      &json,
      "\"results_version\":%d,"
      "\"cost_model\":{\"source\":\"static\",\"direct\":%.3f,"
      "\"fft_single\":%.3f,\"fft_pair\":%.3f,\"overlap_save\":%.3f,"
      "\"overlap_save_chunk\":%.3f},"
      "\"boundary_sweep\":[%s],",
      valmod::mass::kResultsVersion, model.direct, model.fft_single,
      model.fft_pair, model.overlap_save, model.overlap_save_chunk,
      boundary_json.c_str());
  AppendFormat(
      &json,
      "\"parallel_for\":{\"rounds\":%zu,\"range\":%zu,\"threads\":%d,"
      "\"spawn_seconds\":%.6f,\"pool_seconds\":%.6f,"
      "\"pool_threads_created_during_timed_rounds\":%llu},"
      "\"checksum\":%.6e}\n",
      rounds, range, threads, spawn_seconds, pool_seconds,
      static_cast<unsigned long long>(created_during), checksum);
  std::fputs(json.c_str(), stdout);
  if (argc > 1) {
    std::FILE* out = std::fopen(argv[1], "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", argv[1]);
      return 1;
    }
    std::fputs(json.c_str(), out);
    std::fclose(out);
  }
  return 0;
}
