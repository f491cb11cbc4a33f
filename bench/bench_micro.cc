// Micro-benchmarks (google-benchmark) for the computational kernels: the
// pair-packed FFT, MASS engine rows, window statistics, STOMP
// (serial/parallel), the base-LB heap, and end-to-end VALMOD at small scale.

#include <benchmark/benchmark.h>

#include <complex>
#include <vector>

#include "core/partial_profile.h"
#include "core/valmod.h"
#include "fft/plan.h"
#include "mass/engine.h"
#include "mp/stomp.h"
#include "mp/streaming.h"
#include "series/data_series.h"
#include "series/generators.h"
#include "stats/moving_stats.h"

namespace {

using valmod::series::DataSeries;

DataSeries MakeSeries(std::size_t n) {
  auto series = valmod::synth::ByName("ecg", n, 11);
  return std::move(series).value();
}

void BM_RealForwardPair(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto plan = valmod::fft::GetPlan(n);
  const std::vector<double> a(n / 2, 1.0), b(n / 2, -0.5);
  std::vector<std::complex<double>> spectrum(n);
  for (auto _ : state) {
    plan->RealForwardPair(a, b, spectrum);
    benchmark::DoNotOptimize(spectrum.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_RealForwardPair)->Arg(1 << 10)->Arg(1 << 13)->Arg(1 << 16);

// One row of sliding dots as a 1-row batch on a warm engine.
void BM_EngineRowBatch(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const DataSeries series = MakeSeries(n);
  valmod::mass::MassEngine engine(series);
  const std::size_t row[] = {n / 2};
  for (auto _ : state) {
    auto dots = engine.ComputeRowProfiles(row, 256);
    benchmark::DoNotOptimize(dots);
  }
}
BENCHMARK(BM_EngineRowBatch)->Arg(1 << 12)->Arg(1 << 15);

void BM_WindowStats(benchmark::State& state) {
  const DataSeries series = MakeSeries(1 << 15);
  std::vector<double> means, stds;
  for (auto _ : state) {
    (void)series.stats().CenteredWindowStats(256, &means, &stds);
    benchmark::DoNotOptimize(means.data());
  }
}
BENCHMARK(BM_WindowStats);

/// The scan shapes of BM_Stomp and BM_SeedingScan, as {n, l, threads,
/// random_walk}: ecg at l=128 for n = 2^11..2^13 on one thread and for
/// n = 2^16 on 1 and 4 threads, and the `valmod_sweep` shape (random_walk,
/// n=4096, l=896) on 1 and 4 threads, where the order the tiles are walked
/// in decides how early the row gates close.
void ScanShapes(benchmark::internal::Benchmark* b) {
  b->ArgNames({"n", "l", "threads", "random_walk"});
  for (int64_t n : {1 << 11, 1 << 12, 1 << 13}) b->Args({n, 128, 1, 0});
  for (int64_t threads : {1, 4}) b->Args({1 << 16, 128, threads, 0});
  for (int64_t threads : {1, 4}) b->Args({4096, 896, threads, 1});
  b->Unit(benchmark::kMillisecond);
}

DataSeries ScanSeries(const benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  if (state.range(3) == 0) return MakeSeries(n);
  return std::move(valmod::synth::ByName("random_walk", n, 1)).value();
}

void BM_Stomp(benchmark::State& state) {
  const DataSeries series = ScanSeries(state);
  valmod::mp::ProfileOptions options;
  options.num_threads = static_cast<int>(state.range(2));
  for (auto _ : state) {
    auto profile = valmod::mp::ComputeStomp(
        series, static_cast<std::size_t>(state.range(1)), options);
    benchmark::DoNotOptimize(profile);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) * state.range(0));
}
BENCHMARK(BM_Stomp)->Apply(ScanShapes);

// VALMOD at one length: the seeding scan (a STOMP walk that also fills the
// partial profiles) plus the top-k. Against BM_Stomp at the same shape, the
// ratio is the price of seeding.
void BM_SeedingScan(benchmark::State& state) {
  const DataSeries series = ScanSeries(state);
  valmod::core::ValmodOptions options;
  options.min_length = static_cast<std::size_t>(state.range(1));
  options.max_length = options.min_length;
  options.num_threads = static_cast<int>(state.range(2));
  for (auto _ : state) {
    auto result = valmod::core::RunValmod(series, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) * state.range(0));
}
BENCHMARK(BM_SeedingScan)->Apply(ScanShapes);

void BM_StompParallel(benchmark::State& state) {
  const DataSeries series = MakeSeries(1 << 13);
  valmod::mp::ProfileOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto profile = valmod::mp::ComputeStomp(series, 128, options);
    benchmark::DoNotOptimize(profile);
  }
}
BENCHMARK(BM_StompParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_PartialProfileOffer(benchmark::State& state) {
  const std::size_t p = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    valmod::core::PartialProfileSet set(1, p, 64);
    for (int i = 0; i < 4096; ++i) {
      set.Offer(0, i, 0.0, static_cast<double>((i * 2654435761u) % 10007));
    }
    set.FinishSeeding(0);
    benchmark::DoNotOptimize(set.max_base_lb(0));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_PartialProfileOffer)->Arg(5)->Arg(10)->Arg(50);

void BM_StreamingAppend(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const DataSeries series = MakeSeries(n);
  for (auto _ : state) {
    auto stream = valmod::mp::StreamingProfile::Create(64);
    (void)stream->AppendAll(series.values());
    benchmark::DoNotOptimize(stream->ProfileSnapshot().distances.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_StreamingAppend)->Arg(1 << 11)->Arg(1 << 13)
    ->Unit(benchmark::kMillisecond);

// Per-point Append over the same stream: the baseline BM_StreamingAppend's
// AppendAll amortizes validation and reserves capacity for the whole batch
// up front, so items/s here vs there is the batch-path delta.
void BM_StreamingAppendPerPoint(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const DataSeries series = MakeSeries(n);
  for (auto _ : state) {
    auto stream = valmod::mp::StreamingProfile::Create(64);
    for (const double value : series.values()) {
      (void)stream->Append(value);
    }
    benchmark::DoNotOptimize(stream->ProfileSnapshot().distances.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_StreamingAppendPerPoint)->Arg(1 << 11)->Arg(1 << 13)
    ->Unit(benchmark::kMillisecond);

// Windowed maintenance at steady state: the window is full, so every
// appended point also evicts one and occasionally repairs rows whose
// nearest neighbor fell out. items/s is the sustained bounded-memory
// ingest rate at that window size.
void BM_StreamingWindowedSteadyState(benchmark::State& state) {
  const std::size_t window = static_cast<std::size_t>(state.range(0));
  const DataSeries series = MakeSeries(4 * window);
  valmod::mp::StreamingOptions options;
  options.max_points = window;
  auto stream = valmod::mp::StreamingProfile::Create(64, options);
  (void)stream->AppendAll(series.values().subspan(0, window));
  std::size_t cursor = window;
  std::int64_t points = 0;
  for (auto _ : state) {
    if (cursor + 256 > series.size()) cursor = 0;  // re-feed, stays steady
    (void)stream->AppendAll(series.values().subspan(cursor, 256));
    cursor += 256;
    points += 256;
  }
  benchmark::DoNotOptimize(stream->ProfileSnapshot().distances.data());
  state.SetItemsProcessed(points);
}
BENCHMARK(BM_StreamingWindowedSteadyState)->Arg(1 << 10)->Arg(1 << 12)
    ->Unit(benchmark::kMillisecond);

void BM_ValmodEndToEnd(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const DataSeries series = MakeSeries(n);
  valmod::core::ValmodOptions options;
  options.min_length = 64;
  options.max_length = 96;
  for (auto _ : state) {
    auto result = valmod::core::RunValmod(series, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ValmodEndToEnd)->Arg(1 << 11)->Arg(1 << 12)->Arg(1 << 13)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
