// Micro-benchmarks (google-benchmark) for the computational kernels: FFT,
// MASS row profiles, window statistics, STOMP
// (serial/parallel), the base-LB heap, and end-to-end VALMOD at small scale.

#include <benchmark/benchmark.h>

#include <complex>
#include <vector>

#include "core/partial_profile.h"
#include "core/valmod.h"
#include "fft/fft.h"
#include "mass/mass.h"
#include "mp/ab_join.h"
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

void BM_FftTransform(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::complex<double>> data(n, {1.0, -0.5});
  for (auto _ : state) {
    benchmark::DoNotOptimize(data.data());
    (void)valmod::fft::Transform(data, valmod::fft::Direction::kForward);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_FftTransform)->Arg(1 << 10)->Arg(1 << 13)->Arg(1 << 16);

void BM_MassRowProfile(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const DataSeries series = MakeSeries(n);
  for (auto _ : state) {
    auto row = valmod::mass::ComputeRowProfile(series, n / 2, 256);
    benchmark::DoNotOptimize(row);
  }
}
BENCHMARK(BM_MassRowProfile)->Arg(1 << 12)->Arg(1 << 15);

void BM_WindowStats(benchmark::State& state) {
  const DataSeries series = MakeSeries(1 << 15);
  std::vector<double> means, stds;
  for (auto _ : state) {
    (void)series.stats().CenteredWindowStats(256, &means, &stds);
    benchmark::DoNotOptimize(means.data());
  }
}
BENCHMARK(BM_WindowStats);

void BM_Stomp(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const DataSeries series = MakeSeries(n);
  for (auto _ : state) {
    auto profile = valmod::mp::ComputeStomp(series, 128, {});
    benchmark::DoNotOptimize(profile);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n) * static_cast<int64_t>(n));
}
BENCHMARK(BM_Stomp)->Arg(1 << 11)->Arg(1 << 12)->Arg(1 << 13)
    ->Unit(benchmark::kMillisecond);

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

void BM_AbJoin(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const DataSeries a = MakeSeries(n);
  auto b = valmod::synth::ByName("astro", n, 12);
  for (auto _ : state) {
    auto join = valmod::mp::ComputeAbJoin(a, *b, 128, {});
    benchmark::DoNotOptimize(join);
  }
}
BENCHMARK(BM_AbJoin)->Arg(1 << 11)->Arg(1 << 12)
    ->Unit(benchmark::kMillisecond);

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
