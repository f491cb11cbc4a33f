// Concurrency hammer for the shared MassEngine — the serving stack's core
// assumption is that one registry-held engine may serve any number of
// concurrent requests. N threads issue a mixed stream of 1-row batches,
// 3-row batches, and external-query distance profiles at different lengths
// and forced backends against ONE engine, racing each other through the
// engine's spectrum caches, chunk-spectra LRU, and scratch free list; the
// results must be bit-identical to the same calls executed serially on a
// fresh engine. Run under TSan in CI (the tsan job builds this target).

#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "mass/backend.h"
#include "mass/engine.h"
#include "mass/mass.h"
#include "series/generators.h"

namespace valmod::mass {
namespace {

struct CallSpec {
  enum Kind { kRow, kBatch, kDistance } kind = kRow;
  std::size_t offset = 0;  // row offset / query offset for distance
  std::size_t length = 0;
  ConvolutionBackend backend = ConvolutionBackend::kAuto;
};

/// The deterministic call mix one worker thread executes. Varying lengths
/// forces different FFT sizes and chunk-spectra entries (LRU churn);
/// varying backends hits every kernel family; the offsets stagger so
/// threads touch different windows of the shared series.
std::vector<CallSpec> BuildCalls(std::size_t thread_index, std::size_t n) {
  const ConvolutionBackend kBackends[] = {
      ConvolutionBackend::kAuto, ConvolutionBackend::kDirect,
      ConvolutionBackend::kFftPair, ConvolutionBackend::kOverlapSave};
  const std::size_t kLengths[] = {16, 33, 64, 120, 256};
  std::vector<CallSpec> calls;
  for (std::size_t i = 0; i < 25; ++i) {
    CallSpec call;
    call.kind = static_cast<CallSpec::Kind>(i % 3);
    call.length = kLengths[(i + thread_index) % 5];
    call.offset = (thread_index * 131 + i * 37) % (n - call.length);
    call.backend = kBackends[(i + 2 * thread_index) % 4];
    calls.push_back(call);
  }
  return calls;
}

/// Distances of the rows at `offsets` through one engine batch, flattened
/// in row order: the engine's dots, then DistancesFromDots.
std::vector<double> BatchDistances(
    MassEngine& engine, std::span<const std::size_t> offsets,
    std::size_t length,
    ConvolutionBackend backend = ConvolutionBackend::kAuto) {
  auto dots = engine.ComputeRowProfiles(offsets, length, 1, backend);
  EXPECT_TRUE(dots.ok()) << dots.status().ToString();
  std::vector<double> flat, distances;
  if (!dots.ok()) return flat;
  for (std::size_t r = 0; r < offsets.size(); ++r) {
    DistancesFromDots(engine.series(), offsets[r], length, (*dots)[r],
                      &distances);
    flat.insert(flat.end(), distances.begin(), distances.end());
  }
  return flat;
}

/// Executes one call and flattens the result to a comparable vector.
std::vector<double> Execute(MassEngine& engine, const CallSpec& call) {
  switch (call.kind) {
    case CallSpec::kRow: {
      const std::size_t row[] = {call.offset};
      return BatchDistances(engine, row, call.length, call.backend);
    }
    case CallSpec::kBatch: {
      // A small batch of adjacent rows: exercises pair packing and the
      // batched tail path.
      const std::size_t count = engine.series().NumSubsequences(call.length);
      std::vector<std::size_t> rows;
      for (std::size_t r = 0; r < 3; ++r) {
        rows.push_back((call.offset + r * 17) % count);
      }
      return BatchDistances(engine, rows, call.length, call.backend);
    }
    case CallSpec::kDistance: {
      const auto values = engine.series().values();
      std::vector<double> query(values.begin() + call.offset,
                                values.begin() + call.offset + call.length);
      auto distances = engine.DistanceProfile(query, call.backend);
      EXPECT_TRUE(distances.ok()) << distances.status().ToString();
      return distances.ok() ? *distances : std::vector<double>{};
    }
  }
  return {};
}

TEST(EngineConcurrencyTest, SharedEngineBitIdenticalToSerial) {
  constexpr std::size_t kThreads = 4;
  const std::size_t n = 4096;
  auto series = synth::ByName("ecg", n, 3);
  ASSERT_TRUE(series.ok());

  // Serial reference: a fresh engine, every thread's calls in order.
  std::vector<std::vector<std::vector<double>>> expected(kThreads);
  {
    MassEngine reference(*series);
    for (std::size_t t = 0; t < kThreads; ++t) {
      for (const CallSpec& call : BuildCalls(t, n)) {
        expected[t].push_back(Execute(reference, call));
      }
    }
  }

  // Concurrent run: one SHARED engine, all threads at once. Repeat a few
  // times so cold-cache construction (first run) and warm-cache traffic
  // (later runs) both get raced.
  for (int round = 0; round < 3; ++round) {
    MassEngine shared(*series);
    std::vector<std::vector<std::vector<double>>> actual(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (const CallSpec& call : BuildCalls(t, n)) {
          actual[t].push_back(Execute(shared, call));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();

    for (std::size_t t = 0; t < kThreads; ++t) {
      ASSERT_EQ(actual[t].size(), expected[t].size());
      for (std::size_t c = 0; c < expected[t].size(); ++c) {
        ASSERT_EQ(actual[t][c].size(), expected[t][c].size())
            << "thread " << t << " call " << c;
        for (std::size_t i = 0; i < expected[t][c].size(); ++i) {
          // Bit-identical: the engine guarantees per-call determinism
          // regardless of what other threads do to the shared caches.
          ASSERT_EQ(actual[t][c][i], expected[t][c][i])
              << "thread " << t << " call " << c << " entry " << i
              << " round " << round;
        }
      }
    }
  }
}

/// Same hammer against one engine reused across rounds (the registry's
/// long-lived engine), mixing threads that only read warm caches with
/// threads that force new sizes into the chunk-spectra LRU.
TEST(EngineConcurrencyTest, LongLivedEngineStaysConsistentUnderChurn) {
  const std::size_t n = 2048;
  auto series = synth::ByName("random_walk", n, 11);
  ASSERT_TRUE(series.ok());
  MassEngine engine(*series);

  // Expected single row per length, computed serially first.
  const std::size_t kLengths[] = {8, 24, 60, 130, 300, 512};
  const std::size_t kRow[] = {5};
  std::vector<std::vector<double>> expected;
  for (const std::size_t length : kLengths) {
    expected.push_back(BatchDistances(engine, kRow, length));
    ASSERT_FALSE(expected.back().empty());
  }

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 12; ++i) {
        const std::size_t li = (t + static_cast<std::size_t>(i)) % 6;
        const std::vector<double> row =
            BatchDistances(engine, kRow, kLengths[li]);
        ASSERT_EQ(row.size(), expected[li].size());
        for (std::size_t j = 0; j < expected[li].size(); ++j) {
          ASSERT_EQ(row[j], expected[li][j])
              << "thread " << t << " iter " << i << " length "
              << kLengths[li];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

}  // namespace
}  // namespace valmod::mass
