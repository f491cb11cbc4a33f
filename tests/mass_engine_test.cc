// Tests for the MassEngine: every convolution backend and entry point
// (batches of one, two and more rows, external queries) against the direct
// products and the brute-force definition, batch pairing independent of
// the thread count, and the engine's bounded caches.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "mass/backend.h"
#include "mass/engine.h"
#include "mass/mass.h"
#include "series/data_series.h"
#include "series/generators.h"

namespace valmod::mass {
namespace {

using series::DataSeries;

/// One self-join row: its dots, and the distances DistancesFromDots derives
/// from them.
struct Row {
  std::vector<double> dots;
  std::vector<double> distances;
};

/// Rows at `offsets` through one engine batch, each with its distances.
Result<std::vector<Row>> ComputeRows(
    MassEngine& engine, std::span<const std::size_t> offsets,
    std::size_t length, int num_threads = 1,
    ConvolutionBackend backend = ConvolutionBackend::kAuto) {
  VALMOD_ASSIGN_OR_RETURN(
      std::vector<std::vector<double>> dots,
      engine.ComputeRowProfiles(offsets, length, num_threads, backend));
  std::vector<Row> rows(offsets.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    rows[r].dots = std::move(dots[r]);
    DistancesFromDots(engine.series(), offsets[r], length, rows[r].dots,
                      &rows[r].distances);
  }
  return rows;
}

/// One row as a 1-row batch.
Result<Row> ComputeRow(MassEngine& engine, std::size_t offset,
                       std::size_t length,
                       ConvolutionBackend backend = ConvolutionBackend::kAuto) {
  const std::size_t offsets[] = {offset};
  VALMOD_ASSIGN_OR_RETURN(std::vector<Row> rows,
                          ComputeRows(engine, offsets, length, 1, backend));
  return std::move(rows[0]);
}

// Cross-backend parity: dots to relative 1e-9, distances to 1e-9 on the
// squared-distance scale (the scale the dot products live on). Comparing
// raw distances would be wrong near zero: d = sqrt(2l(1 - rho)) maps a
// rounding-level dot difference at a self-match (true distance 0) to an
// ~1e-7 absolute distance difference — sqrt amplification, not backend
// disagreement.
void ExpectCrossBackendParity(const Row& got, const Row& want,
                              std::size_t offset, std::size_t length) {
  ASSERT_EQ(got.dots.size(), want.dots.size());
  ASSERT_EQ(got.distances.size(), want.distances.size());
  for (std::size_t j = 0; j < got.dots.size(); ++j) {
    EXPECT_NEAR(got.dots[j], want.dots[j],
                1e-9 * (1.0 + std::abs(want.dots[j])))
        << "offset=" << offset << " length=" << length << " j=" << j;
    if (want.distances[j] == std::numeric_limits<double>::infinity()) {
      EXPECT_EQ(got.distances[j], want.distances[j]);
      continue;
    }
    EXPECT_NEAR(got.distances[j] * got.distances[j],
                want.distances[j] * want.distances[j],
                1e-8 * (1.0 + static_cast<double>(length)))
        << "offset=" << offset << " length=" << length << " j=" << j;
  }
}

// Batched rows go through the pair-packed transform two queries per
// complex FFT, while a single call carries one query with the second lane
// empty. The mathematics agree but the floating-point evaluation order
// differs (the lanes mix inside the transform), so parity here is the
// cross-backend kind — dots to relative 1e-9, distances on the squared
// scale (a self-match at true distance 0 amplifies a rounding-level dot
// difference through the sqrt) — not bit-identity; that is inherent to
// packing, not a looseness in the implementation.
TEST(MassEngineTest, BatchedMatchesSingleCalls) {
  const std::size_t n = 1024;
  const std::size_t length = 512;  // FFT path at this size
  auto series = synth::ByName("random_walk", n, 3);
  ASSERT_TRUE(series.ok());

  MassEngine engine(*series);
  // Odd row count: the tail row runs with an empty second lane.
  const std::vector<std::size_t> rows = {0, 17, 100, 311, 500};
  auto batched = ComputeRows(engine, rows, length, /*num_threads=*/3);
  ASSERT_TRUE(batched.ok());
  ASSERT_EQ(batched->size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    auto single = ComputeRow(engine, rows[i], length);
    ASSERT_TRUE(single.ok());
    ExpectCrossBackendParity((*batched)[i], *single, rows[i], length);
  }
}

TEST(MassEngineTest, BatchedPairingIndependentOfThreadCount) {
  const std::size_t n = 2048;
  const std::size_t length = 1024;  // FFT path
  auto series = synth::ByName("ecg", n, 13);
  ASSERT_TRUE(series.ok());

  MassEngine engine(*series);
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r + length <= n; r += 97) rows.push_back(r);
  auto serial = ComputeRows(engine, rows, length, /*num_threads=*/1);
  auto threaded = ComputeRows(engine, rows, length, /*num_threads=*/4);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(threaded.ok());
  ASSERT_EQ(serial->size(), threaded->size());
  // Pairing depends only on row order, so the results must be bit-equal
  // across thread counts.
  for (std::size_t i = 0; i < serial->size(); ++i) {
    ASSERT_EQ((*serial)[i].distances.size(), (*threaded)[i].distances.size());
    for (std::size_t j = 0; j < (*serial)[i].distances.size(); ++j) {
      EXPECT_EQ((*serial)[i].dots[j], (*threaded)[i].dots[j])
          << "row " << rows[i] << " j=" << j;
      EXPECT_EQ((*serial)[i].distances[j], (*threaded)[i].distances[j])
          << "row " << rows[i] << " j=" << j;
    }
  }
}

// Every backend computes the same dot products in a different evaluation
// order, so forcing each of the three against the direct-product reference
// must agree to relative 1e-9 — on plain rows, on constant-window rows,
// and for batched and single-row entry points alike.
TEST(MassEngineTest, ForcedBackendsAgreeOnBatches) {
  const std::size_t n = 2048;
  const std::size_t length = 128;
  auto series = synth::ByName("ecg", n, 17);
  ASSERT_TRUE(series.ok());

  MassEngine engine(*series);
  // Odd row count: every family exercises its single-lane tail too.
  const std::vector<std::size_t> rows = {0, 3, 500, 501, 1000, 1500, 1900};
  auto reference = ComputeRows(engine, rows, length, /*num_threads=*/1,
                               ConvolutionBackend::kDirect);
  ASSERT_TRUE(reference.ok());
  for (ConvolutionBackend backend :
       {ConvolutionBackend::kDirect, ConvolutionBackend::kFftPair,
        ConvolutionBackend::kOverlapSave}) {
    auto forced =
        ComputeRows(engine, rows, length, /*num_threads=*/3, backend);
    ASSERT_TRUE(forced.ok()) << ConvolutionBackendName(backend);
    ASSERT_EQ(forced->size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      SCOPED_TRACE(ConvolutionBackendName(backend));
      ExpectCrossBackendParity((*forced)[i], (*reference)[i], rows[i],
                               length);
    }
  }
}

TEST(MassEngineTest, ForcedBackendsAgreeOnSingleRows) {
  const std::size_t n = 1024;
  auto series = synth::ByName("random_walk", n, 23);
  ASSERT_TRUE(series.ok());

  MassEngine engine(*series);
  // Lengths straddle the chunk-size steps of the overlap-save path (the
  // 4*m power-of-two jump at 16 -> 17 and 128 -> 129) so queries land both
  // well inside a chunk and right at its alias boundary.
  for (std::size_t length : {std::size_t{16}, std::size_t{17},
                             std::size_t{128}, std::size_t{129},
                             std::size_t{200}}) {
    auto reference =
        ComputeRow(engine, 40, length, ConvolutionBackend::kDirect);
    ASSERT_TRUE(reference.ok());
    for (ConvolutionBackend backend :
         {ConvolutionBackend::kFftPair, ConvolutionBackend::kOverlapSave}) {
      auto forced = ComputeRow(engine, 40, length, backend);
      ASSERT_TRUE(forced.ok()) << ConvolutionBackendName(backend);
      SCOPED_TRACE(ConvolutionBackendName(backend));
      ExpectCrossBackendParity(*forced, *reference, 40, length);
    }
  }
}

// Squared-scale parity against the brute-force z-normalized definition
// (same reasoning as ExpectCrossBackendParity: compare d^2, not d).
void ExpectMatchesBrute(const std::vector<double>& got,
                        const std::vector<double>& brute, std::size_t length,
                        const std::string& context) {
  ASSERT_EQ(got.size(), brute.size()) << context;
  for (std::size_t j = 0; j < got.size(); ++j) {
    EXPECT_NEAR(got[j] * got[j], brute[j] * brute[j],
                1e-8 * (1.0 + static_cast<double>(length)))
        << context << " j=" << j;
  }
}

std::uint64_t RowsOn(const EngineCounters& counters,
                     ConvolutionBackend backend) {
  switch (backend) {
    case ConvolutionBackend::kDirect:
      return counters.rows_direct;
    case ConvolutionBackend::kFftPair:
      return counters.rows_fft_pair;
    case ConvolutionBackend::kOverlapSave:
      return counters.rows_overlap_save;
    case ConvolutionBackend::kAuto:
      break;
  }
  return 0;
}

struct MatrixShape {
  std::size_t n;
  std::size_t length;
  ConvolutionBackend auto_choice;  // where kAuto lands for this shape
};

// One shape per chooser region; for each, every backend through every
// entry point — DistanceProfile, and batches of one, two (pairs only) and
// three rows (pairs plus an odd tail) — must match the brute-force distance
// profile of the same window.
TEST(MassEngineTest, BackendMatrixMatchesBruteForce) {
  const MatrixShape shapes[] = {
      {600, 16, ConvolutionBackend::kDirect},
      {2048, 1024, ConvolutionBackend::kFftPair},
      {std::size_t{1} << 15, 1024, ConvolutionBackend::kOverlapSave},
  };
  for (const MatrixShape& shape : shapes) {
    const std::size_t count = shape.n - shape.length + 1;
    ASSERT_EQ(ChooseConvolutionBackend(shape.n, shape.length, count),
              shape.auto_choice);
    ASSERT_EQ(ChooseConvolutionBackend(shape.n, shape.length, count,
                                       /*batched=*/true),
              shape.auto_choice);
    auto series = synth::ByName("random_walk", shape.n, 53);
    ASSERT_TRUE(series.ok());

    const std::vector<std::size_t> rows = {0, count / 2, count - 1};
    std::vector<std::vector<double>> brute(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      auto window = series->Subsequence(rows[r], shape.length);
      ASSERT_TRUE(window.ok());
      auto profile = BruteDistanceProfile(*series, *window);
      ASSERT_TRUE(profile.ok());
      brute[r] = std::move(*profile);
    }

    for (ConvolutionBackend backend :
         {ConvolutionBackend::kDirect, ConvolutionBackend::kFftPair,
          ConvolutionBackend::kOverlapSave}) {
      const std::string context =
          std::string(ConvolutionBackendName(backend)) +
          " n=" + std::to_string(shape.n) +
          " length=" + std::to_string(shape.length);
      MassEngine engine(*series);
      const EngineCounters before = EngineCountersSnapshot();

      auto window = series->Subsequence(rows[0], shape.length);
      ASSERT_TRUE(window.ok());
      auto distance = engine.DistanceProfile(*window, backend);
      ASSERT_TRUE(distance.ok()) << context;
      ExpectMatchesBrute(*distance, brute[0], shape.length,
                         context + " distance");

      // Batches of one row (the middle one), two and three rows.
      const std::vector<std::vector<std::size_t>> batches = {
          {1}, {0, 2}, {0, 1, 2}};
      std::uint64_t batched_rows = 0;
      for (const std::vector<std::size_t>& picks : batches) {
        std::vector<std::size_t> offsets;
        for (std::size_t p : picks) offsets.push_back(rows[p]);
        auto profiles = ComputeRows(engine, offsets, shape.length,
                                    /*num_threads=*/2, backend);
        ASSERT_TRUE(profiles.ok()) << context;
        ASSERT_EQ(profiles->size(), picks.size());
        for (std::size_t i = 0; i < picks.size(); ++i) {
          ExpectMatchesBrute((*profiles)[i].distances, brute[picks[i]],
                             shape.length,
                             context + " batch of " +
                                 std::to_string(picks.size()));
        }
        batched_rows += picks.size();
      }

      // Every row ran on the forced backend; rows_fft_single, which no
      // backend counts any more, never moves.
      const EngineCounters after = EngineCountersSnapshot();
      EXPECT_EQ(RowsOn(after, backend) - RowsOn(before, backend),
                1 + batched_rows)
          << context;
      EXPECT_EQ(after.rows_fft_single, 0u) << context;
    }
  }
}

// A batch's odd tail row runs its family's pipeline with an empty second
// lane, the same kernel a 1-row batch uses, so under kAuto the tail is
// bit-identical to the 1-row batch whenever both resolve to the same
// backend.
TEST(MassEngineTest, AutoBatchOddTailBitIdenticalToSingleRow) {
  const MatrixShape shapes[] = {
      {2048, 1024, ConvolutionBackend::kFftPair},
      {std::size_t{1} << 15, 1024, ConvolutionBackend::kOverlapSave},
  };
  for (const MatrixShape& shape : shapes) {
    const std::size_t count = shape.n - shape.length + 1;
    ASSERT_EQ(ChooseConvolutionBackend(shape.n, shape.length, count),
              shape.auto_choice);
    ASSERT_EQ(ChooseConvolutionBackend(shape.n, shape.length, count,
                                       /*batched=*/true),
              shape.auto_choice);
    auto series = synth::ByName("ecg", shape.n, 59);
    ASSERT_TRUE(series.ok());
    MassEngine engine(*series);
    const std::vector<std::size_t> rows = {3, count / 3, count / 2, 7, 1000};
    auto batched = ComputeRows(engine, rows, shape.length,
                               /*num_threads=*/3);
    ASSERT_TRUE(batched.ok());
    auto single = ComputeRow(engine, rows.back(), shape.length);
    ASSERT_TRUE(single.ok());
    const Row& tail = batched->back();
    ASSERT_EQ(tail.dots.size(), single->dots.size());
    for (std::size_t j = 0; j < tail.dots.size(); ++j) {
      ASSERT_EQ(tail.dots[j], single->dots[j]) << "n=" << shape.n
                                               << " j=" << j;
      ASSERT_EQ(tail.distances[j], single->distances[j])
          << "n=" << shape.n << " j=" << j;
    }
  }
}

TEST(MassEngineTest, OverlapSaveHandlesConstantWindows) {
  // Sine, flat shelf, noise — rows inside and straddling the shelf hit the
  // constant-window distance conventions on top of the chunked dots.
  Rng rng(37);
  std::vector<double> values;
  for (std::size_t i = 0; i < 300; ++i) {
    values.push_back(std::sin(0.07 * static_cast<double>(i)));
  }
  values.insert(values.end(), 120, 1.25);
  for (std::size_t i = 0; i < 300; ++i) values.push_back(rng.Gaussian());
  auto series = series::DataSeries::Create(std::move(values));
  ASSERT_TRUE(series.ok());

  MassEngine engine(*series);
  const std::size_t length = 48;
  for (std::size_t offset : {std::size_t{250}, std::size_t{310},
                             std::size_t{390}, std::size_t{500}}) {
    auto ols =
        ComputeRow(engine, offset, length, ConvolutionBackend::kOverlapSave);
    ASSERT_TRUE(ols.ok());
    auto direct =
        ComputeRow(engine, offset, length, ConvolutionBackend::kDirect);
    ASSERT_TRUE(direct.ok());
    ExpectCrossBackendParity(*ols, *direct, offset, length);
  }
}

TEST(MassEngineTest, OverlapSaveBatchesIndependentOfThreadCount) {
  const std::size_t n = 4096;
  const std::size_t length = 256;
  auto series = synth::ByName("ecg", n, 43);
  ASSERT_TRUE(series.ok());

  MassEngine engine(*series);
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r + length <= n; r += 131) rows.push_back(r);
  auto serial = ComputeRows(engine, rows, length, /*num_threads=*/1,
                            ConvolutionBackend::kOverlapSave);
  auto threaded = ComputeRows(engine, rows, length, /*num_threads=*/4,
                              ConvolutionBackend::kOverlapSave);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(threaded.ok());
  ASSERT_EQ(serial->size(), threaded->size());
  for (std::size_t i = 0; i < serial->size(); ++i) {
    for (std::size_t j = 0; j < (*serial)[i].distances.size(); ++j) {
      EXPECT_EQ((*serial)[i].dots[j], (*threaded)[i].dots[j])
          << "row " << rows[i] << " j=" << j;
      EXPECT_EQ((*serial)[i].distances[j], (*threaded)[i].distances[j])
          << "row " << rows[i] << " j=" << j;
    }
  }
}

TEST(MassEngineTest, ChunkSpectraCacheIsBounded) {
  // At ~32 bytes per series point per chunk size, a wide length sweep must
  // not pin one spectra set per power-of-two band forever. Each length
  // below maps to a distinct chunk size (4x, next power of two), and the
  // results must stay correct across evictions.
  const std::size_t n = 1024;
  auto series = synth::ByName("ecg", n, 47);
  ASSERT_TRUE(series.ok());
  MassEngine engine(*series);
  std::size_t max_cached = 0;
  for (std::size_t length : {std::size_t{16}, std::size_t{32},
                             std::size_t{64}, std::size_t{128},
                             std::size_t{256}, std::size_t{64},
                             std::size_t{16}}) {
    auto ols = ComputeRow(engine, 5, length, ConvolutionBackend::kOverlapSave);
    ASSERT_TRUE(ols.ok());
    auto direct = ComputeRow(engine, 5, length, ConvolutionBackend::kDirect);
    ASSERT_TRUE(direct.ok());
    ExpectCrossBackendParity(*ols, *direct, 5, length);
    max_cached = std::max(max_cached, engine.ChunkSpectraCacheSizeForTesting());
  }
  EXPECT_LE(max_cached, 4u);
}

// Pins the shape of the three-way crossover: short windows go direct, a
// query that is a sizable fraction of the series keeps the full-size
// transform, and a long series with a comparatively short query switches
// to overlap-save.
TEST(BackendCostModelTest, CrossoverShape) {
  EXPECT_EQ(ChooseConvolutionBackend(600, 16, 585),
            ConvolutionBackend::kDirect);
  EXPECT_EQ(ChooseConvolutionBackend(2048, 1024, 1025),
            ConvolutionBackend::kFftPair);
  EXPECT_EQ(ChooseConvolutionBackend(std::size_t{1} << 15, 1024,
                                     (std::size_t{1} << 15) - 1023),
            ConvolutionBackend::kOverlapSave);
  EXPECT_EQ(ChooseConvolutionBackend(std::size_t{1} << 17, 1024,
                                     (std::size_t{1} << 17) - 1023),
            ConvolutionBackend::kOverlapSave);
}

// DistanceProfile routes through the same cost model as a 1-row batch;
// both the direct-product branch (short query) and the FFT branch (long
// query) must agree with the brute-force definition. The configurations
// are asserted to actually land on opposite sides of the crossover so the
// test fails loudly if the cost model shifts from under it.
TEST(MassEngineTest, DistanceProfileDirectPathMatchesBruteForce) {
  const std::size_t n = 600;
  const std::size_t length = 16;
  ASSERT_EQ(ChooseConvolutionBackend(n, length, n - length + 1),
            ConvolutionBackend::kDirect);
  auto series = synth::ByName("ecg", n, 29);
  ASSERT_TRUE(series.ok());
  Rng rng(31);
  std::vector<double> query(length);
  for (auto& x : query) x = rng.Gaussian();

  MassEngine engine(*series);
  auto fast = engine.DistanceProfile(query);
  ASSERT_TRUE(fast.ok());
  auto brute = BruteDistanceProfile(*series, query);
  ASSERT_TRUE(brute.ok());
  ASSERT_EQ(fast->size(), brute->size());
  for (std::size_t j = 0; j < fast->size(); ++j) {
    EXPECT_NEAR((*fast)[j], (*brute)[j], 1e-5) << "j=" << j;
  }
}

TEST(MassEngineTest, DistanceProfileFftPathMatchesBruteForce) {
  const std::size_t n = 2048;
  const std::size_t length = 1024;
  ASSERT_EQ(ChooseConvolutionBackend(n, length, n - length + 1),
            ConvolutionBackend::kFftPair);
  auto series = synth::ByName("random_walk", n, 37);
  ASSERT_TRUE(series.ok());
  Rng rng(41);
  std::vector<double> query(length);
  for (auto& x : query) x = rng.Gaussian();

  MassEngine engine(*series);
  auto fast = engine.DistanceProfile(query);
  ASSERT_TRUE(fast.ok());
  auto brute = BruteDistanceProfile(*series, query);
  ASSERT_TRUE(brute.ok());
  ASSERT_EQ(fast->size(), brute->size());
  for (std::size_t j = 0; j < fast->size(); ++j) {
    EXPECT_NEAR((*fast)[j], (*brute)[j], 1e-5) << "j=" << j;
  }
}

TEST(MassEngineTest, ReusedEngineStaysConsistentAcrossLengths) {
  // The VALMOD pattern: one engine queried at many lengths; later lengths
  // must not be perturbed by spectra cached for earlier ones, so each row
  // is bit-identical to the same row from a fresh engine.
  const std::size_t n = 1024;
  auto series = synth::ByName("ecg", n, 41);
  ASSERT_TRUE(series.ok());
  MassEngine engine(*series);
  for (std::size_t length = 500; length <= 520; ++length) {
    auto reused = ComputeRow(engine, 123, length);
    ASSERT_TRUE(reused.ok());
    MassEngine fresh_engine(*series);
    auto fresh = ComputeRow(fresh_engine, 123, length);
    ASSERT_TRUE(fresh.ok());
    ASSERT_EQ(reused->dots.size(), fresh->dots.size());
    for (std::size_t j = 0; j < fresh->dots.size(); ++j) {
      ASSERT_EQ(reused->dots[j], fresh->dots[j])
          << "length=" << length << " j=" << j;
    }
  }
}

TEST(MassEngineTest, RejectsInvalidWindows) {
  auto series = synth::ByName("ecg", 256, 1);
  ASSERT_TRUE(series.ok());
  MassEngine engine(*series);
  EXPECT_FALSE(ComputeRow(engine, 0, 0).ok());
  EXPECT_FALSE(ComputeRow(engine, 200, 100).ok());
  const std::vector<std::size_t> rows = {0, 250};
  EXPECT_FALSE(engine.ComputeRowProfiles(rows, 100).ok());
  std::vector<double> long_query(300, 1.0);
  EXPECT_FALSE(engine.DistanceProfile(long_query).ok());
}

TEST(MassEngineTest, CacheMemoryBytesGrowsWithUse) {
  auto series = synth::ByName("ecg", 2048, 17);
  ASSERT_TRUE(series.ok());
  MassEngine engine(*series);
  const std::size_t before = engine.CacheMemoryBytes();
  ASSERT_TRUE(ComputeRow(engine, 0, 64, ConvolutionBackend::kOverlapSave).ok());
  ASSERT_TRUE(ComputeRow(engine, 0, 64, ConvolutionBackend::kFftPair).ok());
  EXPECT_GT(engine.CacheMemoryBytes(), before);
}

}  // namespace
}  // namespace valmod::mass
