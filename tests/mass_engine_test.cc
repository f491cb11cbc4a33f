// Parity tests for the cached MassEngine against the uncached
// mass::ComputeRowProfile / mass::DistanceProfile path: same numbers (to
// 1e-9) across lengths, offsets, constant-window rows, and the batched
// entry point.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "fft/fft.h"
#include "mass/engine.h"
#include "mass/mass.h"
#include "series/data_series.h"
#include "series/generators.h"

namespace valmod::mass {
namespace {

using series::DataSeries;

void ExpectRowParity(const RowProfile& cached, const RowProfile& uncached,
                     std::size_t offset, std::size_t length) {
  ASSERT_EQ(cached.dots.size(), uncached.dots.size());
  ASSERT_EQ(cached.distances.size(), uncached.distances.size());
  for (std::size_t j = 0; j < cached.dots.size(); ++j) {
    EXPECT_NEAR(cached.dots[j], uncached.dots[j],
                1e-9 * (1.0 + std::abs(uncached.dots[j])))
        << "offset=" << offset << " length=" << length << " j=" << j;
    EXPECT_NEAR(cached.distances[j], uncached.distances[j], 1e-9)
        << "offset=" << offset << " length=" << length << " j=" << j;
  }
}

// Cross-backend parity: dots to relative 1e-9, distances to 1e-9 on the
// squared-distance scale (the scale the dot products live on). Comparing
// raw distances would be wrong near zero: d = sqrt(2l(1 - rho)) maps a
// rounding-level dot difference at a self-match (true distance 0) to an
// ~1e-7 absolute distance difference — sqrt amplification, not backend
// disagreement.
void ExpectCrossBackendParity(const RowProfile& got, const RowProfile& want,
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

class EngineParityTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineParityTest, MatchesUncachedAcrossOffsets) {
  const std::size_t length = GetParam();
  const std::size_t n = 2048;
  auto series = synth::ByName("ecg", n, 7);
  ASSERT_TRUE(series.ok());

  MassEngine engine(*series);
  const std::size_t count = series->NumSubsequences(length);
  for (std::size_t offset :
       {std::size_t{0}, count / 3, count / 2, count - 1}) {
    auto cached = engine.ComputeRowProfile(offset, length);
    ASSERT_TRUE(cached.ok());
    auto uncached = ComputeRowProfile(*series, offset, length);
    ASSERT_TRUE(uncached.ok());
    ExpectRowParity(*cached, *uncached, offset, length);
  }
}

// Lengths straddle the cost-model crossover so both the direct-dot fallback
// and the cached-FFT path are exercised (at n = 2048 the FFT path wins
// above a few hundred points).
INSTANTIATE_TEST_SUITE_P(Lengths, EngineParityTest,
                         ::testing::Values(4, 16, 64, 256, 512, 1024));

TEST(MassEngineTest, ConstantWindowRowsMatchUncached) {
  // Sine, then a flat shelf, then noise: rows inside the shelf are
  // constant-window queries, rows straddling it mix both conventions.
  Rng rng(31);
  std::vector<double> values;
  for (std::size_t i = 0; i < 200; ++i) {
    values.push_back(std::sin(0.1 * static_cast<double>(i)));
  }
  values.insert(values.end(), 100, 2.5);
  for (std::size_t i = 0; i < 200; ++i) values.push_back(rng.Gaussian());
  auto series = series::DataSeries::Create(std::move(values));
  ASSERT_TRUE(series.ok());

  MassEngine engine(*series);
  const std::size_t length = 32;
  for (std::size_t offset : {std::size_t{100}, std::size_t{190},
                             std::size_t{230}, std::size_t{290},
                             std::size_t{350}}) {
    auto cached = engine.ComputeRowProfile(offset, length);
    ASSERT_TRUE(cached.ok());
    auto uncached = ComputeRowProfile(*series, offset, length);
    ASSERT_TRUE(uncached.ok());
    ExpectRowParity(*cached, *uncached, offset, length);
  }
}

// Batched rows go through the pair-packed transform (two queries per
// complex FFT, DIF bin order), while single auto calls may resolve to a
// different member of the family (at this size the batch prices out as
// pair-packed, the lone row as the half-spectrum single path). The
// mathematics agree but the floating-point evaluation order differs, so
// parity here is the cross-backend kind — dots to relative 1e-9, distances
// on the squared scale (a self-match at true distance 0 amplifies a
// rounding-level dot difference through the sqrt) — not bit-identity; that
// is inherent to packing, not a looseness in the implementation.
TEST(MassEngineTest, BatchedMatchesSingleCalls) {
  const std::size_t n = 1024;
  const std::size_t length = 512;  // FFT path at this size
  auto series = synth::ByName("random_walk", n, 3);
  ASSERT_TRUE(series.ok());

  MassEngine engine(*series);
  // Odd row count: the tail row exercises the single-query fallback.
  const std::vector<std::size_t> rows = {0, 17, 100, 311, 500};
  auto batched = engine.ComputeRowProfiles(rows, length, /*num_threads=*/3);
  ASSERT_TRUE(batched.ok());
  ASSERT_EQ(batched->size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    auto single = engine.ComputeRowProfile(rows[i], length);
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
  auto serial = engine.ComputeRowProfiles(rows, length, /*num_threads=*/1);
  auto threaded = engine.ComputeRowProfiles(rows, length, /*num_threads=*/4);
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
// order, so forcing each of the four against the direct-product reference
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
  auto reference =
      engine.ComputeRowProfiles(rows, length, /*num_threads=*/1,
                                ConvolutionBackend::kDirect);
  ASSERT_TRUE(reference.ok());
  for (ConvolutionBackend backend :
       {ConvolutionBackend::kDirect, ConvolutionBackend::kFftSingle,
        ConvolutionBackend::kFftPair, ConvolutionBackend::kOverlapSave}) {
    auto forced = engine.ComputeRowProfiles(rows, length, /*num_threads=*/3,
                                            backend);
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
        engine.ComputeRowProfile(40, length, ConvolutionBackend::kDirect);
    ASSERT_TRUE(reference.ok());
    for (ConvolutionBackend backend :
         {ConvolutionBackend::kFftSingle, ConvolutionBackend::kFftPair,
          ConvolutionBackend::kOverlapSave}) {
      auto forced = engine.ComputeRowProfile(40, length, backend);
      ASSERT_TRUE(forced.ok()) << ConvolutionBackendName(backend);
      SCOPED_TRACE(ConvolutionBackendName(backend));
      ExpectCrossBackendParity(*forced, *reference, 40, length);
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
    auto ols = engine.ComputeRowProfile(offset, length,
                                        ConvolutionBackend::kOverlapSave);
    ASSERT_TRUE(ols.ok());
    auto direct =
        engine.ComputeRowProfile(offset, length, ConvolutionBackend::kDirect);
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
  auto serial = engine.ComputeRowProfiles(rows, length, /*num_threads=*/1,
                                          ConvolutionBackend::kOverlapSave);
  auto threaded = engine.ComputeRowProfiles(rows, length, /*num_threads=*/4,
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
    auto ols = engine.ComputeRowProfile(5, length,
                                        ConvolutionBackend::kOverlapSave);
    ASSERT_TRUE(ols.ok());
    auto direct =
        engine.ComputeRowProfile(5, length, ConvolutionBackend::kDirect);
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
            ConvolutionBackend::kFftSingle);
  EXPECT_EQ(ChooseConvolutionBackend(std::size_t{1} << 15, 1024,
                                     (std::size_t{1} << 15) - 1023),
            ConvolutionBackend::kOverlapSave);
  EXPECT_EQ(ChooseConvolutionBackend(std::size_t{1} << 17, 1024,
                                     (std::size_t{1} << 17) - 1023),
            ConvolutionBackend::kOverlapSave);
}

TEST(MassEngineTest, DistanceProfileMatchesUncached) {
  const std::size_t n = 1500;
  auto series = synth::ByName("ecg", n, 19);
  ASSERT_TRUE(series.ok());
  Rng rng(23);
  std::vector<double> query(200);
  for (auto& x : query) x = rng.Gaussian();

  MassEngine engine(*series);
  auto cached = engine.DistanceProfile(query);
  ASSERT_TRUE(cached.ok());
  auto uncached = DistanceProfile(*series, query);
  ASSERT_TRUE(uncached.ok());
  ASSERT_EQ(cached->size(), uncached->size());
  for (std::size_t j = 0; j < cached->size(); ++j) {
    EXPECT_NEAR((*cached)[j], (*uncached)[j], 1e-9) << "j=" << j;
  }
}

// DistanceProfile routes through the same cost model as ComputeRowProfile;
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
            ConvolutionBackend::kFftSingle);
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
  // must not be perturbed by spectra cached for earlier ones.
  const std::size_t n = 1024;
  auto series = synth::ByName("ecg", n, 41);
  ASSERT_TRUE(series.ok());
  MassEngine engine(*series);
  for (std::size_t length = 500; length <= 520; ++length) {
    auto cached = engine.ComputeRowProfile(123, length);
    ASSERT_TRUE(cached.ok());
    auto uncached = ComputeRowProfile(*series, 123, length);
    ASSERT_TRUE(uncached.ok());
    ExpectRowParity(*cached, *uncached, 123, length);
  }
}

TEST(MassEngineTest, RejectsInvalidWindows) {
  auto series = synth::ByName("ecg", 256, 1);
  ASSERT_TRUE(series.ok());
  MassEngine engine(*series);
  EXPECT_FALSE(engine.ComputeRowProfile(0, 0).ok());
  EXPECT_FALSE(engine.ComputeRowProfile(200, 100).ok());
  const std::vector<std::size_t> rows = {0, 250};
  EXPECT_FALSE(engine.ComputeRowProfiles(rows, 100).ok());
  std::vector<double> long_query(300, 1.0);
  EXPECT_FALSE(engine.DistanceProfile(long_query).ok());
}

// ---------------------------------------------------------------------------
// Chunk-spectra adoption: the streaming-append carry-over path. Both series
// use CreateWithCenter(values, 0.0) — the registry's streaming convention —
// so the shorter series' centered values are a bit-identical prefix of the
// longer one's.
// ---------------------------------------------------------------------------

TEST(MassEngineAdoptionTest, AdoptedSpectraAreBitIdenticalToFresh) {
  const std::size_t prev_n = 1900;
  const std::size_t n = 2048;
  const std::size_t length = 64;
  auto full = synth::ByName("random_walk", n, 29);
  ASSERT_TRUE(full.ok());
  const std::vector<double> values(full->values().begin(),
                                   full->values().end());

  auto prev_series = DataSeries::CreateWithCenter(
      {values.begin(), values.begin() + prev_n}, 0.0);
  ASSERT_TRUE(prev_series.ok());
  auto next_series = DataSeries::CreateWithCenter(values, 0.0);
  ASSERT_TRUE(next_series.ok());
  auto fresh_series = DataSeries::CreateWithCenter(values, 0.0);
  ASSERT_TRUE(fresh_series.ok());

  MassEngine prev(*prev_series);
  // Populate the previous engine's chunk spectra at this length's size.
  ASSERT_TRUE(
      prev.ComputeRowProfile(0, length, ConvolutionBackend::kOverlapSave)
          .ok());
  ASSERT_EQ(prev.ChunkSpectraCacheSizeForTesting(), 1u);

  MassEngine adopted(*next_series);
  const std::size_t copied = adopted.AdoptChunkSpectraFrom(prev, prev_n);
  // Every full chunk inside the unchanged prefix is copied, the rest (the
  // appended suffix and the previously zero-padded tail) recomputed.
  const std::size_t chunk = fft::OverlapSaveFftSize(length);
  const std::size_t hop = chunk / 2;
  ASSERT_GE(prev_n, chunk);
  EXPECT_EQ(copied, (prev_n - chunk) / hop + 1);
  EXPECT_EQ(adopted.ChunkSpectraCacheSizeForTesting(), 1u);

  MassEngine fresh(*fresh_series);
  for (const std::size_t offset : {std::size_t{0}, prev_n - length, n - length}) {
    auto a = adopted.ComputeRowProfile(offset, length,
                                       ConvolutionBackend::kOverlapSave);
    auto f = fresh.ComputeRowProfile(offset, length,
                                     ConvolutionBackend::kOverlapSave);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(f.ok());
    ASSERT_EQ(a->distances.size(), f->distances.size());
    for (std::size_t j = 0; j < f->distances.size(); ++j) {
      // Bit identity, not tolerance: adoption copies the exact bins a
      // fresh build would have produced.
      EXPECT_EQ(a->dots[j], f->dots[j]) << "offset=" << offset << " j=" << j;
      EXPECT_EQ(a->distances[j], f->distances[j])
          << "offset=" << offset << " j=" << j;
    }
  }
}

TEST(MassEngineAdoptionTest, PrefixMismatchAdoptsNothing) {
  auto base = synth::ByName("sine", 1024, 31);
  ASSERT_TRUE(base.ok());
  std::vector<double> values(base->values().begin(), base->values().end());
  auto prev_series = DataSeries::CreateWithCenter(values, 0.0);
  ASSERT_TRUE(prev_series.ok());
  values[100] += 0.5;  // a re-anchor or slide would change the prefix
  values.push_back(0.25);
  auto next_series = DataSeries::CreateWithCenter(values, 0.0);
  ASSERT_TRUE(next_series.ok());

  MassEngine prev(*prev_series);
  ASSERT_TRUE(
      prev.ComputeRowProfile(0, 32, ConvolutionBackend::kOverlapSave).ok());

  MassEngine next(*next_series);
  EXPECT_EQ(next.AdoptChunkSpectraFrom(prev, 1024), 0u);
  EXPECT_EQ(next.ChunkSpectraCacheSizeForTesting(), 0u);
  // Out-of-range prefixes are rejected, not clamped.
  EXPECT_EQ(next.AdoptChunkSpectraFrom(prev, 5000), 0u);
  EXPECT_EQ(next.AdoptChunkSpectraFrom(prev, 0), 0u);
}

TEST(MassEngineTest, CacheMemoryBytesGrowsWithUse) {
  auto series = synth::ByName("ecg", 2048, 17);
  ASSERT_TRUE(series.ok());
  MassEngine engine(*series);
  const std::size_t before = engine.CacheMemoryBytes();
  ASSERT_TRUE(
      engine.ComputeRowProfile(0, 64, ConvolutionBackend::kOverlapSave).ok());
  ASSERT_TRUE(
      engine.ComputeRowProfile(0, 64, ConvolutionBackend::kFftSingle).ok());
  EXPECT_GT(engine.CacheMemoryBytes(), before);
}

}  // namespace
}  // namespace valmod::mass
