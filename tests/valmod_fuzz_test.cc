// Randomized exactness sweep: VALMOD vs the naive per-length baseline on
// randomly drawn workloads, shapes, ranges, and parameters. Each seed
// derives one full configuration; any divergence of the per-length top-k
// distances fails the property. A second tier pins the sweep shape (long
// lengths, few rows certify) where partial-profile rows grow and recomputed
// rows come from cached dot rows or from MASS.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "baselines/stomp_range.h"
#include "common/rng.h"
#include "core/valmod.h"
#include "mass/engine.h"
#include "series/generators.h"

namespace valmod::core {
namespace {

const char* const kGenerators[] = {"random_walk", "sine",       "ecg",
                                   "astro",       "entomology", "seismic"};

class ValmodFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValmodFuzzTest, RandomConfigurationStaysExact) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 7919 + 13);

  const std::string generator =
      kGenerators[rng.UniformInt(0, 5)];
  const std::size_t n = static_cast<std::size_t>(rng.UniformInt(300, 700));
  const std::size_t lmin = static_cast<std::size_t>(rng.UniformInt(8, 40));
  const std::size_t lmax =
      lmin + static_cast<std::size_t>(rng.UniformInt(5, 40));
  const std::size_t k = static_cast<std::size_t>(rng.UniformInt(1, 3));
  const std::size_t p = static_cast<std::size_t>(rng.UniformInt(1, 12));
  const double exclusion = rng.Flip(0.5) ? 0.5 : 0.25;
  SCOPED_TRACE("generator=" + generator + " n=" + std::to_string(n) +
               " lmin=" + std::to_string(lmin) +
               " lmax=" + std::to_string(lmax) + " k=" + std::to_string(k) +
               " p=" + std::to_string(p) +
               " excl=" + std::to_string(exclusion));

  auto series = synth::ByName(generator, n, seed);
  ASSERT_TRUE(series.ok());

  ValmodOptions options;
  options.min_length = lmin;
  options.max_length = lmax;
  options.k = k;
  options.p = p;
  options.exclusion_fraction = exclusion;
  auto result = RunValmod(*series, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  baselines::StompRangeOptions baseline_options;
  baseline_options.min_length = lmin;
  baseline_options.max_length = lmax;
  baseline_options.k = k;
  baseline_options.exclusion_fraction = exclusion;
  auto baseline = baselines::RunStompRange(*series, baseline_options);
  ASSERT_TRUE(baseline.ok());

  ASSERT_EQ(result->per_length.size(), baseline->size());
  for (std::size_t i = 0; i < baseline->size(); ++i) {
    ASSERT_EQ(result->per_length[i].motifs.size(),
              (*baseline)[i].motifs.size())
        << "length " << (*baseline)[i].length;
    for (std::size_t m = 0; m < (*baseline)[i].motifs.size(); ++m) {
      EXPECT_NEAR(result->per_length[i].motifs[m].distance,
                  (*baseline)[i].motifs[m].distance, 3e-5)
          << "length " << (*baseline)[i].length << " rank " << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValmodFuzzTest,
                         ::testing::Range<uint64_t>(1, 25));

struct SweepShape {
  const char* generator;
  std::size_t n, lmin, lmax, k, p;
  /// Points of one constant stretch starting at n / 3; 0 for none.
  std::size_t plateau = 0;
};

// Long lengths over wide ranges, where most rows fail certification and
// recomputed rows grow their capacity. Every shape grows rows; in all but
// the first, growth also runs into the set's budget and is refused for
// some rows. Recomputed rows derive from cached dot rows where one is in
// reach. The n=4096 shape recomputes about 400 rows per length against a
// cache of 16 rows, so rows are evicted and re-anchored by MASS. The
// plateau makes derived rows cross constant windows; it is shorter than
// 1.5 lmin, so no two constant windows pair up at distance 0.
constexpr SweepShape kSweepShapes[] = {
    {"random_walk", 1024, 200, 240, 1, 10},
    {"random_walk", 1024, 200, 240, 3, 5},
    {"seismic", 1500, 150, 220, 2, 2},
    {"random_walk", 2048, 300, 380, 2, 4},
    {"random_walk", 4096, 256, 272, 3, 2},
    {"random_walk", 1500, 100, 130, 2, 3, 140},
};

void PrintTo(const SweepShape& shape, std::ostream* out) {
  *out << shape.generator << " n=" << shape.n << " l=" << shape.lmin << "-"
       << shape.lmax << " k=" << shape.k << " p=" << shape.p
       << " plateau=" << shape.plateau;
}

series::DataSeries SweepSeries(const SweepShape& shape) {
  auto series = synth::ByName(shape.generator, shape.n, 1);
  EXPECT_TRUE(series.ok());
  if (shape.plateau == 0) return std::move(*series);
  std::vector<double> values(series->values().begin(),
                             series->values().end());
  const std::size_t from = shape.n / 3;
  std::fill(values.begin() + from, values.begin() + from + shape.plateau,
            values[from]);
  auto flat = series::DataSeries::Create(std::move(values));
  EXPECT_TRUE(flat.ok());
  return std::move(*flat);
}

class ValmodSweepShapeTest : public ::testing::TestWithParam<SweepShape> {};

TEST_P(ValmodSweepShapeTest, ExactAndThreadInvariant) {
  const SweepShape& shape = GetParam();
  const series::DataSeries series = SweepSeries(shape);

  baselines::StompRangeOptions baseline_options;
  baseline_options.min_length = shape.lmin;
  baseline_options.max_length = shape.lmax;
  baseline_options.k = shape.k;
  auto baseline = baselines::RunStompRange(series, baseline_options);
  ASSERT_TRUE(baseline.ok());

  std::vector<ValmodResult> runs;
  for (int threads : {1, 4}) {
    ValmodOptions options;
    options.min_length = shape.lmin;
    options.max_length = shape.lmax;
    options.k = shape.k;
    options.p = shape.p;
    options.num_threads = threads;
    const mass::EngineCounters before = mass::EngineCountersSnapshot();
    auto result = RunValmod(series, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const mass::EngineCounters after = mass::EngineCountersSnapshot();
    // Both recompute paths ran: some rows were anchored by MASS, the rest
    // derived from cached dot rows.
    std::size_t recomputed = 0;
    for (const LengthStats& stats : result->stats) {
      recomputed += stats.recomputed_rows;
    }
    const std::uint64_t anchored =
        (after.rows_overlap_save - before.rows_overlap_save) +
        (after.rows_fft_pair - before.rows_fft_pair) +
        (after.rows_direct - before.rows_direct);
    EXPECT_GT(anchored, 0u) << "threads " << threads;
    EXPECT_LT(anchored, recomputed) << "threads " << threads;
    ASSERT_EQ(result->per_length.size(), baseline->size());
    for (std::size_t i = 0; i < baseline->size(); ++i) {
      const auto& want = (*baseline)[i].motifs;
      const auto& got = result->per_length[i].motifs;
      ASSERT_EQ(got.size(), want.size())
          << "threads " << threads << " length " << (*baseline)[i].length;
      for (std::size_t m = 0; m < want.size(); ++m) {
        EXPECT_NEAR(got[m].distance, want[m].distance, 3e-5)
            << "threads " << threads << " length " << (*baseline)[i].length
            << " rank " << m;
      }
    }
    runs.push_back(*std::move(result));
  }

  // Which rows grow is decided in batch order, never by the thread count,
  // so both runs store the same candidates and agree to the bit.
  for (std::size_t i = 0; i < runs[0].per_length.size(); ++i) {
    const auto& serial = runs[0].per_length[i].motifs;
    const auto& threaded = runs[1].per_length[i].motifs;
    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t m = 0; m < serial.size(); ++m) {
      EXPECT_EQ(serial[m].offset_a, threaded[m].offset_a);
      EXPECT_EQ(serial[m].offset_b, threaded[m].offset_b);
      EXPECT_EQ(serial[m].distance, threaded[m].distance);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ValmodSweepShapeTest,
                         ::testing::ValuesIn(kSweepShapes));

}  // namespace
}  // namespace valmod::core
