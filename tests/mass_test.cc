// Tests for MASS: the engine's sliding dots and the distances derived from
// them against the brute-force definitional path, across workload shapes
// and window placements.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "mass/engine.h"
#include "mass/mass.h"
#include "series/data_series.h"
#include "series/generators.h"
#include "series/znorm.h"

namespace valmod::mass {
namespace {

using series::DataSeries;

/// One self-join row as a 1-row engine batch: its dots, and the distances
/// DistancesFromDots derives from them.
struct Row {
  std::vector<double> dots;
  std::vector<double> distances;
};

Result<Row> ComputeRow(const DataSeries& series, std::size_t offset,
                       std::size_t length) {
  MassEngine engine(series);
  const std::size_t rows[] = {offset};
  VALMOD_ASSIGN_OR_RETURN(std::vector<std::vector<double>> dots,
                          engine.ComputeRowProfiles(rows, length));
  Row row;
  row.dots = std::move(dots[0]);
  DistancesFromDots(series, offset, length, row.dots, &row.distances);
  return row;
}

struct MassCase {
  std::string generator;
  std::size_t n;
  std::size_t length;
};

class MassProfileTest : public ::testing::TestWithParam<MassCase> {};

TEST_P(MassProfileTest, RowProfileMatchesBruteForce) {
  const MassCase& c = GetParam();
  auto series = synth::ByName(c.generator, c.n, 7);
  ASSERT_TRUE(series.ok());

  for (std::size_t offset :
       {std::size_t{0}, c.n / 3, c.n - c.length}) {
    auto row = ComputeRow(*series, offset, c.length);
    ASSERT_TRUE(row.ok());
    auto query = series->Subsequence(offset, c.length);
    ASSERT_TRUE(query.ok());
    auto brute = BruteDistanceProfile(*series, *query);
    ASSERT_TRUE(brute.ok());
    ASSERT_EQ(row->distances.size(), brute->size());
    // Tolerance note: FFT rounding enters at the squared-distance level
    // (~1e-11), which sqrt amplifies to ~1e-5 near zero distances.
    for (std::size_t j = 0; j < brute->size(); ++j) {
      EXPECT_NEAR(row->distances[j], (*brute)[j], 1e-5)
          << "offset=" << offset << " j=" << j;
    }
  }
}

TEST_P(MassProfileTest, SelfDistanceIsZero) {
  const MassCase& c = GetParam();
  auto series = synth::ByName(c.generator, c.n, 11);
  ASSERT_TRUE(series.ok());
  const std::size_t offset = c.n / 2;
  auto row = ComputeRow(*series, offset, c.length);
  ASSERT_TRUE(row.ok());
  // Same sqrt-amplified FFT rounding note as above.
  EXPECT_NEAR(row->distances[offset], 0.0, 1e-5);
}

TEST_P(MassProfileTest, DotsMatchDirectProducts) {
  const MassCase& c = GetParam();
  auto series = synth::ByName(c.generator, c.n, 13);
  ASSERT_TRUE(series.ok());
  const std::size_t offset = c.n / 4;
  auto row = ComputeRow(*series, offset, c.length);
  ASSERT_TRUE(row.ok());
  const auto centered = series->centered();
  for (std::size_t j = 0; j < row->dots.size(); j += 17) {
    double expected = 0.0;
    for (std::size_t t = 0; t < c.length; ++t) {
      expected += centered[offset + t] * centered[j + t];
    }
    EXPECT_NEAR(row->dots[j], expected, 1e-6 * (1.0 + std::abs(expected)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, MassProfileTest,
    ::testing::Values(MassCase{"random_walk", 400, 20},
                      MassCase{"random_walk", 512, 64},
                      MassCase{"sine", 600, 50},
                      MassCase{"ecg", 800, 40},
                      MassCase{"astro", 500, 25},
                      MassCase{"entomology", 700, 30}));

TEST(MassTest, ExternalQueryMatchesBrute) {
  auto series = synth::ByName("random_walk", 300, 3);
  ASSERT_TRUE(series.ok());
  // A query that is not a subsequence of the series.
  auto other = synth::ByName("sine", 40, 4);
  ASSERT_TRUE(other.ok());
  std::vector<double> query(other->values().begin(), other->values().end());

  auto fft_profile = MassEngine(*series).DistanceProfile(query);
  auto brute = BruteDistanceProfile(*series, query);
  ASSERT_TRUE(fft_profile.ok());
  ASSERT_TRUE(brute.ok());
  ASSERT_EQ(fft_profile->size(), brute->size());
  for (std::size_t j = 0; j < brute->size(); ++j) {
    EXPECT_NEAR((*fft_profile)[j], (*brute)[j], 2e-6);
  }
}

TEST(MassTest, ConstantQueryConvention) {
  auto series = synth::ByName("random_walk", 200, 5);
  ASSERT_TRUE(series.ok());
  std::vector<double> query(25, 7.0);
  auto profile = MassEngine(*series).DistanceProfile(query);
  ASSERT_TRUE(profile.ok());
  // Every non-constant window sits at sqrt(l) from a constant query.
  for (double d : *profile) {
    EXPECT_NEAR(d, 5.0, 1e-9);
  }
}

TEST(MassTest, ConstantRegionInSeries) {
  std::vector<double> data(300);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::sin(static_cast<double>(i) * 0.1);
  }
  for (std::size_t i = 100; i < 160; ++i) data[i] = 2.0;
  auto series = DataSeries::Create(data);
  ASSERT_TRUE(series.ok());
  auto row = ComputeRow(*series, 110, 30);  // constant query window
  ASSERT_TRUE(row.ok());
  EXPECT_NEAR(row->distances[120], 0.0, 1e-9);      // another constant window
  EXPECT_NEAR(row->distances[0], std::sqrt(30.0), 1e-9);  // non-constant
}

TEST(MassTest, ValidatesArguments) {
  auto series = synth::ByName("random_walk", 50, 1);
  ASSERT_TRUE(series.ok());
  EXPECT_FALSE(ComputeRow(*series, 0, 0).ok());
  EXPECT_FALSE(ComputeRow(*series, 45, 10).ok());
  EXPECT_FALSE(MassEngine(*series).DistanceProfile({}).ok());
  std::vector<double> long_query(60, 1.0);
  EXPECT_FALSE(MassEngine(*series).DistanceProfile(long_query).ok());
}

TEST(ExclusionZoneTest, MasksExpectedRange) {
  std::vector<double> distances(10, 1.0);
  ApplyExclusionZone(&distances, 5, 2);
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < 10; ++j) {
    if (j >= 4 && j <= 6) {
      EXPECT_EQ(distances[j], inf) << j;
    } else {
      EXPECT_EQ(distances[j], 1.0) << j;
    }
  }
}

TEST(ExclusionZoneTest, ClampsAtBoundaries) {
  std::vector<double> distances(5, 1.0);
  ApplyExclusionZone(&distances, 0, 3);
  EXPECT_TRUE(std::isinf(distances[0]));
  EXPECT_TRUE(std::isinf(distances[2]));
  EXPECT_DOUBLE_EQ(distances[3], 1.0);

  std::vector<double> tail(5, 1.0);
  ApplyExclusionZone(&tail, 4, 3);
  EXPECT_DOUBLE_EQ(tail[1], 1.0);
  EXPECT_TRUE(std::isinf(tail[2]));
  EXPECT_TRUE(std::isinf(tail[4]));
}

TEST(ExclusionZoneTest, ZeroExclusionIsNoOp) {
  std::vector<double> distances(5, 1.0);
  ApplyExclusionZone(&distances, 2, 0);
  for (double d : distances) EXPECT_DOUBLE_EQ(d, 1.0);
}

}  // namespace
}  // namespace valmod::mass
