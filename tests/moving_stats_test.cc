// Tests for MovingStats: O(1) window statistics vs naive computation,
// centering invariants, and constant-window classification.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "stats/moving_stats.h"

namespace valmod::stats {
namespace {

std::vector<double> RandomData(std::size_t n, uint64_t seed,
                               double offset = 0.0) {
  Rng rng(seed);
  std::vector<double> data(n);
  for (auto& x : data) x = offset + rng.Gaussian();
  return data;
}

double NaiveMean(const std::vector<double>& data, std::size_t offset,
                 std::size_t length) {
  double sum = 0.0;
  for (std::size_t i = 0; i < length; ++i) sum += data[offset + i];
  return sum / static_cast<double>(length);
}

double NaiveVariance(const std::vector<double>& data, std::size_t offset,
                     std::size_t length) {
  const double mean = NaiveMean(data, offset, length);
  double acc = 0.0;
  for (std::size_t i = 0; i < length; ++i) {
    const double d = data[offset + i] - mean;
    acc += d * d;
  }
  return acc / static_cast<double>(length);
}

TEST(MovingStatsTest, RejectsEmpty) {
  EXPECT_FALSE(MovingStats::Create({}).ok());
}

TEST(MovingStatsTest, RejectsNonFinite) {
  std::vector<double> data = {1.0, std::nan(""), 2.0};
  EXPECT_EQ(MovingStats::Create(data).status().code(),
            StatusCode::kInvalidArgument);
  data[1] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(MovingStats::Create(data).ok());
}

// Finite values whose sums overflow would otherwise classify every window
// as constant. The squares overflow first (1e160^2), then the sum itself
// and the global mean (two values near the largest double).
TEST(MovingStatsTest, RejectsOverflowingMagnitudes) {
  const double big = std::numeric_limits<double>::max();
  for (const std::vector<double>& data :
       {std::vector<double>{1e160, -1e160, 3.0, 4.0},
        std::vector<double>{big, big, 1.0}, std::vector<double>{big, -big}}) {
    EXPECT_EQ(MovingStats::Create(data).status().code(),
              StatusCode::kInvalidArgument)
        << data[0];
  }
  // Squares near the top of the range still fit: 1e150 scales the data
  // without changing which windows are constant.
  std::vector<double> scaled = RandomData(600, 1);
  for (double& x : scaled) x *= 1e150;
  auto stats = MovingStats::Create(scaled);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->IsConstant(0, 20));
}

class MovingStatsWindowTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MovingStatsWindowTest, MatchesNaiveForAllOffsets) {
  const std::size_t length = GetParam();
  const std::vector<double> data = RandomData(256, 5);
  auto stats = MovingStats::Create(data);
  ASSERT_TRUE(stats.ok());
  for (std::size_t offset = 0; offset + length <= data.size();
       offset += 7) {
    EXPECT_NEAR(stats->Mean(offset, length), NaiveMean(data, offset, length),
                1e-10);
    EXPECT_NEAR(stats->Variance(offset, length),
                NaiveVariance(data, offset, length), 1e-9);
    EXPECT_NEAR(stats->StdDev(offset, length),
                std::sqrt(NaiveVariance(data, offset, length)), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(WindowLengths, MovingStatsWindowTest,
                         ::testing::Values(1, 2, 3, 8, 50, 255, 256));

TEST(MovingStatsTest, LargeOffsetDataStaysAccurate) {
  // The global-centering trick must keep variance accurate when the data
  // rides on a large level (the failure mode of raw prefix sums of squares).
  const std::vector<double> data = RandomData(512, 9, /*offset=*/1e7);
  auto stats = MovingStats::Create(data);
  ASSERT_TRUE(stats.ok());
  for (std::size_t offset : {0u, 100u, 300u}) {
    EXPECT_NEAR(stats->Variance(offset, 64),
                NaiveVariance(data, offset, 64),
                1e-6 * NaiveVariance(data, offset, 64));
    EXPECT_NEAR(stats->Mean(offset, 64), NaiveMean(data, offset, 64), 1e-3);
  }
}

TEST(MovingStatsTest, CenteredMeanIsShiftedMean) {
  const std::vector<double> data = RandomData(128, 13, 5.0);
  auto stats = MovingStats::Create(data);
  ASSERT_TRUE(stats.ok());
  for (std::size_t offset : {0u, 17u, 64u}) {
    EXPECT_NEAR(stats->CenteredMean(offset, 32) + stats->global_mean(),
                stats->Mean(offset, 32), 1e-10);
  }
}

TEST(MovingStatsTest, CenteredValuesSumToZero) {
  const std::vector<double> data = RandomData(200, 21, -3.0);
  auto stats = MovingStats::Create(data);
  ASSERT_TRUE(stats.ok());
  double sum = 0.0;
  for (double c : stats->centered()) sum += c;
  EXPECT_NEAR(sum, 0.0, 1e-8);
}

TEST(MovingStatsTest, ConstantSeriesDetected) {
  const std::vector<double> data(64, 3.5);
  auto stats = MovingStats::Create(data);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->IsConstant(0, 64));
  EXPECT_TRUE(stats->IsConstant(10, 5));
  EXPECT_DOUBLE_EQ(stats->Variance(3, 20), 0.0);
  EXPECT_DOUBLE_EQ(stats->Mean(3, 20), 3.5);
}

TEST(MovingStatsTest, ConstantRegionInsideNoisySeries) {
  std::vector<double> data = RandomData(128, 33);
  for (std::size_t i = 40; i < 80; ++i) data[i] = 2.0;
  auto stats = MovingStats::Create(data);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->IsConstant(45, 30));
  EXPECT_FALSE(stats->IsConstant(0, 30));
  EXPECT_FALSE(stats->IsConstant(30, 30));  // straddles the boundary
}

TEST(MovingStatsTest, ThresholdScalesWithGlobalVariance) {
  // Identical shapes at different amplitudes should classify identically.
  std::vector<double> small = RandomData(128, 41);
  std::vector<double> big = small;
  for (double& x : big) x *= 1e6;
  auto stats_small = MovingStats::Create(small);
  auto stats_big = MovingStats::Create(big);
  ASSERT_TRUE(stats_small.ok());
  ASSERT_TRUE(stats_big.ok());
  for (std::size_t offset : {0u, 32u, 64u}) {
    EXPECT_EQ(stats_small->IsConstant(offset, 16),
              stats_big->IsConstant(offset, 16));
  }
}

TEST(MovingStatsTest, WindowStatsBulkMatchesScalar) {
  const std::vector<double> data = RandomData(300, 55);
  auto stats = MovingStats::Create(data);
  ASSERT_TRUE(stats.ok());
  std::vector<double> means, stds;
  ASSERT_TRUE(stats->WindowStats(25, &means, &stds).ok());
  ASSERT_EQ(means.size(), 276u);
  for (std::size_t i = 0; i < means.size(); i += 13) {
    EXPECT_DOUBLE_EQ(means[i], stats->Mean(i, 25));
    EXPECT_DOUBLE_EQ(stds[i], stats->StdDev(i, 25));
  }
}

TEST(MovingStatsTest, CenteredWindowStatsShifted) {
  const std::vector<double> data = RandomData(100, 66, 4.0);
  auto stats = MovingStats::Create(data);
  ASSERT_TRUE(stats.ok());
  std::vector<double> means, stds, cmeans, cstds;
  ASSERT_TRUE(stats->WindowStats(10, &means, &stds).ok());
  ASSERT_TRUE(stats->CenteredWindowStats(10, &cmeans, &cstds).ok());
  for (std::size_t i = 0; i < means.size(); ++i) {
    EXPECT_NEAR(cmeans[i] + stats->global_mean(), means[i], 1e-10);
    EXPECT_EQ(cmeans[i], stats->CenteredMean(i, 10));  // bit-identical
    EXPECT_DOUBLE_EQ(cstds[i], stds[i]);
  }
}

TEST(MovingStatsTest, WindowStatsRejectsBadLength) {
  const std::vector<double> data = RandomData(10, 1);
  auto stats = MovingStats::Create(data);
  ASSERT_TRUE(stats.ok());
  std::vector<double> means, stds;
  EXPECT_EQ(stats->WindowStats(0, &means, &stds).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(stats->WindowStats(11, &means, &stds).code(),
            StatusCode::kOutOfRange);
}

TEST(MovingStatsTest, VarianceNeverNegative) {
  // Near-constant data with rounding noise must still clamp at zero.
  std::vector<double> data(128, 1.0);
  data[5] += 1e-16;
  auto stats = MovingStats::Create(data);
  ASSERT_TRUE(stats.ok());
  for (std::size_t offset = 0; offset + 16 <= data.size(); ++offset) {
    EXPECT_GE(stats->Variance(offset, 16), 0.0);
  }
}

}  // namespace
}  // namespace valmod::stats
