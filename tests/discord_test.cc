// Tests for discord (anomaly) extraction from matrix profiles.

#include <gtest/gtest.h>

#include <vector>

#include "mp/discord.h"
#include "mp/stomp.h"
#include "series/data_series.h"
#include "series/generators.h"

namespace valmod::mp {
namespace {

MatrixProfile MakeProfile(std::vector<double> distances,
                          std::vector<int64_t> indices, std::size_t length,
                          std::size_t exclusion) {
  MatrixProfile profile;
  profile.subsequence_length = length;
  profile.exclusion_zone = exclusion;
  profile.distances = std::move(distances);
  profile.indices = std::move(indices);
  return profile;
}

TEST(DiscordTest, PicksLargestRowMinimum) {
  MatrixProfile profile =
      MakeProfile({1.0, 7.0, 2.0, 3.0}, {2, 3, 0, 2}, 5, 1);
  auto discords = TopKDiscords(profile, 1);
  ASSERT_EQ(discords.size(), 1u);
  EXPECT_EQ(discords[0].offset, 1);
  EXPECT_DOUBLE_EQ(discords[0].distance, 7.0);
}

TEST(DiscordTest, SeparatesChosenDiscords) {
  // Offsets 4 and 5 both score high but overlap under exclusion 3.
  MatrixProfile profile = MakeProfile({1.0, 1.0, 1.0, 1.0, 9.0, 8.5, 1.0, 7.0},
                                      {1, 0, 3, 2, 0, 0, 0, 0}, 4, 3);
  auto discords = TopKDiscords(profile, 2);
  ASSERT_EQ(discords.size(), 2u);
  EXPECT_EQ(discords[0].offset, 4);
  EXPECT_EQ(discords[1].offset, 7);  // 5 skipped: within 3 of 4
}

TEST(DiscordTest, SkipsRowsWithoutNeighbors) {
  MatrixProfile profile =
      MakeProfile({kInfinity, 3.0}, {-1, 0}, 4, 1);
  auto discords = TopKDiscords(profile, 2);
  ASSERT_EQ(discords.size(), 1u);
  EXPECT_EQ(discords[0].offset, 1);
}

TEST(DiscordTest, ZeroKSelectsNothing) {
  MatrixProfile profile = MakeProfile({1.0, 2.0}, {1, 0}, 2, 1);
  EXPECT_TRUE(TopKDiscords(profile, 0).empty());
}

TEST(DiscordTest, FindsInjectedAnomaly) {
  // A sine wave with one corrupted stretch: the anomaly has the farthest
  // nearest neighbor at the anomaly length.
  auto series = synth::Sine({.length = 1200,
                             .seed = 2,
                             .period = 60.0,
                             .amplitude = 1.0,
                             .noise_stddev = 0.02});
  ASSERT_TRUE(series.ok());
  std::vector<double> data(series->values().begin(), series->values().end());
  for (std::size_t i = 600; i < 660; ++i) {
    data[i] += ((i % 7) < 3 ? 1.8 : -1.4);  // structured corruption
  }
  auto corrupted = series::DataSeries::Create(std::move(data));
  ASSERT_TRUE(corrupted.ok());

  auto profile = ComputeStomp(*corrupted, 60, {});
  ASSERT_TRUE(profile.ok());
  auto discords = TopKDiscords(*profile, 1);
  ASSERT_EQ(discords.size(), 1u);
  EXPECT_NEAR(static_cast<double>(discords[0].offset), 615.0, 75.0);
}

}  // namespace
}  // namespace valmod::mp
