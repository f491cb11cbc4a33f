// Tests for variable-length discord discovery (the journal extension of
// VALMOD to anomalies).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

#include "core/variable_discords.h"
#include "mp/discord.h"
#include "mp/stomp.h"
#include "series/data_series.h"
#include "series/generators.h"
#include "series/znorm.h"

namespace valmod::core {
namespace {

TEST(VariableDiscordsTest, MatchesPerLengthStompDiscords) {
  auto series = synth::ByName("ecg", 500, 7);
  ASSERT_TRUE(series.ok());
  VariableDiscordOptions options;
  options.min_length = 25;
  options.max_length = 40;
  options.k = 2;
  auto result = FindVariableLengthDiscords(*series, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->per_length.size(), 16u);

  for (std::size_t i = 0; i < result->per_length.size(); ++i) {
    const std::size_t length = 25 + i;
    auto profile = mp::ComputeStomp(*series, length, {});
    ASSERT_TRUE(profile.ok());
    const auto expected = mp::TopKDiscords(*profile, 2);
    ASSERT_EQ(result->per_length[i].discords.size(), expected.size());
    for (std::size_t d = 0; d < expected.size(); ++d) {
      EXPECT_EQ(result->per_length[i].discords[d].offset,
                expected[d].offset)
          << "length " << length << " rank " << d;
      EXPECT_NEAR(result->per_length[i].discords[d].distance,
                  expected[d].distance, 1e-9);
    }
  }
}

TEST(VariableDiscordsTest, RankedIsSortedDescendingAndComplete) {
  auto series = synth::ByName("random_walk", 400, 9);
  ASSERT_TRUE(series.ok());
  VariableDiscordOptions options;
  options.min_length = 20;
  options.max_length = 35;
  options.k = 3;
  auto result = FindVariableLengthDiscords(*series, options);
  ASSERT_TRUE(result.ok());

  std::size_t total = 0;
  for (const auto& lm : result->per_length) total += lm.discords.size();
  EXPECT_EQ(result->ranked.size(), total);
  for (std::size_t i = 1; i < result->ranked.size(); ++i) {
    EXPECT_GE(result->ranked[i - 1].normalized_distance,
              result->ranked[i].normalized_distance - 1e-12);
  }
  for (const auto& rd : result->ranked) {
    EXPECT_NEAR(rd.normalized_distance,
                series::LengthNormalizedDistance(rd.discord.distance,
                                                 rd.discord.length),
                1e-12);
  }
}

TEST(VariableDiscordsTest, FindsInjectedAnomalyAcrossLengths) {
  // Corrupt one stretch of a periodic signal; the top-ranked discord across
  // all lengths should land on the corruption.
  auto series = synth::Sine({.length = 1500,
                             .seed = 3,
                             .period = 75.0,
                             .amplitude = 1.0,
                             .noise_stddev = 0.02});
  ASSERT_TRUE(series.ok());
  std::vector<double> data(series->values().begin(), series->values().end());
  for (std::size_t i = 700; i < 790; ++i) {
    data[i] += ((i % 11) < 5 ? 1.6 : -1.2);
  }
  auto corrupted = series::DataSeries::Create(std::move(data));
  ASSERT_TRUE(corrupted.ok());

  VariableDiscordOptions options;
  options.min_length = 40;
  options.max_length = 90;
  options.num_threads = 4;
  auto result = FindVariableLengthDiscords(*corrupted, options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->ranked.empty());
  EXPECT_NEAR(static_cast<double>(result->ranked[0].discord.offset), 745.0,
              120.0);
}

TEST(VariableDiscordsTest, ValidatesOptions) {
  auto series = synth::ByName("random_walk", 100, 11);
  ASSERT_TRUE(series.ok());
  VariableDiscordOptions options;
  options.min_length = 1;
  options.max_length = 10;
  EXPECT_FALSE(FindVariableLengthDiscords(*series, options).ok());
  options.min_length = 20;
  options.max_length = 10;
  EXPECT_FALSE(FindVariableLengthDiscords(*series, options).ok());
  options.min_length = 10;
  options.max_length = 100;
  EXPECT_FALSE(FindVariableLengthDiscords(*series, options).ok());
  options.max_length = 20;
  options.k = 0;
  EXPECT_FALSE(FindVariableLengthDiscords(*series, options).ok());
}

TEST(VariableDiscordsTest, HonorsDeadline) {
  auto series = synth::ByName("random_walk", 2000, 13);
  ASSERT_TRUE(series.ok());
  VariableDiscordOptions options;
  options.min_length = 50;
  options.max_length = 100;
  options.deadline = Deadline::After(-1.0);
  EXPECT_EQ(FindVariableLengthDiscords(*series, options).status().code(),
            StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace valmod::core
