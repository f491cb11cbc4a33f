// Tests for query-by-content search over MASS.

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "mass/query_search.h"
#include "mp/matrix_profile.h"
#include "series/generators.h"

namespace valmod::mass {
namespace {

TEST(QuerySearchTest, FindsPlantedOccurrences) {
  synth::PlantedMotifOptions plant;
  plant.length = 6000;
  plant.seed = 31;
  plant.motif_length = 100;
  plant.occurrences = 4;
  plant.occurrence_noise = 0.02;
  auto planted = synth::PlantedMotif(plant);
  ASSERT_TRUE(planted.ok());

  // Query with the first planted occurrence; the other three must be among
  // the top four matches (the first match is the query's own location).
  auto query =
      planted->series.Subsequence(planted->motif_offsets[0], 100);
  ASSERT_TRUE(query.ok());
  QuerySearchOptions options;
  options.k = 4;
  auto matches = FindQueryMatches(planted->series, *query, options);
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 4u);
  EXPECT_EQ((*matches)[0].offset,
            static_cast<int64_t>(planted->motif_offsets[0]));
  EXPECT_NEAR((*matches)[0].distance, 0.0, 1e-5);

  for (std::size_t occurrence : planted->motif_offsets) {
    bool found = false;
    for (const QueryMatch& m : *matches) {
      if (std::llabs(m.offset - static_cast<int64_t>(occurrence)) <= 4) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "occurrence at " << occurrence;
  }
}

TEST(QuerySearchTest, MatchesAreOrderedAndSeparated) {
  auto series = synth::ByName("sine", 2000, 33);
  ASSERT_TRUE(series.ok());
  auto query = series->Subsequence(100, 60);
  ASSERT_TRUE(query.ok());
  QuerySearchOptions options;
  options.k = 8;
  auto matches = FindQueryMatches(*series, *query, options);
  ASSERT_TRUE(matches.ok());
  ASSERT_GE(matches->size(), 2u);
  for (std::size_t i = 1; i < matches->size(); ++i) {
    EXPECT_LE((*matches)[i - 1].distance, (*matches)[i].distance + 1e-12);
  }
  for (std::size_t a = 0; a < matches->size(); ++a) {
    for (std::size_t b = a + 1; b < matches->size(); ++b) {
      EXPECT_GE(std::llabs((*matches)[a].offset - (*matches)[b].offset), 30);
    }
  }
}

TEST(QuerySearchTest, ZeroExclusionAllowsAdjacentMatches) {
  auto series = synth::ByName("sine", 500, 35);
  ASSERT_TRUE(series.ok());
  auto query = series->Subsequence(0, 40);
  ASSERT_TRUE(query.ok());
  QuerySearchOptions options;
  options.k = 5;
  options.exclusion_fraction = 0.0;
  auto matches = FindQueryMatches(*series, *query, options);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 5u);
}

TEST(QuerySearchTest, ExternalQueryWorks) {
  auto series = synth::ByName("random_walk", 800, 37);
  ASSERT_TRUE(series.ok());
  std::vector<double> external = {0.0, 1.0, 2.0, 1.0, 0.0, -1.0, -2.0, -1.0};
  auto matches = FindQueryMatches(*series, external, {});
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 1u);
  EXPECT_GE((*matches)[0].offset, 0);
}

TEST(QuerySearchTest, ValidatesArguments) {
  auto series = synth::ByName("random_walk", 100, 39);
  ASSERT_TRUE(series.ok());
  QuerySearchOptions zero_k;
  zero_k.k = 0;
  std::vector<double> query(10, 1.0);
  EXPECT_FALSE(FindQueryMatches(*series, query, zero_k).ok());
  EXPECT_FALSE(FindQueryMatches(*series, {}, {}).ok());
  std::vector<double> too_long(200, 1.0);
  EXPECT_FALSE(FindQueryMatches(*series, too_long, {}).ok());
}

// A one-point query matches every window at distance 0; it gets the shared
// fixed-length rejection instead.
TEST(QuerySearchTest, RejectsOnePointQuery) {
  auto series = synth::ByName("random_walk", 100, 39);
  ASSERT_TRUE(series.ok());
  const std::vector<double> one_point = {1.0};
  const Status status = FindQueryMatches(*series, one_point, {}).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), mp::CheckSubsequenceLength(1).message());
  const std::vector<double> two_points = {1.0, 2.0};
  EXPECT_TRUE(FindQueryMatches(*series, two_points, {}).ok());
}

}  // namespace
}  // namespace valmod::mass
