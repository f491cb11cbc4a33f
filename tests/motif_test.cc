// Tests for top-k motif-pair extraction from matrix profiles.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <vector>

#include "mp/brute_force.h"
#include "mp/motif.h"
#include "series/generators.h"
#include "series/znorm.h"

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

TEST(MotifExtractionTest, PicksSmallestPair) {
  // Rows 1 and 5 point at each other with the global minimum.
  MatrixProfile profile = MakeProfile({4.0, 1.0, 3.0, 5.0, 6.0, 1.0},
                                      {3, 5, 4, 0, 2, 1}, 10, 2);
  auto motifs = TopKMotifs(profile, 1);
  ASSERT_EQ(motifs.size(), 1u);
  EXPECT_EQ(motifs[0].offset_a, 1);
  EXPECT_EQ(motifs[0].offset_b, 5);
  EXPECT_DOUBLE_EQ(motifs[0].distance, 1.0);
  EXPECT_EQ(motifs[0].length, 10u);
}

TEST(MotifExtractionTest, DeduplicatesMirroredRows) {
  // Both rows of the same pair appear in the profile; only one pair results.
  MatrixProfile profile =
      MakeProfile({1.0, 9.0, 9.0, 9.0, 1.0}, {4, 3, 4, 1, 0}, 5, 1);
  auto motifs = TopKMotifs(profile, 3);
  ASSERT_GE(motifs.size(), 1u);
  EXPECT_EQ(motifs[0].offset_a, 0);
  EXPECT_EQ(motifs[0].offset_b, 4);
  for (std::size_t i = 1; i < motifs.size(); ++i) {
    EXPECT_FALSE(motifs[i].offset_a == 0 && motifs[i].offset_b == 4);
  }
}

TEST(MotifExtractionTest, NonOverlappingMasksNeighbors) {
  // Second-best pair overlaps the best pair's members; with exclusion 3 it
  // must be skipped and the third-best chosen instead.
  MatrixProfile profile = MakeProfile(
      {1.0, 1.5, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 2.0, 9.0},
      {6, 7, 6, 7, 8, 9, 0, 1, 4, 5, 11, 10}, 6, 3);
  auto motifs = TopKMotifs(profile, 2);
  ASSERT_EQ(motifs.size(), 2u);
  EXPECT_EQ(motifs[0].offset_a, 0);
  EXPECT_EQ(motifs[0].offset_b, 6);
  // (1, 7) overlaps both 0 and 6 within exclusion 3 -> skipped.
  EXPECT_EQ(motifs[1].offset_a, 10);
  EXPECT_EQ(motifs[1].offset_b, 11);
}

TEST(MotifExtractionTest, SkipsInvalidRows) {
  MatrixProfile profile =
      MakeProfile({kInfinity, 2.0, kInfinity, 2.0}, {-1, 3, -1, 1}, 4, 1);
  auto motifs = TopKMotifs(profile, 5);
  ASSERT_EQ(motifs.size(), 1u);
  EXPECT_EQ(motifs[0].offset_a, 1);
}

TEST(MotifExtractionTest, ReturnsFewerWhenExhausted) {
  MatrixProfile profile = MakeProfile({1.0, 1.0}, {1, 0}, 3, 1);
  auto motifs = TopKMotifs(profile, 10);
  EXPECT_EQ(motifs.size(), 1u);
}

TEST(MotifExtractionTest, ZeroKSelectsNothing) {
  MatrixProfile profile = MakeProfile({1.0, 1.0}, {1, 0}, 2, 1);
  EXPECT_TRUE(TopKMotifs(profile, 0).empty());
}

TEST(MotifExtractionTest, NormalizedDistancePopulated) {
  MatrixProfile profile = MakeProfile({2.0, 9.0, 2.0}, {2, 2, 0}, 4, 1);
  auto motifs = TopKMotifs(profile, 1);
  ASSERT_EQ(motifs.size(), 1u);
  EXPECT_DOUBLE_EQ(motifs[0].normalized_distance, 2.0 / 2.0);  // 2*sqrt(1/4)
}

TEST(MotifExtractionTest, DeterministicTieBreaking) {
  // Equal distances: the lower row index wins.
  MatrixProfile profile =
      MakeProfile({3.0, 3.0, 3.0, 3.0}, {2, 3, 0, 1}, 5, 1);
  auto motifs = TopKMotifs(profile, 1);
  ASSERT_EQ(motifs.size(), 1u);
  EXPECT_EQ(motifs[0].offset_a, 0);
  EXPECT_EQ(motifs[0].offset_b, 2);
}

// Reference selection with no shortcut: sorts every eligible row by
// (distance, row) and scans them all greedily.
std::vector<MotifPair> BruteForceSelect(const MatrixProfile& profile,
                                        std::size_t k) {
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < profile.size(); ++r) {
    if (profile.indices[r] >= 0 && profile.distances[r] != kInfinity) {
      rows.push_back(r);
    }
  }
  std::sort(rows.begin(), rows.end(), [&](std::size_t a, std::size_t b) {
    if (profile.distances[a] != profile.distances[b]) {
      return profile.distances[a] < profile.distances[b];
    }
    return a < b;
  });
  const auto zone = static_cast<int64_t>(profile.exclusion_zone);
  std::vector<MotifPair> out;
  for (std::size_t r : rows) {
    if (out.size() == k) break;
    const int64_t a = std::min<int64_t>(r, profile.indices[r]);
    const int64_t b = std::max<int64_t>(r, profile.indices[r]);
    bool skip = false;
    for (const MotifPair& m : out) {
      for (int64_t member : {m.offset_a, m.offset_b}) {
        skip = skip || std::llabs(member - a) < zone ||
               std::llabs(member - b) < zone;
      }
    }
    if (skip) continue;  // also drops a repeated pair: it overlaps itself
    out.push_back(MotifPair{a, b, profile.subsequence_length,
                            profile.distances[r],
                            series::LengthNormalizedDistance(
                                profile.distances[r],
                                profile.subsequence_length)});
  }
  return out;
}

TEST(MotifExtractionTest, OverlapExhaustingSortedPrefixFallsBackExactly) {
  // k = 2 sorts a prefix of the 4k + 32 = 40 smallest candidates first.
  // Rows 0..59 hold the 60 smallest distances and all pair with a partner
  // within 10 of 100, so after (0, 100) every one of them overlaps it: the
  // prefix yields a single pair and the selection must go on to the full
  // list to find the second.
  const std::size_t rows = 400;
  std::vector<double> distances(rows);
  std::vector<int64_t> indices(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    if (r < 60) {
      distances[r] = 0.01 * static_cast<double>(r + 1);
      indices[r] = 100 + static_cast<int64_t>(r % 10);
    } else {
      distances[r] = 5.0 + 0.001 * static_cast<double>((r * 37) % rows);
      indices[r] = static_cast<int64_t>((r + 200) % rows);
    }
  }
  const MatrixProfile profile =
      MakeProfile(distances, indices, /*length=*/80, /*exclusion=*/40);
  const std::vector<MotifPair> motifs = TopKMotifs(profile, 2);
  ASSERT_EQ(motifs.size(), 2u);
  EXPECT_EQ(motifs[0].offset_a, 0);
  EXPECT_EQ(motifs[0].offset_b, 100);
  EXPECT_EQ(motifs, BruteForceSelect(profile, 2));
}

TEST(MotifExtractionTest, MatchesBruteForceSelectionOnRandomProfiles) {
  std::mt19937_64 rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t rows = 20 + rng() % 300;
    const std::size_t exclusion = 1 + rng() % 30;
    std::vector<double> distances(rows);
    std::vector<int64_t> indices(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      // Coarse values force distance ties; some rows have no match.
      distances[r] = static_cast<double>(rng() % 50);
      indices[r] = rng() % 10 == 0 ? -1 : static_cast<int64_t>(rng() % rows);
    }
    const MatrixProfile profile =
        MakeProfile(distances, indices, 32, exclusion);
    for (std::size_t k : {1u, 3u, 12u}) {
      EXPECT_EQ(TopKMotifs(profile, k), BruteForceSelect(profile, k))
          << "trial " << trial << " k " << k;
    }
  }
}

TEST(MotifExtractionTest, EndToEndOnPlantedMotif) {
  synth::PlantedMotifOptions options;
  options.length = 3000;
  options.seed = 77;
  options.motif_length = 80;
  options.occurrences = 2;
  options.occurrence_noise = 0.01;
  auto planted = synth::PlantedMotif(options);
  ASSERT_TRUE(planted.ok());

  auto profile = ComputeBruteForce(planted->series, 80, {});
  ASSERT_TRUE(profile.ok());
  auto motifs = TopKMotifs(*profile, 1);
  ASSERT_EQ(motifs.size(), 1u);
  // The found pair must land on the planted offsets (within a small shift).
  const auto near_any_plant = [&](int64_t offset) {
    for (std::size_t plant : planted->motif_offsets) {
      if (std::abs(offset - static_cast<int64_t>(plant)) <= 8) return true;
    }
    return false;
  };
  EXPECT_TRUE(near_any_plant(motifs[0].offset_a))
      << "a=" << motifs[0].offset_a;
  EXPECT_TRUE(near_any_plant(motifs[0].offset_b))
      << "b=" << motifs[0].offset_b;
}

TEST(MotifToStringTest, RendersFields) {
  MotifPair pair;
  pair.offset_a = 3;
  pair.offset_b = 9;
  pair.length = 20;
  pair.distance = 1.5;
  pair.normalized_distance = 0.3;
  const std::string text = ToString(pair);
  EXPECT_NE(text.find("a=3"), std::string::npos);
  EXPECT_NE(text.find("b=9"), std::string::npos);
  EXPECT_NE(text.find("l=20"), std::string::npos);
}

}  // namespace
}  // namespace valmod::mp
