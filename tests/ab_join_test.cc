// Tests for the AB-join (cross-series) matrix profile.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "mp/ab_join.h"
#include "series/data_series.h"
#include "series/generators.h"
#include "series/znorm.h"

namespace valmod::mp {
namespace {

/// Naive reference join built on the definitional distance.
MatrixProfile BruteJoin(const series::DataSeries& a,
                        const series::DataSeries& b, std::size_t length) {
  MatrixProfile profile;
  profile.subsequence_length = length;
  profile.exclusion_zone = 0;
  const std::size_t count_a = a.NumSubsequences(length);
  const std::size_t count_b = b.NumSubsequences(length);
  profile.distances.assign(count_a, kInfinity);
  profile.indices.assign(count_a, -1);
  for (std::size_t i = 0; i < count_a; ++i) {
    auto wa = a.Subsequence(i, length);
    for (std::size_t j = 0; j < count_b; ++j) {
      auto wb = b.Subsequence(j, length);
      auto d = series::ZNormalizedDistance(*wa, *wb);
      if (*d < profile.distances[i]) {
        profile.distances[i] = *d;
        profile.indices[i] = static_cast<int64_t>(j);
      }
    }
  }
  return profile;
}

struct JoinCase {
  std::string gen_a;
  std::string gen_b;
  std::size_t n_a;
  std::size_t n_b;
  std::size_t length;
};

class AbJoinTest : public ::testing::TestWithParam<JoinCase> {};

TEST_P(AbJoinTest, MatchesBruteForce) {
  const JoinCase& c = GetParam();
  auto a = synth::ByName(c.gen_a, c.n_a, 51);
  auto b = synth::ByName(c.gen_b, c.n_b, 52);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  auto join = ComputeAbJoin(*a, *b, c.length, {});
  ASSERT_TRUE(join.ok());
  const MatrixProfile expected = BruteJoin(*a, *b, c.length);
  ASSERT_EQ(join->size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(join->distances[i], expected.distances[i], 2e-6) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AbJoinTest,
    ::testing::Values(JoinCase{"random_walk", "random_walk", 200, 150, 16},
                      JoinCase{"sine", "sine", 180, 260, 25},
                      JoinCase{"ecg", "random_walk", 220, 220, 30},
                      JoinCase{"random_walk", "ecg", 120, 300, 20}));

TEST(AbJoinTest, SharedSubsequenceFoundAtZero) {
  // Plant the same pattern in both series; the join must find it at ~0.
  auto base = synth::ByName("random_walk", 400, 53);
  ASSERT_TRUE(base.ok());
  std::vector<double> va(base->values().begin(), base->values().end());
  auto other = synth::ByName("random_walk", 300, 54);
  ASSERT_TRUE(other.ok());
  std::vector<double> vb(other->values().begin(), other->values().end());
  for (std::size_t t = 0; t < 40; ++t) {
    const double v = std::sin(static_cast<double>(t) * 0.37) * 3.0;
    va[100 + t] = v;
    vb[200 + t] = 2.0 * v + 5.0;  // affine copy: distance 0 after z-norm
  }
  auto a = series::DataSeries::Create(std::move(va));
  auto b = series::DataSeries::Create(std::move(vb));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  auto join = ComputeAbJoin(*a, *b, 40, {});
  ASSERT_TRUE(join.ok());
  EXPECT_NEAR(join->distances[100], 0.0, 1e-6);
  EXPECT_EQ(join->indices[100], 200);
}

TEST(AbJoinTest, DirectionalityMatters) {
  auto a = synth::ByName("sine", 150, 55);
  auto b = synth::ByName("random_walk", 400, 56);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto ab = ComputeAbJoin(*a, *b, 20, {});
  auto ba = ComputeAbJoin(*b, *a, 20, {});
  ASSERT_TRUE(ab.ok());
  ASSERT_TRUE(ba.ok());
  EXPECT_EQ(ab->size(), a->NumSubsequences(20));
  EXPECT_EQ(ba->size(), b->NumSubsequences(20));
}

TEST(AbJoinTest, NoExclusionZone) {
  auto a = synth::ByName("sine", 100, 57);
  ASSERT_TRUE(a.ok());
  auto join = ComputeAbJoin(*a, *a, 20, {});
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(join->exclusion_zone, 0u);
  // Joining a series with itself: every window matches itself at ~0 (the
  // running dot-product recurrence accumulates ~1e-7 of rounding).
  for (std::size_t i = 0; i < join->size(); ++i) {
    EXPECT_NEAR(join->distances[i], 0.0, 1e-5);
    EXPECT_EQ(join->indices[i], static_cast<int64_t>(i));
  }
}

TEST(AbJoinTest, ValidatesArguments) {
  auto a = synth::ByName("random_walk", 50, 58);
  auto b = synth::ByName("random_walk", 30, 59);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(ComputeAbJoin(*a, *b, 0, {}).ok());
  EXPECT_FALSE(ComputeAbJoin(*a, *b, 31, {}).ok());  // longer than b
  EXPECT_TRUE(ComputeAbJoin(*a, *b, 30, {}).ok());
}

// Length 1 would join every window at distance 0; it gets the same
// rejection as STOMP, STAMP and query search.
TEST(AbJoinTest, RejectsLengthOne) {
  auto a = synth::ByName("random_walk", 50, 58);
  auto b = synth::ByName("random_walk", 30, 59);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const Status status = ComputeAbJoin(*a, *b, 1, {}).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), CheckSubsequenceLength(1).message());
  EXPECT_TRUE(ComputeAbJoin(*a, *b, 2, {}).ok());
}

TEST(AbJoinTest, HonorsDeadline) {
  auto a = synth::ByName("random_walk", 3000, 60);
  auto b = synth::ByName("random_walk", 3000, 61);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ProfileOptions options;
  options.deadline = Deadline::After(-1.0);
  EXPECT_EQ(ComputeAbJoin(*a, *b, 100, options).status().code(),
            StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace valmod::mp
