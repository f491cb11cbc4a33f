// Tests for STOMP: exactness against the brute-force ground truth across
// workloads, parallel/serial equivalence, and edge behaviours.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "common/timer.h"
#include "mp/brute_force.h"
#include "mp/stamp.h"
#include "mp/stomp.h"
#include "series/data_series.h"
#include "series/generators.h"
#include "series/znorm.h"
#include "simd/dispatch.h"

namespace valmod::mp {
namespace {

struct StompCase {
  std::string generator;
  std::size_t n;
  std::size_t length;
  double exclusion_fraction;
};

class StompExactnessTest : public ::testing::TestWithParam<StompCase> {};

TEST_P(StompExactnessTest, MatchesBruteForce) {
  const StompCase& c = GetParam();
  auto series = synth::ByName(c.generator, c.n, 23);
  ASSERT_TRUE(series.ok());

  ProfileOptions options;
  options.exclusion_fraction = c.exclusion_fraction;
  auto stomp = ComputeStomp(*series, c.length, options);
  auto brute = ComputeBruteForce(*series, c.length, options);
  ASSERT_TRUE(stomp.ok());
  ASSERT_TRUE(brute.ok());

  ASSERT_EQ(stomp->size(), brute->size());
  EXPECT_EQ(stomp->exclusion_zone, brute->exclusion_zone);
  for (std::size_t i = 0; i < brute->size(); ++i) {
    EXPECT_NEAR(stomp->distances[i], brute->distances[i], 2e-6)
        << "row " << i;
  }
}

TEST_P(StompExactnessTest, IndicesPointAtMatchingDistances) {
  const StompCase& c = GetParam();
  auto series = synth::ByName(c.generator, c.n, 29);
  ASSERT_TRUE(series.ok());
  ProfileOptions options;
  options.exclusion_fraction = c.exclusion_fraction;
  auto stomp = ComputeStomp(*series, c.length, options);
  ASSERT_TRUE(stomp.ok());

  for (std::size_t i = 0; i < stomp->size(); i += 11) {
    if (stomp->indices[i] < 0) continue;
    const std::size_t j = static_cast<std::size_t>(stomp->indices[i]);
    // Claimed neighbor must be outside the exclusion zone and its distance
    // must match the profile value when recomputed definitionally.
    EXPECT_GE(i > j ? i - j : j - i, stomp->exclusion_zone);
    auto d = series::SubsequenceDistance(*series, i, j, c.length);
    ASSERT_TRUE(d.ok());
    EXPECT_NEAR(*d, stomp->distances[i], 2e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, StompExactnessTest,
    ::testing::Values(StompCase{"random_walk", 300, 20, 0.5},
                      StompCase{"random_walk", 257, 16, 0.25},
                      StompCase{"sine", 400, 50, 0.5},
                      StompCase{"ecg", 500, 40, 0.5},
                      StompCase{"astro", 350, 30, 0.5},
                      StompCase{"entomology", 400, 25, 0.5},
                      StompCase{"seismic", 450, 35, 1.0}));

TEST(StompTest, ParallelMatchesSerial) {
  // 1137 windows: each of 2-4 workers walks enough cells to trade its row
  // gates with the others several times.
  auto series = synth::ByName("ecg", 1200, 31);
  ASSERT_TRUE(series.ok());
  ProfileOptions serial;
  auto a = ComputeStomp(*series, 64, serial);
  ASSERT_TRUE(a.ok());
  for (const int threads : {2, 3, 4}) {
    ProfileOptions parallel;
    parallel.num_threads = threads;
    auto b = ComputeStomp(*series, 64, parallel);
    ASSERT_TRUE(b.ok());
    for (std::size_t i = 0; i < a->size(); ++i) {
      EXPECT_DOUBLE_EQ(a->distances[i], b->distances[i])
          << "threads=" << threads << " row " << i;
      EXPECT_EQ(a->indices[i], b->indices[i])
          << "threads=" << threads << " row " << i;
    }
  }
}

std::uint64_t DotProductCalls() {
  const simd::KernelCounters counters = simd::KernelCountersSnapshot();
  return counters.calls[static_cast<int>(simd::ActiveTarget())]
                       [static_cast<int>(simd::KernelKind::kDotProduct)];
}

TEST(StompTest, CountsOneDirectDotPerDiagonal) {
  // The diagonal walk computes the first cell of each diagonal directly and
  // every later cell by the recurrence, so the dot_product counter grows by
  // exactly the number of diagonals walked, at any thread count.
  auto series = synth::ByName("ecg", 1200, 31);
  ASSERT_TRUE(series.ok());
  const std::size_t length = 64;
  const std::size_t count = series->NumSubsequences(length);
  for (const int threads : {1, 4}) {
    ProfileOptions options;
    options.num_threads = threads;
    const std::uint64_t before = DotProductCalls();
    auto profile = ComputeStomp(*series, length, options);
    ASSERT_TRUE(profile.ok());
    EXPECT_EQ(DotProductCalls() - before, count - profile->exclusion_zone)
        << "threads=" << threads;
  }
}

TEST(StompTest, ConstantSeriesAllZeroDistances) {
  auto series = series::DataSeries::Create(std::vector<double>(100, 5.0));
  ASSERT_TRUE(series.ok());
  auto profile = ComputeStomp(*series, 10, {});
  ASSERT_TRUE(profile.ok());
  for (std::size_t i = 0; i < profile->size(); ++i) {
    EXPECT_DOUBLE_EQ(profile->distances[i], 0.0);
    EXPECT_GE(profile->indices[i], 0);
  }
}

TEST(StompTest, FullExclusionLeavesNoMatches) {
  auto series = synth::ByName("random_walk", 40, 2);
  ASSERT_TRUE(series.ok());
  // Exclusion zone of one full window length with length > n/2: no pairs.
  ProfileOptions options;
  options.exclusion_fraction = 1.0;
  auto profile = ComputeStomp(*series, 25, options);
  ASSERT_TRUE(profile.ok());
  for (std::size_t i = 0; i < profile->size(); ++i) {
    EXPECT_TRUE(std::isinf(profile->distances[i]));
    EXPECT_EQ(profile->indices[i], -1);
  }
}

TEST(StompTest, RejectsOversizedLength) {
  auto series = synth::ByName("random_walk", 50, 3);
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(ComputeStomp(*series, 51, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ComputeStomp(*series, 0, {}).status().code(),
            StatusCode::kInvalidArgument);
}

// A one-point window has zero deviation, so length 1 would yield an
// all-zero profile. STOMP and STAMP reject it with the one shared message;
// length 2 is the smallest accepted length.
TEST(StompTest, RejectsLengthOne) {
  auto series = synth::ByName("ecg", 512, 3);
  ASSERT_TRUE(series.ok());
  const std::string expected = CheckSubsequenceLength(1).message();
  for (const Status& status : {ComputeStomp(*series, 1, {}).status(),
                               ComputeStamp(*series, 1, {}).status()}) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message(), expected);
  }
  EXPECT_TRUE(ComputeStomp(*series, 2, {}).ok());
  EXPECT_TRUE(ComputeStamp(*series, 2, {}).ok());
}

TEST(StompTest, HonorsDeadline) {
  auto series = synth::ByName("random_walk", 4000, 5);
  ASSERT_TRUE(series.ok());
  ProfileOptions options;
  options.deadline = Deadline::After(-1.0);  // already expired
  EXPECT_EQ(ComputeStomp(*series, 64, options).status().code(),
            StatusCode::kDeadlineExceeded);
}

TEST(StompTest, ExclusionZoneForFractions) {
  EXPECT_EQ(ExclusionZoneFor(100, 0.5), 50u);
  EXPECT_EQ(ExclusionZoneFor(101, 0.5), 51u);  // ceil
  EXPECT_EQ(ExclusionZoneFor(100, 0.0), 1u);   // always excludes self
  EXPECT_EQ(ExclusionZoneFor(4, 0.25), 1u);
  EXPECT_EQ(ExclusionZoneFor(100, 1.0), 100u);
}

}  // namespace
}  // namespace valmod::mp
