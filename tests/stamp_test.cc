// Tests for STAMP: agreement with STOMP (independent inner loops) and with
// the brute-force ground truth.

#include <gtest/gtest.h>

#include <string>

#include "common/timer.h"
#include "mp/brute_force.h"
#include "mp/stamp.h"
#include "mp/stomp.h"
#include "series/generators.h"

namespace valmod::mp {
namespace {

struct StampCase {
  std::string generator;
  std::size_t n;
  std::size_t length;
};

class StampTest : public ::testing::TestWithParam<StampCase> {};

TEST_P(StampTest, MatchesBruteForce) {
  const StampCase& c = GetParam();
  auto series = synth::ByName(c.generator, c.n, 41);
  ASSERT_TRUE(series.ok());
  auto stamp = ComputeStamp(*series, c.length, {});
  auto brute = ComputeBruteForce(*series, c.length, {});
  ASSERT_TRUE(stamp.ok());
  ASSERT_TRUE(brute.ok());
  ASSERT_EQ(stamp->size(), brute->size());
  for (std::size_t i = 0; i < brute->size(); ++i) {
    EXPECT_NEAR(stamp->distances[i], brute->distances[i], 2e-6) << i;
  }
}

TEST_P(StampTest, AgreesWithStomp) {
  const StampCase& c = GetParam();
  auto series = synth::ByName(c.generator, c.n, 43);
  ASSERT_TRUE(series.ok());
  auto stamp = ComputeStamp(*series, c.length, {});
  auto stomp = ComputeStomp(*series, c.length, {});
  ASSERT_TRUE(stamp.ok());
  ASSERT_TRUE(stomp.ok());
  for (std::size_t i = 0; i < stamp->size(); ++i) {
    EXPECT_NEAR(stamp->distances[i], stomp->distances[i], 2e-6) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, StampTest,
                         ::testing::Values(StampCase{"random_walk", 250, 25},
                                           StampCase{"sine", 300, 30},
                                           StampCase{"ecg", 350, 40}));

// STAMP fans row chunks across the thread pool; the chunking and the
// engine's row pairing depend only on the (fixed) row order, so the profile
// must be bit-identical across thread counts — on both sides of the MASS
// cost-model crossover (direct products for short windows, pair-packed FFT
// for long ones).
TEST(StampThreadingTest, ThreadCountDoesNotChangeOutputDirectPath) {
  auto series = synth::ByName("ecg", 700, 47);
  ASSERT_TRUE(series.ok());
  ProfileOptions serial;
  serial.num_threads = 1;
  ProfileOptions threaded;
  threaded.num_threads = 4;
  auto a = ComputeStamp(*series, 40, serial);
  auto b = ComputeStamp(*series, 40, threaded);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ(a->distances[i], b->distances[i]) << i;
    EXPECT_EQ(a->indices[i], b->indices[i]) << i;
  }
}

TEST(StampThreadingTest, ThreadCountDoesNotChangeOutputFftPath) {
  // 2048 points at length 1024 sits past the cost-model crossover, so rows
  // run through the pair-packed FFT path.
  auto series = synth::ByName("random_walk", 2048, 49);
  ASSERT_TRUE(series.ok());
  ProfileOptions serial;
  serial.num_threads = 1;
  ProfileOptions threaded;
  threaded.num_threads = 4;
  auto a = ComputeStamp(*series, 1024, serial);
  auto b = ComputeStamp(*series, 1024, threaded);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ(a->distances[i], b->distances[i]) << i;
    EXPECT_EQ(a->indices[i], b->indices[i]) << i;
  }
  // And the FFT-path profile must still agree with STOMP's independently
  // derived profile.
  auto stomp = ComputeStomp(*series, 1024, {});
  ASSERT_TRUE(stomp.ok());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_NEAR(a->distances[i], stomp->distances[i], 2e-6) << i;
  }
}

TEST(StampTest, RejectsLengthBeyondSeries) {
  auto series = synth::ByName("sine", 128, 3);
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(ComputeStamp(*series, 500, {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StampDeadlineTest, HonorsDeadline) {
  auto series = synth::ByName("random_walk", 2000, 5);
  ASSERT_TRUE(series.ok());
  ProfileOptions options;
  options.deadline = Deadline::After(-1.0);
  EXPECT_EQ(ComputeStamp(*series, 50, options).status().code(),
            StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace valmod::mp
