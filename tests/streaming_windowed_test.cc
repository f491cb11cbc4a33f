// Windowed streaming-profile tests: eviction parity against batch STOMP on
// the retained window, incremental top-k parity, the anchored-normalization
// drift regression, and concurrent append/read through the service Dataset.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "mp/discord.h"
#include "mp/motif.h"
#include "mp/stomp.h"
#include "mp/streaming.h"
#include "series/data_series.h"
#include "series/generators.h"
#include "service/registry.h"

namespace valmod::mp {
namespace {

/// Batch oracle: STOMP profile of the last `window` raw values.
MatrixProfile BatchProfile(const std::vector<double>& raw, std::size_t window,
                           std::size_t length) {
  const std::size_t n = std::min(raw.size(), window);
  std::vector<double> retained(raw.end() - static_cast<long>(n), raw.end());
  auto series = series::DataSeries::Create(std::move(retained));
  EXPECT_TRUE(series.ok());
  auto batch = ComputeStomp(*series, length, {});
  EXPECT_TRUE(batch.ok());
  return *std::move(batch);
}

void ExpectProfilesMatch(const MatrixProfile& maintained,
                         const MatrixProfile& batch, double tolerance,
                         const std::string& context) {
  ASSERT_EQ(maintained.size(), batch.size()) << context;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (std::isfinite(batch.distances[i])) {
      EXPECT_NEAR(maintained.distances[i], batch.distances[i], tolerance)
          << context << " row " << i;
    } else {
      EXPECT_FALSE(std::isfinite(maintained.distances[i]))
          << context << " row " << i;
    }
  }
}

struct WindowedCase {
  std::string generator;
  std::uint64_t seed;
  std::size_t n;
  std::size_t length;
  std::size_t max_points;
};

class StreamingWindowedTest : public ::testing::TestWithParam<WindowedCase> {};

TEST_P(StreamingWindowedTest, EvictionParityWithBatchOnRetainedWindow) {
  const WindowedCase& c = GetParam();
  auto series = synth::ByName(c.generator, c.n, c.seed);
  ASSERT_TRUE(series.ok());
  const std::vector<double> raw(series->values().begin(),
                                series->values().end());

  StreamingOptions options;
  options.max_points = c.max_points;
  auto stream = StreamingProfile::Create(c.length, options);
  ASSERT_TRUE(stream.ok());

  // Feed in randomized batch sizes (append/evict interleavings differ per
  // seed) and check parity at several checkpoints deep into eviction.
  std::mt19937_64 rng(c.seed * 7919 + 13);
  std::uniform_int_distribution<std::size_t> batch_size(1, 2 * c.length);
  std::size_t fed = 0;
  std::size_t next_check = 2 * c.max_points;
  while (fed < raw.size()) {
    const std::size_t take = std::min(batch_size(rng), raw.size() - fed);
    ASSERT_TRUE(
        stream->AppendAll({raw.data() + fed, take}).ok());
    fed += take;
    if (fed >= next_check || fed == raw.size()) {
      next_check += c.max_points;
      const std::vector<double> prefix(raw.begin(),
                                       raw.begin() + static_cast<long>(fed));
      const MatrixProfile batch =
          BatchProfile(prefix, c.max_points, c.length);
      ExpectProfilesMatch(stream->ProfileSnapshot(), batch, 2e-5,
                          "checkpoint " + std::to_string(fed));
      EXPECT_EQ(stream->size(), std::min(fed, c.max_points));
      EXPECT_EQ(stream->window_start(),
                fed - std::min(fed, c.max_points));
    }
  }
  EXPECT_EQ(stream->total_appended(), raw.size());
}

TEST_P(StreamingWindowedTest, TopKMatchesBatchOracle) {
  const WindowedCase& c = GetParam();
  auto series = synth::ByName(c.generator, c.n, c.seed + 1);
  ASSERT_TRUE(series.ok());
  const std::vector<double> raw(series->values().begin(),
                                series->values().end());

  StreamingOptions options;
  options.max_points = c.max_points;
  auto stream = StreamingProfile::Create(c.length, options);
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream->AppendAll(raw).ok());

  const MatrixProfile batch = BatchProfile(raw, c.max_points, c.length);
  // Both rankings run through the same TopKMotifs/TopKDiscords free
  // functions, so any disagreement is a profile disagreement, not a
  // ranking-convention one.
  const std::size_t k = 5;
  const auto motifs = stream->TopMotifs(k);
  const auto batch_motifs = TopKMotifs(batch, k);
  ASSERT_EQ(motifs.size(), batch_motifs.size());
  for (std::size_t r = 0; r < motifs.size(); ++r) {
    EXPECT_EQ(motifs[r].offset_a, batch_motifs[r].offset_a) << "rank " << r;
    EXPECT_EQ(motifs[r].offset_b, batch_motifs[r].offset_b) << "rank " << r;
    EXPECT_NEAR(motifs[r].distance, batch_motifs[r].distance, 2e-5)
        << "rank " << r;
  }
  const auto discords = TopKDiscords(stream->ProfileSnapshot(), k);
  const auto batch_discords = TopKDiscords(batch, k);
  ASSERT_EQ(discords.size(), batch_discords.size());
  for (std::size_t r = 0; r < discords.size(); ++r) {
    EXPECT_EQ(discords[r].offset, batch_discords[r].offset) << "rank " << r;
    EXPECT_NEAR(discords[r].distance, batch_discords[r].distance, 2e-5)
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, StreamingWindowedTest,
    ::testing::Values(
        WindowedCase{"random_walk", 11, 1200, 16, 128},
        WindowedCase{"random_walk", 23, 900, 24, 200},
        WindowedCase{"sine", 37, 1500, 32, 256},
        WindowedCase{"ecg", 41, 1000, 25, 150},
        WindowedCase{"random_walk", 53, 2000, 8, 64}));

TEST(StreamingWindowedProfileTest, WindowSmallerThanTwoLengthsRejected) {
  StreamingOptions options;
  options.max_points = 31;
  EXPECT_FALSE(StreamingProfile::Create(16, options).ok());
  options.max_points = 32;
  EXPECT_TRUE(StreamingProfile::Create(16, options).ok());
}

TEST(StreamingWindowedProfileTest, AppendAllRejectsBatchAtomically) {
  StreamingOptions options;
  auto stream = StreamingProfile::Create(4, options);
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream->AppendAll(std::vector<double>{1, 2, 3, 4, 5}).ok());
  const std::vector<double> bad = {6.0, 7.0, std::nan(""), 8.0};
  const Status status = stream->AppendAll(bad);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("index 2"), std::string::npos)
      << status.message();
  // Nothing from the bad batch landed.
  EXPECT_EQ(stream->size(), 5u);
  EXPECT_EQ(stream->total_appended(), 5u);
}

TEST(StreamingWindowedProfileTest, MemoryBoundedAtHundredTimesWindow) {
  const std::size_t window = 512;
  StreamingOptions options;
  options.max_points = window;
  auto stream = StreamingProfile::Create(16, options);
  ASSERT_TRUE(stream.ok());

  auto series = synth::ByName("random_walk", 100 * window, 5);
  ASSERT_TRUE(series.ok());
  std::size_t high_water = 0;
  const auto values = series->values();
  for (std::size_t fed = 0; fed < values.size(); fed += window / 4) {
    const std::size_t take = std::min(window / 4, values.size() - fed);
    ASSERT_TRUE(stream->AppendAll(values.subspan(fed, take)).ok());
    high_water = std::max(high_water, stream->MemoryBytes());
  }
  EXPECT_EQ(stream->size(), window);
  EXPECT_EQ(stream->total_appended(), 100 * window);
  // All maintained arrays are O(window); ~6 doubles-or-int64 per retained
  // point, each buffer at most ~2x live + growth slack.
  EXPECT_LE(high_water, 40 * window * sizeof(double));
}

TEST(StreamingWindowedProfileTest, RepetitiveDataSurvivesEvictionChurn) {
  // Constant + periodic data makes every window a tie: eviction repair must
  // not degrade into quadratic re-orphan storms, and the profile must stay
  // exactly 0 where matches exist.
  StreamingOptions options;
  options.max_points = 96;
  auto stream = StreamingProfile::Create(8, options);
  ASSERT_TRUE(stream.ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(stream->Append(3.5).ok());
  }
  const MatrixProfile profile = stream->ProfileSnapshot();
  for (std::size_t i = 0; i < profile.size(); ++i) {
    if (profile.indices[i] >= 0) {
      EXPECT_DOUBLE_EQ(profile.distances[i], 0.0) << i;
      EXPECT_LT(profile.indices[i],
                static_cast<std::int64_t>(profile.size()));
    }
  }
}

// ---------------------------------------------------------------------------
// Anchored-normalization drift regression (the caveat README documents):
// a fixed anchor makes the incremental variance cancel catastrophically once
// the window mean drifts far from it; periodic re-anchoring keeps parity.
// ---------------------------------------------------------------------------

std::vector<double> LevelShiftStream(std::size_t n_high, std::size_t n_low) {
  // A stretch at level 1e6, then a sine around 0: once the window slides
  // past the shift the retained values sit ~1e6 away from the fixed anchor.
  std::vector<double> values;
  values.reserve(n_high + n_low);
  for (std::size_t i = 0; i < n_high; ++i) {
    values.push_back(1e6 + std::sin(0.4 * static_cast<double>(i)));
  }
  for (std::size_t i = 0; i < n_low; ++i) {
    values.push_back(std::sin(0.31 * static_cast<double>(i)) +
                     0.2 * std::sin(0.043 * static_cast<double>(i)));
  }
  return values;
}

TEST(StreamingReanchorTest, ReanchoringKeepsParityWhereFixedAnchorDrifts) {
  // Once the window holds only the low stretch, its values sit ~1e6 from
  // the anchor the stream started with; without re-anchoring, the
  // distances here drift from batch by about 0.37.
  const std::size_t length = 16;
  const std::size_t window = 128;
  const std::vector<double> raw = LevelShiftStream(100, 500);

  StreamingOptions options;
  options.max_points = window;
  auto stream = StreamingProfile::Create(length, options);
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream->AppendAll(raw).ok());

  const MatrixProfile maintained = stream->ProfileSnapshot();
  const MatrixProfile batch = BatchProfile(raw, window, length);
  ASSERT_EQ(maintained.size(), batch.size());
  double max_error = 0.0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!std::isfinite(batch.distances[i])) continue;
    max_error = std::max(
        max_error, std::abs(maintained.distances[i] - batch.distances[i]));
  }
  // Re-anchored: same accuracy as the non-drifting parity suites.
  EXPECT_LT(max_error, 1e-5);
}

// ---------------------------------------------------------------------------
// Concurrency: appends race snapshot/profile/top-k readers through the
// service Dataset (run under TSan in CI).
// ---------------------------------------------------------------------------

TEST(StreamingWindowedConcurrencyTest, AppendsRaceReaders) {
  auto dataset = service::Dataset::CreateStreaming(
      "stream", /*subsequence_length=*/16, /*exclusion_fraction=*/0.5,
      /*max_points=*/256);
  ASSERT_TRUE(dataset.ok());
  auto series = synth::ByName("random_walk", 4096, 77);
  ASSERT_TRUE(series.ok());
  const auto values = series->values();

  std::thread appender([&] {
    for (std::size_t fed = 0; fed < values.size(); fed += 32) {
      ASSERT_TRUE((*dataset)->Append(values.subspan(fed, 32)).ok());
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        auto state = (*dataset)->StreamingProfileSnapshot();
        if (state.ok()) {
          EXPECT_LE(state->profile.size(), 256u);
          EXPECT_LE(TopKMotifs(state->profile, 3).size(), 3u);
        }
        (void)(*dataset)->Snapshot();  // batch materialization racing appends
        (void)(*dataset)->Memory();
      }
    });
  }
  appender.join();
  for (std::thread& reader : readers) reader.join();

  // Final state parity: maintained profile equals batch on the retained
  // window even after the concurrent churn.
  auto state = (*dataset)->StreamingProfileSnapshot();
  ASSERT_TRUE(state.ok());
  const std::vector<double> raw(values.begin(), values.end());
  const MatrixProfile batch = BatchProfile(raw, 256, 16);
  ExpectProfilesMatch(state->profile, batch, 2e-5, "after concurrency");
}

}  // namespace
}  // namespace valmod::mp
