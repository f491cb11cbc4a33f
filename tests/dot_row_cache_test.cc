// The STOMP-recurrence derivation of VALMOD's recomputed dot rows
// (core/dot_row_cache.h) against direct sliding dot products: forward and
// backward offset steps, length advances as the window count shrinks, the
// first and last rows, constant windows and windows either side of the
// constant-window threshold. Also the cache's base choice, its drift cap,
// dominance and least-recently-used eviction, and its byte budget.

#include "core/dot_row_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "mass/mass.h"
#include "series/data_series.h"
#include "series/generators.h"
#include "simd/dispatch.h"

namespace valmod::core {
namespace {

series::DataSeries FromValues(std::vector<double> values) {
  auto series = series::DataSeries::Create(std::move(values));
  EXPECT_TRUE(series.ok());
  return std::move(*series);
}

std::vector<double> RandomWalkValues(std::size_t n, std::uint64_t seed) {
  auto series = synth::ByName("random_walk", n, seed);
  EXPECT_TRUE(series.ok());
  return {series->values().begin(), series->values().end()};
}

/// The exact row of `offset` at `length`, as MASS's direct backend
/// computes it.
DotRow DirectRow(const series::DataSeries& series, std::size_t offset,
                 std::size_t length) {
  const std::size_t count = series.NumSubsequences(length);
  return DotRow{offset, length, 0,
                mass::DirectSlidingDots(
                    series.centered(),
                    series.centered().subspan(offset, length), count)};
}

/// Compares every cell of `dots` with the direct row of (offset, length),
/// within the error of `steps` recurrence steps on the products summed.
void ExpectCloseToDirect(const series::DataSeries& series,
                         const std::vector<double>& dots, std::size_t offset,
                         std::size_t length, std::size_t steps,
                         const std::string& where) {
  const DotRow want = DirectRow(series, offset, length);
  ASSERT_EQ(dots.size(), want.dots.size()) << where;
  double scale = 0.0;
  for (const double c : series.centered()) scale = std::max(scale, c * c);
  const double tolerance = 1e-12 * scale * static_cast<double>(length) *
                           static_cast<double>(steps + 1);
  for (std::size_t j = 0; j < want.dots.size(); ++j) {
    EXPECT_NEAR(dots[j], want.dots[j], tolerance) << where << " cell " << j;
  }
}

void ExpectDerivedMatchesDirect(const series::DataSeries& series,
                                const DotRow& base, std::size_t offset,
                                std::size_t length, const std::string& where) {
  std::vector<double> derived;
  DeriveDotRow(series.centered(), base, offset, length, &derived);
  ExpectCloseToDirect(series, derived, offset, length,
                      DerivationSteps(base, offset, length), where);
}

TEST(DotRowDerivationTest, ForwardAndBackwardOffsetSteps) {
  const series::DataSeries series = FromValues(RandomWalkValues(700, 3));
  const DotRow base = DirectRow(series, 300, 48);
  for (const std::size_t offset : {301u, 305u, 340u, 299u, 290u, 252u}) {
    ExpectDerivedMatchesDirect(series, base, offset, 48,
                               "offset " + std::to_string(offset));
  }
}

TEST(DotRowDerivationTest, LengthAdvancesShrinkTheCount) {
  const series::DataSeries series = FromValues(RandomWalkValues(700, 4));
  const DotRow base = DirectRow(series, 200, 40);
  for (const std::size_t length : {41u, 44u, 72u}) {
    ExpectDerivedMatchesDirect(series, base, 200, length,
                               "length " + std::to_string(length));
  }
  // Offset and length steps together, both directions.
  ExpectDerivedMatchesDirect(series, base, 207, 45, "forward+length");
  ExpectDerivedMatchesDirect(series, base, 193, 45, "backward+length");
}

TEST(DotRowDerivationTest, FirstAndLastRows) {
  const series::DataSeries series = FromValues(RandomWalkValues(400, 5));
  const std::size_t length = 32;
  const std::size_t last = series.NumSubsequences(length) - 1;
  // To row 0 backward and to the last row forward, at the base length and
  // after length advances (the last row at a longer length moves down).
  ExpectDerivedMatchesDirect(series, DirectRow(series, 6, length), 0, length,
                             "row 0");
  ExpectDerivedMatchesDirect(series, DirectRow(series, last - 5, length),
                             last, length, "last row");
  ExpectDerivedMatchesDirect(series, DirectRow(series, last, length),
                             last - 3, length + 3, "last row, longer");
  ExpectDerivedMatchesDirect(series, DirectRow(series, 0, length), 0,
                             length + 8, "row 0, longer");
}

std::uint64_t DotProductCalls() {
  const simd::KernelCounters counters = simd::KernelCountersSnapshot();
  return counters.calls[static_cast<int>(simd::ActiveTarget())]
                       [static_cast<int>(simd::KernelKind::kDotProduct)];
}

TEST(DotRowDerivationTest, CountsTheDirectEdgeCells) {
  // Only the edge cells no offset step reaches are direct dot products: the
  // first s windows of a forward step s; of a backward step s, the last s
  // less the windows the length advances drop from the count.
  const series::DataSeries series = FromValues(RandomWalkValues(500, 9));
  const DotRow base = DirectRow(series, 200, 40);
  struct Case {
    std::size_t offset;
    std::size_t length;
    std::uint64_t direct;
  };
  for (const Case& c : {Case{200, 40, 0}, Case{205, 40, 5}, Case{195, 40, 5},
                        Case{207, 43, 7}, Case{193, 43, 4},
                        Case{198, 45, 0}}) {
    std::vector<double> derived;
    const std::uint64_t before = DotProductCalls();
    DeriveDotRow(series.centered(), base, c.offset, c.length, &derived);
    EXPECT_EQ(DotProductCalls() - before, c.direct)
        << "offset " << c.offset << " length " << c.length;
  }
}

TEST(DotRowDerivationTest, ConstantWindowsAndTheThreshold) {
  std::vector<double> values = RandomWalkValues(600, 6);
  // A plateau, then two quiet stretches whose alternating wiggle puts their
  // window standard deviations at half and at twice the series'
  // constant-window threshold.
  std::fill(values.begin() + 100, values.begin() + 180, values[100]);
  const double threshold =
      FromValues(values).stats().constant_std_threshold();
  const auto wiggle = [&](std::size_t from, std::size_t to, double amp) {
    const double level = values[from];
    for (std::size_t i = from; i < to; ++i) {
      values[i] = level + (i % 2 == 0 ? amp : -amp);
    }
  };
  wiggle(250, 330, 0.5 * threshold);
  wiggle(400, 480, 2.0 * threshold);
  const series::DataSeries series = FromValues(values);
  const std::size_t length = 24;
  ASSERT_TRUE(series.stats().IsConstant(120, length));
  // Rows inside, entering and leaving each stretch, derived from bases on
  // either side.
  for (const std::size_t row : {120u, 100u, 170u, 270u, 300u, 420u, 470u}) {
    const DotRow base = DirectRow(series, row + 9, length);
    ExpectDerivedMatchesDirect(series, base, row, length + 2,
                               "row " + std::to_string(row));
  }
}

TEST(DotRowDerivationTest, ChainToTheDriftCapStaysClose) {
  // One step at a time from a direct row, as a run of cached rows would
  // chain them, up to the window count — the drift cap, as many steps as
  // the longest STOMP diagonal walks: forward across half the rows, back,
  // then a length advance when the count is odd.
  const series::DataSeries series = FromValues(RandomWalkValues(300, 7));
  const std::size_t length = 16;
  const std::size_t count = series.NumSubsequences(length);
  const std::size_t half = count / 2;
  DotRow row = DirectRow(series, 0, length);
  DotRowCache cache(series.size());
  for (std::size_t step = 1; step <= count; ++step) {
    std::size_t offset = row.offset;
    std::size_t next_length = row.length;
    if (step <= half) {
      ++offset;
    } else if (step <= 2 * half) {
      --offset;
    } else {
      ++next_length;
    }
    DotRow next{offset, next_length, row.chain + 1, {}};
    DeriveDotRow(series.centered(), row, offset, next_length, &next.dots);
    row = std::move(next);
  }
  ASSERT_EQ(row.chain, count);
  ExpectCloseToDirect(series, row.dots, row.offset, row.length, row.chain,
                      "end of chain");
  // A base at the cap serves no further step.
  cache.Insert(row);
  EXPECT_EQ(cache.FindBase(row.offset, row.length + 1, count), nullptr);
  EXPECT_NE(cache.FindBase(row.offset, row.length, count), nullptr);
}

TEST(DotRowCacheTest, PicksTheNearestBaseWithinTheStepCap) {
  DotRowCache cache(512);
  ASSERT_GE(cache.capacity(), 4u);
  cache.Insert(DotRow{100, 20, 0, std::vector<double>(493)});
  cache.Insert(DotRow{300, 20, 0, std::vector<double>(493)});
  const std::size_t no_cap = 1000;

  const DotRow* base = cache.FindBase(104, 22, no_cap);
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(base->offset, 100u);
  base = cache.FindBase(290, 21, no_cap);
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(base->offset, 300u);
  // A row at a longer length never serves a shorter one.
  EXPECT_EQ(cache.FindBase(100, 19, no_cap), nullptr);
  // Out of reach: more than kMaxSteps steps from every cached row.
  EXPECT_EQ(cache.FindBase(200, 20, no_cap), nullptr);
  EXPECT_EQ(cache.FindBase(100, 20 + DotRowCache::kMaxSteps + 1, no_cap),
            nullptr);
  EXPECT_NE(cache.FindBase(100 + DotRowCache::kMaxSteps, 20, no_cap),
            nullptr);
}

TEST(DotRowCacheTest, ChainsStopAtTheDriftCap) {
  DotRowCache cache(512);
  // A row already 95 recurrence steps from its MASS anchor: with a cap of
  // 100 windows' worth of steps, a base 5 steps away is the farthest it
  // may serve.
  cache.Insert(DotRow{50, 20, 95, std::vector<double>(493)});
  EXPECT_NE(cache.FindBase(55, 20, 100), nullptr);
  EXPECT_EQ(cache.FindBase(56, 20, 100), nullptr);
  EXPECT_EQ(cache.FindBase(53, 23, 100), nullptr);

  // Ties on steps go to the shorter chain.
  cache.Insert(DotRow{60, 20, 0, std::vector<double>(493)});
  const DotRow* base = cache.FindBase(55, 20, 1000);
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(base->offset, 60u);
}

TEST(DotRowCacheTest, DominatedRowsAndTheLeastRecentlyUsedMakeRoom) {
  DotRowCache cache(512);
  const std::size_t capacity = cache.capacity();
  ASSERT_EQ(capacity, DotRowCache::kBudgetBytes / (512 * sizeof(double)));
  // The same offset at a longer length, and a neighbour no farther away
  // than the lengths grew, replace a row.
  cache.Insert(DotRow{100, 20, 0, std::vector<double>(493)});
  cache.Insert(DotRow{100, 21, 1, std::vector<double>(492)});
  EXPECT_EQ(cache.size(), 1u);
  cache.Insert(DotRow{102, 23, 3, std::vector<double>(490)});
  EXPECT_EQ(cache.size(), 1u);
  // A neighbour farther away than that does not.
  cache.Insert(DotRow{110, 24, 0, std::vector<double>(489)});
  EXPECT_EQ(cache.size(), 2u);

  // Fill the cache with distant rows; the next insert evicts the least
  // recently used, which a pick refreshes.
  for (std::size_t i = cache.size(); i < capacity; ++i) {
    cache.Insert(DotRow{1000 + 200 * i, 24, 0, std::vector<double>(489)});
  }
  ASSERT_EQ(cache.size(), capacity);
  ASSERT_NE(cache.FindBase(102, 24, 1000), nullptr);  // refreshes 102
  cache.Insert(DotRow{50000, 24, 0, std::vector<double>(489)});
  EXPECT_EQ(cache.size(), capacity);
  const DotRow* base = cache.FindBase(110, 24, 1000);
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(base->offset, 102u);  // 110 was evicted
}

TEST(DotRowCacheTest, HoldsNothingWhenOneRowPassesTheBudget) {
  DotRowCache cache(DotRowCache::kBudgetBytes / sizeof(double) + 1);
  EXPECT_EQ(cache.capacity(), 0u);
  cache.Insert(DotRow{0, 8, 0, std::vector<double>(16)});
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.FindBase(0, 8, 100), nullptr);
  // About 16 rows at n = 4096.
  EXPECT_EQ(DotRowCache(4096).capacity(), 16u);
}

}  // namespace
}  // namespace valmod::core
