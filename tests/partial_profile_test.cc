// Tests for the partial distance profile storage (the best-LB entries of
// every subsequence, p per row until a row grows).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/match_order.h"
#include "core/partial_profile.h"

namespace valmod::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(PartialProfileTest, KeepsSmallestBaseLbs) {
  PartialProfileSet set(1, 3, 50);
  const double lbs[] = {5.0, 1.0, 4.0, 2.0, 9.0, 3.0};
  for (int i = 0; i < 6; ++i) {
    set.Offer(0, i, /*dot=*/0.0, lbs[i]);
  }
  set.FinishSeeding(0);

  auto row = set.Row(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_DOUBLE_EQ(row[0].base_lb, 1.0);
  EXPECT_DOUBLE_EQ(row[1].base_lb, 2.0);
  EXPECT_DOUBLE_EQ(row[2].base_lb, 3.0);
  EXPECT_EQ(row[0].match, 1);
  EXPECT_EQ(row[1].match, 3);
  EXPECT_EQ(row[2].match, 5);
}

TEST(PartialProfileTest, MaxBaseLbIsPthSmallestWhenFull) {
  PartialProfileSet set(1, 2, 10);
  set.Offer(0, 0, 0.0, 7.0);
  set.Offer(0, 1, 0.0, 3.0);
  set.Offer(0, 2, 0.0, 5.0);
  set.FinishSeeding(0);
  EXPECT_DOUBLE_EQ(set.max_base_lb(0), 5.0);
}

TEST(PartialProfileTest, UnderfullRowHasInfiniteBound) {
  // Fewer candidates than p: the stored set is exhaustive, so nothing is
  // unexplored and the bound must be vacuous (+inf).
  PartialProfileSet set(1, 5, 10);
  set.Offer(0, 0, 0.0, 2.0);
  set.Offer(0, 1, 0.0, 1.0);
  set.FinishSeeding(0);
  EXPECT_EQ(set.max_base_lb(0), kInf);
  EXPECT_EQ(set.Row(0).size(), 2u);
}

TEST(PartialProfileTest, RowsAreIndependent) {
  PartialProfileSet set(3, 2, 10);
  set.Offer(0, 5, 0.0, 1.0);
  set.Offer(2, 6, 0.0, 2.0);
  set.FinishSeeding(0);
  set.FinishSeeding(1);
  set.FinishSeeding(2);
  EXPECT_EQ(set.Row(0).size(), 1u);
  EXPECT_EQ(set.Row(1).size(), 0u);
  EXPECT_EQ(set.Row(2).size(), 1u);
  EXPECT_EQ(set.rows(), 3u);
  EXPECT_EQ(set.capacity(1), 2u);
}

TEST(PartialProfileTest, CompactionPreservesOrder) {
  PartialProfileSet set(1, 4, 10);
  set.Offer(0, 10, 0.0, 1.0);
  set.Offer(0, 20, 0.0, 2.0);
  set.Offer(0, 30, 0.0, 3.0);
  set.Offer(0, 40, 0.0, 4.0);
  set.FinishSeeding(0);

  set.CompactRow(0, [](const Entry& e) { return e.match == 20; });
  auto row = set.Row(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].match, 10);
  EXPECT_EQ(row[1].match, 30);
  EXPECT_EQ(row[2].match, 40);

  // The frozen bound is untouched by compaction.
  EXPECT_DOUBLE_EQ(set.max_base_lb(0), 4.0);
}

TEST(PartialProfileTest, CompactAllLeavesEmptyRow) {
  PartialProfileSet set(1, 2, 10);
  set.Offer(0, 1, 0.0, 1.0);
  set.Offer(0, 2, 0.0, 2.0);
  set.FinishSeeding(0);
  set.CompactRow(0, [](const Entry&) { return true; });
  EXPECT_EQ(set.Row(0).size(), 0u);
}

TEST(PartialProfileTest, ResetReanchorsRow) {
  PartialProfileSet set(1, 2, 10);
  set.Offer(0, 1, 0.0, 1.0);
  set.Offer(0, 2, 0.0, 2.0);
  set.FinishSeeding(0);
  EXPECT_EQ(set.base_length(0), 10u);

  set.Reset(0, 25);
  EXPECT_EQ(set.Row(0).size(), 0u);
  EXPECT_EQ(set.base_length(0), 25u);
  EXPECT_EQ(set.max_base_lb(0), kInf);

  set.Offer(0, 7, 0.0, 0.5);
  set.FinishSeeding(0);
  EXPECT_EQ(set.Row(0)[0].match, 7);
}

TEST(PartialProfileTest, MutableRowUpdatesStick) {
  PartialProfileSet set(1, 2, 10);
  set.Offer(0, 1, 5.0, 1.0);
  set.FinishSeeding(0);
  for (Entry& e : set.MutableRow(0)) e.dot += 1.5;
  EXPECT_DOUBLE_EQ(set.Row(0)[0].dot, 6.5);
}

TEST(PartialProfileTest, ManyOffersStressHeap) {
  // 1000 offers into p = 8; result must be exactly the 8 smallest.
  PartialProfileSet set(1, 8, 100);
  std::vector<double> lbs;
  for (int i = 0; i < 1000; ++i) {
    const double lb = static_cast<double>((i * 7919) % 10007);
    lbs.push_back(lb);
    set.Offer(0, i, 0.0, lb);
  }
  set.FinishSeeding(0);
  std::sort(lbs.begin(), lbs.end());
  auto row = set.Row(0);
  ASSERT_EQ(row.size(), 8u);
  for (std::size_t e = 0; e < 8; ++e) {
    EXPECT_DOUBLE_EQ(row[e].base_lb, lbs[e]) << e;
  }
  EXPECT_DOUBLE_EQ(set.max_base_lb(0), lbs[7]);
}

/// Offers `count` candidates to `row`: matches 0..count-1 with base LBs that
/// repeat every 5 (so the order needs MatchPrecedes' gap and offset ties)
/// and dot = match + 0.5.
void OfferMany(PartialProfileSet* set, std::size_t row, int count) {
  for (int m = 0; m < count; ++m) {
    set->Offer(row, m, m + 0.5, static_cast<double>((m * 3) % 5));
  }
}

/// The `keep` first of those candidates under MatchPrecedes on base LB.
std::vector<Entry> BestOf(std::size_t row, int count, std::size_t keep) {
  std::vector<Entry> all;
  for (int m = 0; m < count; ++m) {
    all.push_back({m, m + 0.5, static_cast<double>((m * 3) % 5)});
  }
  std::sort(all.begin(), all.end(), [&](const Entry& a, const Entry& b) {
    return MatchPrecedes(a.base_lb, a.match, b.base_lb, b.match, row);
  });
  all.resize(keep);
  return all;
}

void ExpectRow(const PartialProfileSet& set, std::size_t row,
               const std::vector<Entry>& want) {
  auto got = set.Row(row);
  ASSERT_EQ(got.size(), want.size()) << "row " << row;
  for (std::size_t e = 0; e < want.size(); ++e) {
    EXPECT_EQ(got[e].match, want[e].match) << "row " << row << " entry " << e;
    EXPECT_EQ(got[e].dot, want[e].dot) << "row " << row << " entry " << e;
    EXPECT_EQ(got[e].base_lb, want[e].base_lb)
        << "row " << row << " entry " << e;
  }
}

TEST(PartialProfileTest, GrownRowKeepsItsTwoPBest) {
  PartialProfileSet set(3, 3, 10);
  EXPECT_EQ(set.capacity(1), 3u);
  ASSERT_TRUE(set.Grow(1, 6));
  EXPECT_EQ(set.capacity(1), 6u);
  OfferMany(&set, 1, 40);
  set.FinishSeeding(1);
  ExpectRow(set, 1, BestOf(1, 40, 6));
}

TEST(PartialProfileTest, FinishSeedingFreezesBoundFromRowCapacity) {
  PartialProfileSet set(2, 2, 10);
  ASSERT_TRUE(set.Grow(0, 4));
  // Three candidates fill a stride-p row but not the grown one: the stored
  // set is exhaustive, so the bound stays vacuous and the gate open.
  OfferMany(&set, 0, 3);
  EXPECT_TRUE(set.Admits(0, 1e300));
  set.FinishSeeding(0);
  EXPECT_EQ(set.max_base_lb(0), kInf);

  set.Reset(0, 11);
  EXPECT_EQ(set.capacity(0), 4u);  // Reset keeps the capacity
  OfferMany(&set, 0, 12);
  EXPECT_FALSE(set.Admits(0, 1e300));
  set.FinishSeeding(0);
  const std::vector<Entry> best = BestOf(0, 12, 4);
  EXPECT_EQ(set.max_base_lb(0), best.back().base_lb);
  ExpectRow(set, 0, best);
}

TEST(PartialProfileTest, GrowingLeavesNeighbouringRowsUntouched) {
  PartialProfileSet set(3, 2, 10);
  simd::OfferSink sink = set.Sink();
  for (std::size_t row : {0, 2}) {
    for (int m = 0; m < 9; ++m) {
      const double lb = static_cast<double>((m * 3) % 5);
      if (lb <= sink.admit[row]) sink.offer(sink.context, row, m, m + 0.5, lb);
    }
  }
  set.FinishSeeding(0);
  set.FinishSeeding(2);

  ASSERT_TRUE(set.Grow(1, 8));
  OfferMany(&set, 1, 30);
  set.FinishSeeding(1);

  EXPECT_EQ(set.capacity(0), 2u);
  EXPECT_EQ(set.capacity(2), 2u);
  ExpectRow(set, 0, BestOf(0, 9, 2));
  ExpectRow(set, 2, BestOf(2, 9, 2));
  ExpectRow(set, 1, BestOf(1, 30, 8));
  EXPECT_EQ(set.max_base_lb(0), BestOf(0, 9, 2).back().base_lb);
}

TEST(PartialProfileTest, CompactRowWorksOnGrownRow) {
  PartialProfileSet set(2, 2, 10);
  ASSERT_TRUE(set.Grow(1, 5));
  OfferMany(&set, 1, 20);
  set.FinishSeeding(1);
  const double bound = set.max_base_lb(1);

  std::vector<Entry> want = BestOf(1, 20, 5);
  const auto odd = [](const Entry& e) { return e.match % 2 != 0; };
  want.erase(std::remove_if(want.begin(), want.end(), odd), want.end());
  set.CompactRow(1, odd);
  ExpectRow(set, 1, want);
  EXPECT_EQ(set.max_base_lb(1), bound);
  EXPECT_EQ(set.capacity(1), 5u);
}

TEST(PartialProfileTest, GrowthPastBudgetIsRefused) {
  // 2 rows of p = 16: the budget is 2 * 32 entries, 32 of them the stride
  // array, so the pool has room for one 32-entry slice.
  static_assert(PartialProfileSet::kBudgetPerRow == 32);
  PartialProfileSet set(2, 16, 10);
  ASSERT_TRUE(set.Grow(0, 32));
  OfferMany(&set, 1, 20);
  set.FinishSeeding(1);

  EXPECT_FALSE(set.Grow(1, 32));
  EXPECT_EQ(set.capacity(1), 16u);
  ExpectRow(set, 1, BestOf(1, 20, 16));  // a refused row is left as it was

  // Row 0's own slice is released when it regrows, but 64 is still past
  // the room.
  EXPECT_FALSE(set.Grow(0, 64));
  EXPECT_EQ(set.capacity(0), 32u);
  // Nor does a capacity no larger than the row's count as growth.
  EXPECT_FALSE(set.Grow(0, 32));
}

TEST(PartialProfileTest, RegrowingReclaimsAbandonedSlices) {
  // 3 rows of p = 4: budget 96, stride array 12, pool room 84.
  PartialProfileSet set(3, 4, 10);
  ASSERT_TRUE(set.Grow(0, 8));
  OfferMany(&set, 0, 30);
  set.FinishSeeding(0);
  ASSERT_TRUE(set.Grow(1, 16));
  OfferMany(&set, 1, 30);
  set.FinishSeeding(1);
  ASSERT_TRUE(set.Grow(0, 16));  // abandons row 0's 8-entry slice
  OfferMany(&set, 0, 30);
  set.FinishSeeding(0);
  ASSERT_TRUE(set.Grow(1, 32));  // abandons row 1's 16-entry slice
  OfferMany(&set, 1, 30);
  set.FinishSeeding(1);
  // Live slices hold 48 of the 84, the pool has handed out 72: the next 32
  // fit only once the abandoned 24 are compacted away, which must carry
  // the live rows' entries along.
  ASSERT_TRUE(set.Grow(2, 32));
  OfferMany(&set, 2, 30);
  set.FinishSeeding(2);
  ExpectRow(set, 0, BestOf(0, 30, 16));
  ExpectRow(set, 1, BestOf(1, 30, 30));
  ExpectRow(set, 2, BestOf(2, 30, 30));
  EXPECT_EQ(set.max_base_lb(1), kInf);  // 30 candidates under capacity 32
  EXPECT_FALSE(set.Grow(2, 64));
}

TEST(PartialProfileTest, ClosedRowNeverGrows) {
  PartialProfileSet set(2, 2, 10);
  set.Close(0);
  EXPECT_FALSE(set.Grow(0, 4));
  EXPECT_EQ(set.capacity(0), 2u);
  EXPECT_FALSE(set.seeded(0));
}

}  // namespace
}  // namespace valmod::core
