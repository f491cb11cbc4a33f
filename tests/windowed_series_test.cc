// Tests for the ring-buffer series backing windowed streaming ingestion.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "series/windowed_series.h"

namespace valmod::series {
namespace {

TEST(SlidingBufferTest, PushPopKeepsLiveWindow) {
  SlidingBuffer<int> buffer;
  for (int i = 0; i < 10; ++i) buffer.PushBack(i);
  ASSERT_EQ(buffer.size(), 10u);
  buffer.PopFront(3);
  ASSERT_EQ(buffer.size(), 7u);
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    EXPECT_EQ(buffer[i], static_cast<int>(i + 3));
  }
  EXPECT_EQ(buffer.back(), 9);
}

TEST(SlidingBufferTest, SpanIsContiguousAndLive) {
  SlidingBuffer<double> buffer;
  for (int i = 0; i < 8; ++i) buffer.PushBack(i * 0.5);
  buffer.PopFront(2);
  const auto span = buffer.Span();
  ASSERT_EQ(span.size(), 6u);
  EXPECT_DOUBLE_EQ(span[0], 1.0);
  EXPECT_DOUBLE_EQ(span[5], 3.5);
}

TEST(SlidingBufferTest, CompactionBoundsMemory) {
  // Stream far past the live size: the buffer must compact so its
  // footprint tracks the live window, not the total pushed.
  SlidingBuffer<double> buffer;
  const std::size_t live = 64;
  for (std::size_t i = 0; i < 100 * live; ++i) {
    buffer.PushBack(static_cast<double>(i));
    if (buffer.size() > live) buffer.PopFront();
  }
  EXPECT_EQ(buffer.size(), live);
  EXPECT_GT(buffer.compactions(), 0u);
  // Amortized bound: capacity stays within a small constant of the live
  // window (vector growth + the <2x live head slack before compaction).
  EXPECT_LE(buffer.MemoryBytes(), 8 * live * sizeof(double));
  EXPECT_DOUBLE_EQ(buffer[0], static_cast<double>(100 * live - live));
}

TEST(SlidingBufferTest, ClearResets) {
  SlidingBuffer<int> buffer;
  for (int i = 0; i < 5; ++i) buffer.PushBack(i);
  buffer.PopFront(2);
  buffer.Clear();
  EXPECT_EQ(buffer.size(), 0u);
  buffer.PushBack(42);
  EXPECT_EQ(buffer[0], 42);
}

TEST(WindowedSeriesTest, UnboundedNeverEvicts) {
  WindowedSeries series(0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(series.Append(static_cast<double>(i)), 0u);
  }
  EXPECT_EQ(series.size(), 1000u);
  EXPECT_EQ(series.start_index(), 0u);
  EXPECT_EQ(series.total_appended(), 1000u);
}

TEST(WindowedSeriesTest, BoundedEvictsOldest) {
  WindowedSeries series(10);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(series.Append(static_cast<double>(i)), 0u);
  }
  for (int i = 10; i < 25; ++i) {
    EXPECT_EQ(series.Append(static_cast<double>(i)), 1u);
  }
  EXPECT_EQ(series.size(), 10u);
  EXPECT_EQ(series.start_index(), 15u);
  EXPECT_EQ(series.total_appended(), 25u);
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_DOUBLE_EQ(series[i], static_cast<double>(15 + i));
  }
}

TEST(WindowedSeriesTest, MemoryBoundedOverLongStream) {
  const std::size_t max_points = 256;
  WindowedSeries series(max_points);
  for (std::size_t i = 0; i < 100 * max_points; ++i) {
    series.Append(static_cast<double>(i % 97));
  }
  EXPECT_EQ(series.size(), max_points);
  EXPECT_LE(series.MemoryBytes(), 8 * max_points * sizeof(double));
}

}  // namespace
}  // namespace valmod::series
