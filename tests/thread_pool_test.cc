// Tests for the persistent thread pool behind ParallelFor: coverage and
// partitioning semantics, thread reuse across regions (the no-spawn-per-batch
// guarantee), nested and concurrent regions, exceptions thrown inside a
// region, and the status variant's deterministic error selection.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <new>
#include <numeric>
#include <thread>
#include <vector>

#include "common/parallel.h"

namespace valmod {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 7}) {
    std::vector<std::atomic<int>> hits(1000);
    for (auto& h : hits) h.store(0);
    ParallelFor(0, hits.size(), threads,
                [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ParallelForTest, EmptyAndSingleElementRangesRunInline) {
  int calls = 0;
  ParallelFor(5, 5, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(5, 6, 4, [&](std::size_t i) {
    ++calls;
    EXPECT_EQ(i, 5u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ReusesThreadsAcrossRegions) {
  // Warm the shared pool to the width this test asks for…
  ParallelFor(0, 256, 4, [](std::size_t) {});
  const std::uint64_t created_after_warmup =
      ThreadPool::Shared().threads_created();
  EXPECT_GE(created_after_warmup, 1u);

  // …then dispatch many more regions: a spawn-per-call implementation
  // would create 3-4 fresh threads per region; the pool must create none.
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    ParallelFor(0, 256, 4,
                [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 50u * 256u);
  EXPECT_EQ(ThreadPool::Shared().threads_created(), created_after_warmup);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  std::atomic<std::size_t> inner_total{0};
  ParallelFor(0, 8, 4, [&](std::size_t) {
    ParallelFor(0, 16, 4, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 8u * 16u);
}

TEST(ThreadPoolTest, ConcurrentTopLevelRegionsBothComplete) {
  std::atomic<std::size_t> a{0}, b{0};
  std::thread other([&] {
    ParallelFor(0, 500, 4, [&](std::size_t) { a.fetch_add(1); });
  });
  ParallelFor(0, 500, 4, [&](std::size_t) { b.fetch_add(1); });
  other.join();
  EXPECT_EQ(a.load(), 500u);
  EXPECT_EQ(b.load(), 500u);
}

TEST(ThreadPoolTest, WidthBeyondMaxThreadsStillCoversRange) {
  std::vector<std::atomic<int>> hits(4096);
  for (auto& h : hits) h.store(0);
  ParallelFor(0, hits.size(), 200, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "i=" << i;
  }
  EXPECT_LE(ThreadPool::Shared().worker_count(), ThreadPool::kMaxThreads);
}

/// Spins until `flag` is set (or a generous deadline passes, so a broken
/// pool fails the test instead of hanging it).
void AwaitFlag(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

/// A follow-up region on the shared pool covers its range exactly once.
void ExpectNextRegionRunsNormally() {
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  ParallelFor(0, hits.size(), 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "i=" << i;
  }
}

TEST(ThreadPoolTest, WorkerExceptionIsRethrownOnCallerAfterAllChunks) {
  constexpr std::size_t kChunks = 16;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> runs(kChunks);
  for (auto& r : runs) r.store(0);
  std::atomic<bool> worker_started{false};
  std::atomic<bool> thrown{false};
  std::atomic<std::size_t> thrown_chunk{kChunks};
  // The caller's chunks wait until a worker has claimed one, so the throw
  // is guaranteed to happen on a pool worker.
  EXPECT_THROW(
      ThreadPool::Shared().Run(
          kChunks,
          [&](std::size_t c) {
            if (std::this_thread::get_id() == caller) {
              AwaitFlag(worker_started);
            } else {
              worker_started.store(true);
              if (!thrown.exchange(true)) {
                thrown_chunk.store(c);
                throw std::bad_alloc();
              }
            }
            runs[c].fetch_add(1);
          }),
      std::bad_alloc);
  ASSERT_LT(thrown_chunk.load(), kChunks);
  for (std::size_t c = 0; c < kChunks; ++c) {
    EXPECT_EQ(runs[c].load(), c == thrown_chunk.load() ? 0 : 1) << "c=" << c;
  }
  ExpectNextRegionRunsNormally();
}

TEST(ThreadPoolTest, CallerExceptionWaitsForWorkersBeforeRethrowing) {
  // More chunks than the pool has workers, and worker chunks block until
  // the caller has started one: the caller is guaranteed a chunk, and the
  // workers are still running theirs when it throws. Run must not unwind
  // until they have all finished.
  constexpr std::size_t kChunks = ThreadPool::kMaxThreads + 2;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> runs(kChunks);
  for (auto& r : runs) r.store(0);
  std::atomic<bool> caller_started{false};
  std::atomic<bool> thrown{false};
  std::atomic<std::size_t> thrown_chunk{kChunks};
  EXPECT_THROW(
      ThreadPool::Shared().Run(
          kChunks,
          [&](std::size_t c) {
            if (std::this_thread::get_id() == caller) {
              caller_started.store(true);
              if (!thrown.exchange(true)) {
                thrown_chunk.store(c);
                throw std::bad_alloc();
              }
            } else {
              AwaitFlag(caller_started);
              std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
            runs[c].fetch_add(1);
          }),
      std::bad_alloc);
  ASSERT_LT(thrown_chunk.load(), kChunks);
  for (std::size_t c = 0; c < kChunks; ++c) {
    EXPECT_EQ(runs[c].load(), c == thrown_chunk.load() ? 0 : 1) << "c=" << c;
  }
  ExpectNextRegionRunsNormally();
}

TEST(ParallelForWithStatusTest, ReportsLowestFailingIndex) {
  const Status status =
      ParallelForWithStatus(0, 100, 4, [&](std::size_t i) -> Status {
        if (i == 3 || i == 77) {
          return Status::InvalidArgument("fail at " + std::to_string(i));
        }
        return Status::Ok();
      });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("fail at 3"), std::string::npos);
}

TEST(ParallelForWithStatusTest, AllOkReturnsOk) {
  EXPECT_TRUE(ParallelForWithStatus(0, 64, 4, [](std::size_t) {
                return Status::Ok();
              }).ok());
}

}  // namespace
}  // namespace valmod
