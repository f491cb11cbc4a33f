#include "mp/diagonal.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>

#include "common/match_order.h"
#include "common/parallel.h"
#include "series/znorm.h"

namespace valmod::mp {

namespace {

using simd::kDiagonalLanes;

/// Tiles of the diagonals [exclusion, count), kDiagonalLanes each. Tile t
/// starts at diagonal exclusion + t * kDiagonalLanes, so the longest come
/// first.
std::size_t TilesOf(const DiagonalScan& scan) {
  const std::size_t count = scan.windows.count;
  return count > scan.exclusion
             ? (count - scan.exclusion + kDiagonalLanes - 1) / kDiagonalLanes
             : 0;
}

}  // namespace

std::size_t DiagonalWorkers(const DiagonalScan& scan, int num_threads) {
  const std::size_t requested =
      num_threads > 1 ? static_cast<std::size_t>(num_threads) : 1;
  return std::max<std::size_t>(
      1, std::min({requested, ThreadPool::kMaxThreads, TilesOf(scan)}));
}

bool WalkDiagonals(const DiagonalScan& scan, std::size_t workers,
                   const Deadline& deadline,
                   std::span<const simd::OfferSink> sinks, double* distances,
                   std::int64_t* indices) {
  const simd::WindowArrays& windows = scan.windows;
  const std::size_t tiles = TilesOf(scan);
  const std::size_t count = windows.count;
  const simd::Kernels& kernels = simd::ActiveKernels();

  // Worker 0 updates the outputs in place; the others keep local minima,
  // merged after the walk.
  std::vector<std::vector<double>> local_dist(
      workers - 1,
      std::vector<double>(count, std::numeric_limits<double>::infinity()));
  std::vector<std::vector<std::int64_t>> local_idx(
      workers - 1, std::vector<std::int64_t>(count, -1));

  // Direct dot products per worker (the first cell of every diagonal it
  // starts), noted once after the walk.
  std::vector<std::uint64_t> direct_dots(workers, 0);
  std::atomic<std::size_t> next_tile{0};
  std::atomic<bool> expired{false};
  ParallelFor(0, workers, static_cast<int>(workers), [&](std::size_t w) {
    double* dist = w == 0 ? distances : local_dist[w - 1].data();
    std::int64_t* idx = w == 0 ? indices : local_idx[w - 1].data();
    const simd::OfferSink* sink = sinks.empty() ? nullptr : &sinks[w];
    // The worker's row gates, kept by its tiles from here on.
    std::vector<double> gate(count);
    for (std::size_t r = 0; r < count; ++r) {
      gate[r] = simd::DiagonalGate(
          dist[r],
          sink != nullptr ? sink->admit[r]
                          : -std::numeric_limits<double>::infinity(),
          scan.length);
    }
    for (;;) {
      if (expired.load(std::memory_order_relaxed)) return;
      const std::size_t tile =
          next_tile.fetch_add(1, std::memory_order_relaxed);
      if (tile >= tiles) return;
      if (deadline.Expired()) {
        expired.store(true, std::memory_order_relaxed);
        return;
      }
      const std::size_t first = scan.exclusion + tile * kDiagonalLanes;
      const std::size_t lanes = std::min(kDiagonalLanes, count - first);
      double dots[kDiagonalLanes];
      for (std::size_t k = 0; k < lanes; ++k) {
        dots[k] = series::DotProduct(windows.values,
                                     windows.values + first + k,
                                     scan.length);
      }
      direct_dots[w] += lanes;
      const simd::DiagonalTile walk{
          windows, scan.length, first, lanes, dots, dist, idx, sink,
          gate.data(),
      };
      kernels.diagonal_tile(walk);
    }
  });
  simd::NoteKernelCalls(simd::KernelKind::kDotProduct,
                        std::accumulate(direct_dots.begin(), direct_dots.end(),
                                        std::uint64_t{0}));
  if (expired.load()) return false;

  for (std::size_t w = 1; w < workers; ++w) {
    const std::vector<double>& dist = local_dist[w - 1];
    const std::vector<std::int64_t>& idx = local_idx[w - 1];
    for (std::size_t i = 0; i < count; ++i) {
      if (MatchPrecedes(dist[i], idx[i], distances[i], indices[i], i)) {
        distances[i] = dist[i];
        indices[i] = idx[i];
      }
    }
  }
  return true;
}

simd::WindowArrays WindowStats::Arrays(
    const series::DataSeries& series) const {
  return {series.centered().data(), means.data(), stds.data(),
          is_const.data(), means.size()};
}

Status WindowStats::Compute(const series::DataSeries& series,
                            std::size_t length) {
  VALMOD_RETURN_IF_ERROR(
      series.stats().CenteredWindowStats(length, &means, &stds));
  const double threshold = series.stats().constant_std_threshold();
  is_const.resize(stds.size());
  for (std::size_t i = 0; i < stds.size(); ++i) {
    is_const[i] = stds[i] <= threshold ? 1 : 0;
  }
  return Status::Ok();
}

}  // namespace valmod::mp
