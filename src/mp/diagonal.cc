#include "mp/diagonal.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "common/match_order.h"
#include "common/parallel.h"
#include "series/znorm.h"

namespace valmod::mp {

namespace {

using simd::kDiagonalLanes;

/// Diagonals [first, end) of one orientation of the pair matrix, as the
/// tile kernel walks them: cells (i, i + d) with d >= 0, from row 0.
struct Band {
  const simd::WindowArrays* rows;
  const simd::WindowArrays* cols;
  std::size_t first;
  std::size_t end;
  bool profile_rows;  // the rows are the scan's side a
  bool profile_cols;  // the columns are the scan's side a

  std::size_t tiles() const {
    return end > first ? (end - first + kDiagonalLanes - 1) / kDiagonalLanes
                       : 0;
  }
};

std::vector<Band> BandsOf(const DiagonalScan& scan) {
  if (scan.self_join) {
    return {{&scan.a, &scan.a, scan.exclusion, scan.a.count, true, true}};
  }
  // AB-join: the diagonals j - i >= 0 walk a's windows as rows. The
  // negative ones walk the transposed matrix (b's windows as rows, a's as
  // columns), so that every tile starts at row 0; the products and the
  // distance formula are symmetric in their two windows, so the transposed
  // cell computes the same bits.
  return {{&scan.a, &scan.b, 0, scan.b.count, true, false},
          {&scan.b, &scan.a, 1, scan.a.count, false, true}};
}

std::size_t TotalTiles(const std::vector<Band>& bands) {
  std::size_t tiles = 0;
  for (const Band& band : bands) tiles += band.tiles();
  return tiles;
}

}  // namespace

std::size_t DiagonalWorkers(const DiagonalScan& scan, int num_threads) {
  const std::size_t requested =
      num_threads > 1 ? static_cast<std::size_t>(num_threads) : 1;
  const std::size_t tiles = TotalTiles(BandsOf(scan));
  return std::max<std::size_t>(
      1, std::min({requested, ThreadPool::kMaxThreads, tiles}));
}

bool WalkDiagonals(const DiagonalScan& scan, std::size_t workers,
                   const Deadline& deadline,
                   std::span<const simd::OfferSink> sinks, double* distances,
                   std::int64_t* indices) {
  const std::vector<Band> bands = BandsOf(scan);
  const std::size_t tiles = TotalTiles(bands);
  const std::size_t count = scan.a.count;
  const simd::Kernels& kernels = simd::ActiveKernels();

  // Worker 0 updates the outputs in place; the others keep local minima,
  // merged after the walk.
  std::vector<std::vector<double>> local_dist(
      workers - 1,
      std::vector<double>(count, std::numeric_limits<double>::infinity()));
  std::vector<std::vector<std::int64_t>> local_idx(
      workers - 1, std::vector<std::int64_t>(count, -1));

  std::atomic<std::size_t> next_tile{0};
  std::atomic<bool> expired{false};
  ParallelFor(0, workers, static_cast<int>(workers), [&](std::size_t w) {
    double* dist = w == 0 ? distances : local_dist[w - 1].data();
    std::int64_t* idx = w == 0 ? indices : local_idx[w - 1].data();
    for (;;) {
      if (expired.load(std::memory_order_relaxed)) return;
      std::size_t tile = next_tile.fetch_add(1, std::memory_order_relaxed);
      if (tile >= tiles) return;
      if (deadline.Expired()) {
        expired.store(true, std::memory_order_relaxed);
        return;
      }
      const Band* band = bands.data();
      while (tile >= band->tiles()) tile -= (band++)->tiles();

      const std::size_t first = band->first + tile * kDiagonalLanes;
      const std::size_t lanes = std::min(kDiagonalLanes, band->end - first);
      double dots[kDiagonalLanes];
      for (std::size_t k = 0; k < lanes; ++k) {
        dots[k] = series::DotProduct(band->rows->values,
                                     band->cols->values + first + k,
                                     scan.length);
      }
      const simd::DiagonalTile walk{
          *band->rows,
          *band->cols,
          scan.length,
          first,
          lanes,
          dots,
          band->profile_rows ? dist : nullptr,
          band->profile_rows ? idx : nullptr,
          band->profile_cols ? dist : nullptr,
          band->profile_cols ? idx : nullptr,
          sinks.empty() ? nullptr : &sinks[w],
      };
      kernels.diagonal_tile(walk);
    }
  });
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
