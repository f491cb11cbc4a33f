#include "mp/diagonal.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>
#include <vector>

#include "common/match_order.h"
#include "common/parallel.h"
#include "series/znorm.h"

namespace valmod::mp {

namespace {

using simd::kDiagonalLanes;

/// Tiles of the diagonals [exclusion, count), kDiagonalLanes each. Tile t
/// starts at diagonal exclusion + t * kDiagonalLanes, so tile t is longer
/// than tile t + 1.
std::size_t TilesOf(const DiagonalScan& scan) {
  const std::size_t count = scan.windows.count;
  return count > scan.exclusion
             ? (count - scan.exclusion + kDiagonalLanes - 1) / kDiagonalLanes
             : 0;
}

/// The stride of the scattered tile order: about tiles / phi (the golden
/// ratio), raised to the next value coprime with `tiles`, so that claim c
/// walking tile (c * stride) mod tiles visits every tile exactly once. In
/// index order (longest first) a row's matches improve almost
/// monotonically, so its gate stays open; scattered, good matches arrive
/// early from all over the matrix and the gates close.
std::size_t TileStride(std::size_t tiles) {
  std::size_t stride = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(tiles) *
                                  0.6180339887498949));
  while (std::gcd(stride, tiles) != 1) ++stride;
  return stride;
}

/// Cells a worker walks between two gate exchanges, per window: two full
/// tiles' worth.
constexpr std::size_t kExchangeCellsPerWindow = 2 * kDiagonalLanes;

/// Trades a worker's row gates with the shared ones: it publishes each gate
/// that is higher than the shared one and adopts each shared one that is
/// higher than its own. Every gate is valid for the merged result of its
/// row (simd::DiagonalTile::gate), so their maximum is too. The max is
/// racy: a store lost to another worker's only loosens that gate.
void ExchangeGates(std::vector<std::atomic<double>>& shared, double* gate) {
  for (std::size_t r = 0; r < shared.size(); ++r) {
    const double theirs = shared[r].load(std::memory_order_relaxed);
    if (gate[r] > theirs) {
      shared[r].store(gate[r], std::memory_order_relaxed);
    } else {
      gate[r] = theirs;
    }
  }
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

  // Row gates the workers share (none for one worker).
  std::vector<std::atomic<double>> shared_gate(workers > 1 ? count : 0);
  for (std::atomic<double>& g : shared_gate) {
    g.store(-std::numeric_limits<double>::infinity(),
            std::memory_order_relaxed);
  }

  // Direct dot products per worker (the first cell of every diagonal it
  // starts), noted once after the walk.
  std::vector<std::uint64_t> direct_dots(workers, 0);
  const std::size_t stride = TileStride(tiles);
  std::atomic<std::size_t> next_claim{0};
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
    std::size_t walked = 0;  // cells since the last exchange
    for (;;) {
      if (expired.load(std::memory_order_relaxed)) return;
      const std::size_t claim =
          next_claim.fetch_add(1, std::memory_order_relaxed);
      if (claim >= tiles) return;
      if (deadline.Expired()) {
        expired.store(true, std::memory_order_relaxed);
        return;
      }
      // claim < tiles and stride <= tiles: the product cannot wrap in 128
      // bits.
      const auto tile = static_cast<std::size_t>(
          static_cast<unsigned __int128>(claim) * stride % tiles);
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
      walked += lanes * (count - first);
      if (!shared_gate.empty() && walked >= kExchangeCellsPerWindow * count) {
        ExchangeGates(shared_gate, gate.data());
        walked = 0;
      }
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
