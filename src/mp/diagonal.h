#ifndef VALMOD_MP_DIAGONAL_H_
#define VALMOD_MP_DIAGONAL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "series/data_series.h"
#include "simd/dispatch.h"

namespace valmod::mp {

/// The one walker behind every O(n^2) profile scan: STOMP and VALMOD's
/// seeding scan, both self-joins of one series.
///
/// It visits the cells (i, j), j - i >= exclusion, of the matrix of window
/// pairs diagonal by diagonal (d = j - i fixed), carrying each diagonal's
/// dot product by the recurrence
/// QT(i, j) = QT(i-1, j-1) + x[i+l-1] x[j+l-1] - x[i-1] x[j-1] from a
/// direct dot product at its first cell; each cell updates the minima of
/// both windows. Adjacent diagonals are grouped into tiles of
/// simd::kDiagonalLanes walked in lockstep, one SIMD lane per diagonal, by
/// the dispatched `diagonal_tile` kernel; each lane keeps the scalar
/// recurrence order, so every distance is bit-identical to a
/// one-diagonal-at-a-time scalar walk on every target.
///
/// The workers of the thread pool claim tiles from a shared counter in a
/// scattered order: claim c walks tile (c * stride) mod tiles, with a
/// golden-ratio stride coprime with the tile count, so each row meets good
/// matches early from all over the matrix and its gate closes early. Each
/// worker keeps its own minima, row gates (simd::DiagonalTile::gate, count
/// doubles per worker) and seeding sink, and the minima are merged at the
/// end. With more than one worker, each trades its gates with a shared
/// per-row array every 2 * kDiagonalLanes cells per window it walks, so a
/// gate one worker closed closes for all. Because every pick uses
/// MatchPrecedes (common/match_order.h) and every gate is valid for the
/// merged result, the result does not depend on which worker walked which
/// tile, on when gates were traded, nor on the worker count.
struct DiagonalScan {
  /// The windows of the series; the scan reports the minimum of each.
  simd::WindowArrays windows;
  std::size_t length = 0;
  /// Diagonals below it are trivial matches (>= 1: the self-match).
  std::size_t exclusion = 1;
};

/// Workers a scan runs on: min(num_threads, ThreadPool::kMaxThreads, tiles),
/// at least 1. Per-worker state (the minima here, a caller's seeding sinks)
/// is sized by this, never by the requested thread count.
std::size_t DiagonalWorkers(const DiagonalScan& scan, int num_threads);

/// Runs `scan` on `workers` workers (from DiagonalWorkers). `distances` /
/// `indices` hold windows.count entries, pre-filled (+inf / -1 for a fresh
/// profile), and receive the minima of the windows under MatchPrecedes.
/// `sinks` is empty, or holds one partial-profile sink per worker (worker w
/// offers to sinks[w]). Returns false when the deadline fired before every
/// tile was walked; the outputs are then incomplete.
bool WalkDiagonals(const DiagonalScan& scan, std::size_t workers,
                   const Deadline& deadline,
                   std::span<const simd::OfferSink> sinks, double* distances,
                   std::int64_t* indices);

/// The per-window statistics of a series at one length that a scan reads.
struct WindowStats {
  std::vector<double> means;  // centered window means
  std::vector<double> stds;
  std::vector<char> is_const;  // std <= the series' constant threshold

  /// Fills the statistics of `series` at `length`, reusing the buffers (a
  /// caller stepping through lengths allocates once).
  Status Compute(const series::DataSeries& series, std::size_t length);

  /// The arrays of `series` (which must be the series these stats were
  /// computed from) as the windows of a scan.
  simd::WindowArrays Arrays(const series::DataSeries& series) const;
};

}  // namespace valmod::mp

#endif  // VALMOD_MP_DIAGONAL_H_
