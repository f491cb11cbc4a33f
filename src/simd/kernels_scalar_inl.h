#ifndef VALMOD_SIMD_KERNELS_SCALAR_INL_H_
#define VALMOD_SIMD_KERNELS_SCALAR_INL_H_

// Per-element scalar kernel bodies, shared by the scalar kernel table and by
// every vector translation unit (which uses them for remainder lanes the
// vector width doesn't cover). Keeping the remainder code literally the
// same inline functions as the scalar oracle is what makes the bit-identity
// guarantee hold at every size, not just multiples of the vector width.
//
// All kernels_*.cc are compiled with -ffp-contract=off, so these bodies
// never turn into FMAs even on ISAs that have them.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/match_order.h"
#include "simd/dispatch.h"

namespace valmod::simd::scalar_kernel {

/// One span-2 butterfly over the 4 doubles at d + i.
inline void Radix2Butterfly(double* d, std::size_t i) {
  const double ar = d[i], ai = d[i + 1];
  const double br = d[i + 2], bi = d[i + 3];
  d[i] = ar + br;
  d[i + 1] = ai + bi;
  d[i + 2] = ar - br;
  d[i + 3] = ai - bi;
}

/// One fused radix-2^2 DIT butterfly at inner index k (see fft/plan.cc for
/// the derivation; this is that loop body, moved verbatim).
inline void FusedDitButterfly(double* pa, double* pb, double* pc, double* pd,
                              std::size_t k, const double* tw, std::size_t s1,
                              std::size_t s2, std::size_t quarter,
                              double sign) {
  const double w1r = tw[2 * k * s1];
  const double w1i = sign * tw[2 * k * s1 + 1];
  const double w2r = tw[2 * k * s2];
  const double w2i = sign * tw[2 * k * s2 + 1];
  const double w3r = tw[2 * (k * s2 + quarter)];
  const double w3i = sign * tw[2 * (k * s2 + quarter) + 1];

  const double br = pb[2 * k], bi = pb[2 * k + 1];
  const double t1r = w1r * br - w1i * bi;
  const double t1i = w1r * bi + w1i * br;
  const double ar = pa[2 * k], ai = pa[2 * k + 1];
  const double a0r = ar + t1r, a0i = ai + t1i;
  const double b0r = ar - t1r, b0i = ai - t1i;

  const double dr = pd[2 * k], di = pd[2 * k + 1];
  const double t2r = w1r * dr - w1i * di;
  const double t2i = w1r * di + w1i * dr;
  const double cr = pc[2 * k], ci = pc[2 * k + 1];
  const double c0r = cr + t2r, c0i = ci + t2i;
  const double d0r = cr - t2r, d0i = ci - t2i;

  const double t3r = w2r * c0r - w2i * c0i;
  const double t3i = w2r * c0i + w2i * c0r;
  pa[2 * k] = a0r + t3r;
  pa[2 * k + 1] = a0i + t3i;
  pc[2 * k] = a0r - t3r;
  pc[2 * k + 1] = a0i - t3i;

  const double t4r = w3r * d0r - w3i * d0i;
  const double t4i = w3r * d0i + w3i * d0r;
  pb[2 * k] = b0r + t4r;
  pb[2 * k + 1] = b0i + t4i;
  pd[2 * k] = b0r - t4r;
  pd[2 * k + 1] = b0i - t4i;
}

/// One fused radix-2^2 DIF butterfly at inner index k (twiddles applied
/// after the butterfly).
inline void FusedDifButterfly(double* pa, double* pb, double* pc, double* pd,
                              std::size_t k, const double* tw, std::size_t s1,
                              std::size_t s2, std::size_t quarter,
                              double sign) {
  const double w1r = tw[2 * k * s1];
  const double w1i = sign * tw[2 * k * s1 + 1];
  const double w2r = tw[2 * k * s2];
  const double w2i = sign * tw[2 * k * s2 + 1];
  const double w3r = tw[2 * (k * s2 + quarter)];
  const double w3i = sign * tw[2 * (k * s2 + quarter) + 1];

  const double ar = pa[2 * k], ai = pa[2 * k + 1];
  const double cr = pc[2 * k], ci = pc[2 * k + 1];
  const double a1r = ar + cr, a1i = ai + ci;
  const double cdr = ar - cr, cdi = ai - ci;
  const double c1r = w2r * cdr - w2i * cdi;
  const double c1i = w2r * cdi + w2i * cdr;

  const double br = pb[2 * k], bi = pb[2 * k + 1];
  const double dr = pd[2 * k], di = pd[2 * k + 1];
  const double b1r = br + dr, b1i = bi + di;
  const double ddr = br - dr, ddi = bi - di;
  const double d1r = w3r * ddr - w3i * ddi;
  const double d1i = w3r * ddi + w3i * ddr;

  pa[2 * k] = a1r + b1r;
  pa[2 * k + 1] = a1i + b1i;
  const double abr = a1r - b1r, abi = a1i - b1i;
  pb[2 * k] = w1r * abr - w1i * abi;
  pb[2 * k + 1] = w1r * abi + w1i * abr;

  pc[2 * k] = c1r + d1r;
  pc[2 * k + 1] = c1i + d1i;
  const double cdr2 = c1r - d1r, cdi2 = c1i - d1i;
  pd[2 * k] = w1r * cdr2 - w1i * cdi2;
  pd[2 * k + 1] = w1r * cdi2 + w1i * cdr2;
}

/// out[k] = a[k] * b[k] for one complex bin (the libstdc++ finite-math
/// std::complex<double> product, spelled out on doubles).
inline void ComplexMultiplyBin(const double* a, const double* b, double* out,
                               std::size_t k) {
  const double ar = a[2 * k], ai = a[2 * k + 1];
  const double br = b[2 * k], bi = b[2 * k + 1];
  out[2 * k] = ar * br - ai * bi;
  out[2 * k + 1] = ar * bi + ai * br;
}

/// One window of the moving mean/std sweep (stats::MovingStats::Mean /
/// Variance bodies for length >= 2, moved verbatim).
inline void WindowStatsAt(const double* prefix, const double* prefix_sq,
                          std::size_t i, std::size_t length, double dlen,
                          double inv_len, double global_mean, double* means,
                          double* std_devs) {
  const double diff = prefix[i + length] - prefix[i];
  means[i] = diff / dlen + global_mean;
  const double cm = diff * inv_len;
  const double mean_sq = (prefix_sq[i + length] - prefix_sq[i]) * inv_len;
  const double var = mean_sq - cm * cm;
  std_devs[i] = std::sqrt(var > 0.0 ? var : 0.0);
}

/// Distance and correlation of the cell (i, j) of a profile scan from its
/// dot product: the operations, in order, of series::CorrelationFromDot and
/// series::DistanceFromCorrelation, with the constant-window conventions of
/// series::PairDistanceFromDot (a pair with a constant window has
/// correlation 0, so its base LB is sqrt(l)). Shared by the diagonal tile
/// and the row re-seed.
struct CellValue {
  double distance;
  double rho;
};

inline CellValue CellValueAt(const WindowArrays& rows,
                             const WindowArrays& cols, std::size_t length,
                             std::size_t i, std::size_t j, double qt) {
  const double l = static_cast<double>(length);
  const bool const_i = rows.is_const[i] != 0;
  const bool const_j = cols.is_const[j] != 0;
  if (const_i || const_j) {
    return {const_i && const_j ? 0.0 : std::sqrt(l), 0.0};
  }
  const double cov = qt / l - rows.means[i] * cols.means[j];
  const double rho =
      std::clamp(cov / (rows.stds[i] * cols.stds[j]), -1.0, 1.0);
  const double sq = 2.0 * l * (1.0 - rho);
  return {sq > 0.0 ? std::sqrt(sq) : 0.0, rho};
}

/// core::BaseLowerBound, operation for operation.
inline double CellBaseLb(double rho, std::size_t length) {
  const double l = static_cast<double>(length);
  if (rho <= 0.0) return std::sqrt(l);
  const double residual = l * (1.0 - rho * rho);
  return residual > 0.0 ? std::sqrt(residual) : 0.0;
}

/// Applies one evaluated cell: the row minimum of i and the column minimum
/// of j under MatchPrecedes, then the admission gate of both rows.
inline void ApplyDiagonalCell(const DiagonalTile& t, std::size_t i,
                              std::size_t j, double qt, double distance,
                              double base_lb) {
  const auto match_i = static_cast<std::int64_t>(i);
  const auto match_j = static_cast<std::int64_t>(j);
  if (t.row_dist != nullptr &&
      MatchPrecedes(distance, match_j, t.row_dist[i], t.row_idx[i], i)) {
    t.row_dist[i] = distance;
    t.row_idx[i] = match_j;
  }
  if (t.col_dist != nullptr &&
      MatchPrecedes(distance, match_i, t.col_dist[j], t.col_idx[j], j)) {
    t.col_dist[j] = distance;
    t.col_idx[j] = match_i;
  }
  if (t.sink != nullptr) {
    const OfferSink& sink = *t.sink;
    if (base_lb <= sink.admit[i]) {
      sink.offer(sink.context, i, match_j, qt, base_lb);
    }
    if (base_lb <= sink.admit[j]) {
      sink.offer(sink.context, j, match_i, qt, base_lb);
    }
  }
}

/// Evaluates and applies the cell (i, j).
inline void DiagonalCell(const DiagonalTile& t, std::size_t i, std::size_t j,
                         double qt) {
  const CellValue v = CellValueAt(t.rows, t.cols, t.length, i, j, qt);
  const double base_lb =
      t.sink != nullptr ? CellBaseLb(v.rho, t.length) : 0.0;
  ApplyDiagonalCell(t, i, j, qt, v.distance, base_lb);
}

/// Rows lane k visits: both windows of (i, i + first_diagonal + k) exist.
/// Non-increasing in k.
inline std::size_t DiagonalLaneRows(const DiagonalTile& t, std::size_t k) {
  const std::size_t diagonal = t.first_diagonal + k;
  const std::size_t col_rows =
      t.cols.count > diagonal ? t.cols.count - diagonal : 0;
  return std::min(t.rows.count, col_rows);
}

/// The dot-product recurrence from cell (i-1, j-1) to (i, j), i >= 1.
inline double DiagonalStep(const DiagonalTile& t, std::size_t i,
                           std::size_t j, double qt) {
  const std::size_t tail = t.length - 1;
  return qt + (t.rows.values[i + tail] * t.cols.values[j + tail] -
               t.rows.values[i - 1] * t.cols.values[j - 1]);
}

/// The tile in its row-major order from `first_row` on, one lane after the
/// other in each row. `qt[k]` holds lane k's dot product of row
/// first_row - 1 (or its initial dot when first_row is 0) and is advanced
/// in place. Vector targets finish their ragged tail rows here.
inline void DiagonalTileRows(const DiagonalTile& t, std::size_t first_row,
                             double* qt) {
  std::size_t lane_rows[kDiagonalLanes];
  for (std::size_t k = 0; k < t.lanes; ++k) {
    lane_rows[k] = DiagonalLaneRows(t, k);
  }
  for (std::size_t i = first_row; i < lane_rows[0]; ++i) {
    for (std::size_t k = 0; k < t.lanes && i < lane_rows[k]; ++k) {
      const std::size_t j = i + t.first_diagonal + k;
      if (i > 0) qt[k] = DiagonalStep(t, i, j, qt[k]);
      DiagonalCell(t, i, j, qt[k]);
    }
  }
}

inline void DiagonalTileWalk(const DiagonalTile& t) {
  double qt[kDiagonalLanes];
  std::copy(t.initial_dots, t.initial_dots + t.lanes, qt);
  DiagonalTileRows(t, 0, qt);
}

/// The first pass over one evaluated cell (row, j) of a re-seeded row: the
/// row minimum under MatchPrecedes, and the cell's base LB kept for the
/// offer pass.
inline void ApplyRowCell(const RowReseed& r, std::size_t j, double distance,
                         double base_lb) {
  const auto match = static_cast<std::int64_t>(j);
  if (MatchPrecedes(distance, match, *r.min_dist, *r.min_idx, r.row)) {
    *r.min_dist = distance;
    *r.min_idx = match;
  }
  r.scratch->base_lbs[j] = base_lb;
}

/// Evaluates and applies the cells [begin, end) of a re-seeded row.
inline void RowCells(const RowReseed& r, std::size_t begin, std::size_t end) {
  for (std::size_t j = begin; j < end; ++j) {
    const CellValue v =
        CellValueAt(r.windows, r.windows, r.length, r.row, j, r.dots[j]);
    ApplyRowCell(r, j, v.distance, CellBaseLb(v.rho, r.length));
  }
}

/// The two runs of cells outside a row's exclusion zone: [0, left_end) and
/// [right_begin, count).
struct RowRuns {
  std::size_t left_end;
  std::size_t right_begin;
};

inline RowRuns RowRunsOf(const RowReseed& r) {
  const std::size_t count = r.windows.count;
  const std::size_t left_end =
      r.row >= r.exclusion ? r.row - r.exclusion + 1 : 0;
  return {std::min(left_end, count),
          std::min(r.row + r.exclusion, count)};
}

/// Cells per block of the offer pass.
inline constexpr std::size_t kOfferBlock = 64;

/// The smallest base LB among the cells [lo, hi) of a block; NaN cells (the
/// exclusion zone) are skipped, and a block of them has +inf.
inline double LowestBaseLb(const double* base_lbs, std::size_t lo,
                           std::size_t hi) {
  double lowest = std::numeric_limits<double>::infinity();
  for (std::size_t j = lo; j < hi; ++j) {
    if (base_lbs[j] < lowest) lowest = base_lbs[j];
  }
  return lowest;
}

/// The offer pass, shared by every target: the row's candidates through its
/// gate, block by block in ascending order of the block's smallest base LB
/// (`lowest(lo, hi)`, ties by block). The first pass left NaN in the
/// exclusion zone, which no gate admits. The stored set does not depend on
/// the offer order; offering the best blocks first closes the gate after
/// few offers, and the pass stops at the first block whose smallest base
/// LB fails the gate. Measured on the `valmod_sweep` shape (random_walk
/// n=4096, l 896-1152, p=10): 69 offers per row against 353 when cells are
/// offered in index order as the first pass reaches them, fewer in 99% of
/// the rows, and a median run of 385 ms against 444 ms.
template <typename Lowest>
inline void OfferRowCandidates(const RowReseed& r, Lowest lowest) {
  const std::size_t count = r.windows.count;
  const std::size_t blocks = (count + kOfferBlock - 1) / kOfferBlock;
  const double* base_lbs = r.scratch->base_lbs.data();
  std::vector<std::pair<double, std::size_t>>& order = r.scratch->blocks;
  order.resize(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = b * kOfferBlock;
    order[b] = {lowest(lo, std::min(lo + kOfferBlock, count)), b};
  }
  std::sort(order.begin(), order.end());
  const OfferSink& sink = *r.sink;
  const double& admit = sink.admit[r.row];
  for (const auto& [block_lowest, b] : order) {
    if (!(block_lowest <= admit)) break;
    const std::size_t lo = b * kOfferBlock;
    const std::size_t hi = std::min(lo + kOfferBlock, count);
    for (std::size_t j = lo; j < hi; ++j) {
      if (base_lbs[j] <= admit) {
        sink.offer(sink.context, r.row, static_cast<std::int64_t>(j),
                   r.dots[j], base_lbs[j]);
      }
    }
  }
}

/// Sizes the scratch for the row's cells.
inline void PrepareScratch(const RowReseed& r) {
  r.scratch->base_lbs.resize(r.windows.count);
}

/// Marks the exclusion zone [left_end, right_begin) for the offer pass.
inline void MarkExclusionZone(const RowReseed& r, const RowRuns& runs) {
  double* base_lbs = r.scratch->base_lbs.data();
  std::fill(base_lbs + runs.left_end, base_lbs + runs.right_begin,
            std::numeric_limits<double>::quiet_NaN());
}

inline void ReseedRowWalk(const RowReseed& r) {
  PrepareScratch(r);
  const RowRuns runs = RowRunsOf(r);
  RowCells(r, 0, runs.left_end);
  RowCells(r, runs.right_begin, r.windows.count);
  MarkExclusionZone(r, runs);
  OfferRowCandidates(r, [&](std::size_t lo, std::size_t hi) {
    return LowestBaseLb(r.scratch->base_lbs.data(), lo, hi);
  });
}

}  // namespace valmod::simd::scalar_kernel

#endif  // VALMOD_SIMD_KERNELS_SCALAR_INL_H_
