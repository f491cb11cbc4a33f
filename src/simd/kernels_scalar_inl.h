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

/// One fused radix-2^2 DIT butterfly at inner index k of the inverse
/// transform (see fft/plan.cc), with the conjugate twiddles: the imaginary
/// parts are negated, which is exact.
inline void FusedDitButterfly(double* pa, double* pb, double* pc, double* pd,
                              std::size_t k, const double* tw, std::size_t s1,
                              std::size_t s2, std::size_t quarter) {
  const double w1r = tw[2 * k * s1];
  const double w1i = -tw[2 * k * s1 + 1];
  const double w2r = tw[2 * k * s2];
  const double w2i = -tw[2 * k * s2 + 1];
  const double w3r = tw[2 * (k * s2 + quarter)];
  const double w3i = -tw[2 * (k * s2 + quarter) + 1];

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

/// One fused radix-2^2 DIF butterfly at inner index k of the forward
/// transform (twiddles applied after the butterfly).
inline void FusedDifButterfly(double* pa, double* pb, double* pc, double* pd,
                              std::size_t k, const double* tw, std::size_t s1,
                              std::size_t s2, std::size_t quarter) {
  const double w1r = tw[2 * k * s1];
  const double w1i = tw[2 * k * s1 + 1];
  const double w2r = tw[2 * k * s2];
  const double w2i = tw[2 * k * s2 + 1];
  const double w3r = tw[2 * (k * s2 + quarter)];
  const double w3i = tw[2 * (k * s2 + quarter) + 1];

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

/// The correlation of the cell (i, j) of a profile scan, both windows
/// non-constant, from its dot product: series::CorrelationFromDot,
/// operation for operation.
inline double CellRho(const WindowArrays& w, std::size_t length,
                      std::size_t i, std::size_t j, double qt) {
  const double l = static_cast<double>(length);
  const double cov = qt / l - w.means[i] * w.means[j];
  return std::clamp(cov / (w.stds[i] * w.stds[j]), -1.0, 1.0);
}

/// series::DistanceFromCorrelation, operation for operation. Non-increasing
/// in rho: every step rounds monotonically.
inline double CellDistance(double rho, std::size_t length) {
  const double sq = 2.0 * static_cast<double>(length) * (1.0 - rho);
  return sq > 0.0 ? std::sqrt(sq) : 0.0;
}

/// Distance and correlation of the cell (i, j) of a profile scan from its
/// dot product, with the constant-window conventions of
/// series::PairDistanceFromDot (a pair with a constant window has
/// correlation 0, so its base LB is sqrt(l)). Shared by the diagonal tile
/// and the row re-seed.
struct CellValue {
  double distance;
  double rho;
};

inline CellValue CellValueAt(const WindowArrays& w, std::size_t length,
                             std::size_t i, std::size_t j, double qt) {
  const bool const_i = w.is_const[i] != 0;
  const bool const_j = w.is_const[j] != 0;
  if (const_i || const_j) {
    return {const_i && const_j ? 0.0
                               : std::sqrt(static_cast<double>(length)),
            0.0};
  }
  const double rho = CellRho(w, length, i, j, qt);
  return {CellDistance(rho, length), rho};
}

/// core::BaseLowerBound, operation for operation. Non-increasing in rho:
/// sqrt(l) up to rho = 0, then every step rounds monotonically, and
/// l * (1 - rho^2) never rounds above l.
inline double CellBaseLb(double rho, std::size_t length) {
  const double l = static_cast<double>(length);
  if (rho <= 0.0) return std::sqrt(l);
  const double residual = l * (1.0 - rho * rho);
  return residual > 0.0 ? std::sqrt(residual) : 0.0;
}

/// A gate for `value`, non-increasing in rho over [-1, 1]: a t with
/// value(rho) > limit for every rho <= t, so a cell whose correlation is
/// below t cannot pass `value(rho) <= limit`. The search starts just below
/// the closed-form estimate `guess` of the smallest passing rho and moves
/// down, by steps growing 256-fold, until the exact scalar formula rejects
/// t itself; -inf (which every cell passes) once t would reach -1. A gate
/// is therefore below the smallest passing rho, and from a close estimate
/// at most about 2^-44 below it: the rare cells in between pass the compare
/// and are rejected by the exact tests behind it.
template <typename Value>
inline double LowestPassing(const Value& value, double limit, double guess) {
  for (double step = 0x1p-44; step <= 1.0; step *= 256.0) {
    const double t = guess - step;
    if (!(t > -1.0)) break;
    if (!(value(t) <= limit)) return t;
  }
  return -std::numeric_limits<double>::infinity();
}

/// A gate on the cell distance: no correlation below it has distance <=
/// `dist`. Every cell's distance is below 2 sqrt(l) or just above it.
inline double DistanceGate(double dist, std::size_t length) {
  const double l = static_cast<double>(length);
  if (!(dist >= 0.0)) return std::numeric_limits<double>::infinity();
  if (dist * dist >= 4.0 * l) return -std::numeric_limits<double>::infinity();
  return LowestPassing(
      [length](double rho) { return CellDistance(rho, length); }, dist,
      1.0 - dist * dist / (2.0 * l));
}

/// A gate on the base LB: no correlation below it has base LB <= `admit`.
/// Every base LB is at most sqrt(l).
inline double AdmitGate(double admit, std::size_t length) {
  const double l = static_cast<double>(length);
  if (!(admit >= 0.0)) return std::numeric_limits<double>::infinity();
  if (admit * admit >= l) return -std::numeric_limits<double>::infinity();
  return LowestPassing(
      [length](double rho) { return CellBaseLb(rho, length); }, admit,
      std::sqrt(1.0 - admit * admit / l));
}

/// simd::DiagonalGate. An open row (admit +inf) and a row with no minimum
/// yet (dist +inf) pass every cell.
inline double RowGate(double dist, double admit, std::size_t length) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (dist == kInf || admit == kInf) return -kInf;
  return std::min(DistanceGate(dist, length), AdmitGate(admit, length));
}

/// Raises row r's gate to the one its minimum and admission gate give. The
/// gate it holds may be higher, adopted from another worker
/// (DiagonalTile::gate), and stays valid, so the refresh keeps the larger.
inline void RefreshGate(const DiagonalTile& t, std::size_t r) {
  t.gate[r] = std::max(
      t.gate[r], RowGate(t.dist[r],
                         t.sink != nullptr
                             ? t.sink->admit[r]
                             : -std::numeric_limits<double>::infinity(),
                         t.length));
}

/// Applies one evaluated cell: the minimum of i, then that of j, under
/// MatchPrecedes, then the admission gate of both rows. A row whose minimum
/// distance or admission gate changed gets its gate raised; both only fall
/// during a walk, so a gate not yet raised is merely looser.
inline void ApplyDiagonalCell(const DiagonalTile& t, std::size_t i,
                              std::size_t j, double qt, double distance,
                              double base_lb) {
  const auto match_i = static_cast<std::int64_t>(i);
  const auto match_j = static_cast<std::int64_t>(j);
  bool changed_i = false;
  bool changed_j = false;
  if (MatchPrecedes(distance, match_j, t.dist[i], t.idx[i], i)) {
    changed_i = distance != t.dist[i];
    t.dist[i] = distance;
    t.idx[i] = match_j;
  }
  if (MatchPrecedes(distance, match_i, t.dist[j], t.idx[j], j)) {
    changed_j = distance != t.dist[j];
    t.dist[j] = distance;
    t.idx[j] = match_i;
  }
  if (t.sink != nullptr) {
    const OfferSink& sink = *t.sink;
    const double admit_i = sink.admit[i];
    if (base_lb <= admit_i) {
      sink.offer(sink.context, i, match_j, qt, base_lb);
      changed_i |= sink.admit[i] != admit_i;
    }
    const double admit_j = sink.admit[j];
    if (base_lb <= admit_j) {
      sink.offer(sink.context, j, match_i, qt, base_lb);
      changed_j |= sink.admit[j] != admit_j;
    }
  }
  if (changed_i) RefreshGate(t, i);
  if (changed_j) RefreshGate(t, j);
}

/// Evaluates and applies the cell (i, j). A cell of two non-constant
/// windows whose correlation is below the gates of both rows changes
/// nothing and stops at the compare; a NaN correlation always passes.
inline void DiagonalCell(const DiagonalTile& t, std::size_t i, std::size_t j,
                         double qt) {
  const WindowArrays& w = t.windows;
  CellValue v;
  if (w.is_const[i] != 0 || w.is_const[j] != 0) {
    v = CellValueAt(w, t.length, i, j, qt);
  } else {
    v.rho = CellRho(w, t.length, i, j, qt);
    if (v.rho < t.gate[i] && v.rho < t.gate[j]) return;
    v.distance = CellDistance(v.rho, t.length);
  }
  const double base_lb =
      t.sink != nullptr ? CellBaseLb(v.rho, t.length) : 0.0;
  ApplyDiagonalCell(t, i, j, qt, v.distance, base_lb);
}

/// Rows lane k visits: window i + first_diagonal + k exists. Decreasing
/// in k.
inline std::size_t DiagonalLaneRows(const DiagonalTile& t, std::size_t k) {
  return t.windows.count - (t.first_diagonal + k);
}

/// The dot-product recurrence from cell (i-1, j-1) to (i, j), i >= 1.
inline double DiagonalStep(const DiagonalTile& t, std::size_t i,
                           std::size_t j, double qt) {
  const std::size_t tail = t.length - 1;
  const double* v = t.windows.values;
  return qt + (v[i + tail] * v[j + tail] - v[i - 1] * v[j - 1]);
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
        CellValueAt(r.windows, r.length, r.row, j, r.dots[j]);
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
