// AVX2 kernel table. Compiled with -mavx2 -ffp-contract=off; only ever
// called after cpuid confirms AVX2. Everything here is designed for
// bit-identity with the scalar oracle in kernels_scalar_inl.h:
//
//   * no FMA intrinsics, and the TU compiles with -ffp-contract=off, so
//     every product and sum rounds exactly like the scalar code;
//   * complex products use vaddsubpd on plain products, which computes the
//     same a*c - b*d / a*d + b*c expressions lane-for-lane (the odd lane
//     sums the two cross products in the opposite order, which is exact by
//     commutativity of IEEE addition);
//   * the dot product keeps one 4-lane accumulator vector whose lane j is
//     exactly the scalar kernel's acc_j;
//   * the diagonal tile carries one diagonal per lane, so each lane runs the
//     scalar recurrence and distance formulas in their scalar order, and
//     the clamp/compare-select idioms below reproduce std::clamp and the
//     scalar `x > 0 ? sqrt(x) : 0` selects exactly, NaN included.

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

#include "simd/kernels.h"
#include "simd/kernels_scalar_inl.h"

namespace valmod::simd {
namespace {

/// Two (re, im) pairs gathered from tw + i0 and tw + i1.
inline __m256d LoadTwiddlePair(const double* tw, std::size_t i0,
                               std::size_t i1) {
  return _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(tw + i0)),
                              _mm_loadu_pd(tw + i1), 1);
}

/// Complex product of two packed complexes against duplicated twiddle
/// components: even lane wr*vr - wi*vi, odd lane wr*vi + wi*vr.
inline __m256d ComplexMulByDup(__m256d wr, __m256d wi, __m256d v) {
  const __m256d swapped = _mm256_permute_pd(v, 0x5);  // (im, re) per complex
  return _mm256_addsub_pd(_mm256_mul_pd(wr, v), _mm256_mul_pd(wi, swapped));
}

struct TwiddleDup {
  __m256d r;
  __m256d i;
};

/// Loads twiddles k and k+1 at stride `s` (plus `offset`) and splits into
/// duplicated real/imag vectors, with `sign` folded into the imaginary part
/// exactly like the scalar kernel's `sign * tw[...]`.
inline TwiddleDup LoadTwiddleDup(const double* tw, std::size_t k,
                                 std::size_t s, std::size_t offset,
                                 __m256d sign) {
  const __m256d w = LoadTwiddlePair(tw, 2 * (k * s + offset),
                                    2 * ((k + 1) * s + offset));
  return {_mm256_permute_pd(w, 0x0),
          _mm256_mul_pd(_mm256_permute_pd(w, 0xF), sign)};
}

void Radix2PassAvx2(double* d, std::size_t n) {
  const std::size_t total = 2 * n;
  std::size_t i = 0;
  for (; i + 8 <= total; i += 8) {
    const __m256d v0 = _mm256_loadu_pd(d + i);
    const __m256d v1 = _mm256_loadu_pd(d + i + 4);
    const __m256d a = _mm256_permute2f128_pd(v0, v1, 0x20);
    const __m256d b = _mm256_permute2f128_pd(v0, v1, 0x31);
    const __m256d s = _mm256_add_pd(a, b);
    const __m256d t = _mm256_sub_pd(a, b);
    _mm256_storeu_pd(d + i, _mm256_permute2f128_pd(s, t, 0x20));
    _mm256_storeu_pd(d + i + 4, _mm256_permute2f128_pd(s, t, 0x31));
  }
  for (; i < total; i += 4) scalar_kernel::Radix2Butterfly(d, i);
}

/// The 2-complex-wide fused DIT inner body at index k.
inline void FusedDitPair(double* pa, double* pb, double* pc, double* pd,
                         std::size_t k, const double* tw, std::size_t s1,
                         std::size_t s2, std::size_t quarter, __m256d sign) {
  const TwiddleDup w1 = LoadTwiddleDup(tw, k, s1, 0, sign);
  const TwiddleDup w2 = LoadTwiddleDup(tw, k, s2, 0, sign);
  const TwiddleDup w3 = LoadTwiddleDup(tw, k, s2, quarter, sign);

  const __m256d vb = _mm256_loadu_pd(pb + 2 * k);
  const __m256d t1 = ComplexMulByDup(w1.r, w1.i, vb);
  const __m256d va = _mm256_loadu_pd(pa + 2 * k);
  const __m256d a0 = _mm256_add_pd(va, t1);
  const __m256d b0 = _mm256_sub_pd(va, t1);

  const __m256d vd = _mm256_loadu_pd(pd + 2 * k);
  const __m256d t2 = ComplexMulByDup(w1.r, w1.i, vd);
  const __m256d vc = _mm256_loadu_pd(pc + 2 * k);
  const __m256d c0 = _mm256_add_pd(vc, t2);
  const __m256d d0 = _mm256_sub_pd(vc, t2);

  const __m256d t3 = ComplexMulByDup(w2.r, w2.i, c0);
  _mm256_storeu_pd(pa + 2 * k, _mm256_add_pd(a0, t3));
  _mm256_storeu_pd(pc + 2 * k, _mm256_sub_pd(a0, t3));

  const __m256d t4 = ComplexMulByDup(w3.r, w3.i, d0);
  _mm256_storeu_pd(pb + 2 * k, _mm256_add_pd(b0, t4));
  _mm256_storeu_pd(pd + 2 * k, _mm256_sub_pd(b0, t4));
}

/// The 2-complex-wide fused DIF inner body at index k.
inline void FusedDifPair(double* pa, double* pb, double* pc, double* pd,
                         std::size_t k, const double* tw, std::size_t s1,
                         std::size_t s2, std::size_t quarter, __m256d sign) {
  const TwiddleDup w1 = LoadTwiddleDup(tw, k, s1, 0, sign);
  const TwiddleDup w2 = LoadTwiddleDup(tw, k, s2, 0, sign);
  const TwiddleDup w3 = LoadTwiddleDup(tw, k, s2, quarter, sign);

  const __m256d va = _mm256_loadu_pd(pa + 2 * k);
  const __m256d vc = _mm256_loadu_pd(pc + 2 * k);
  const __m256d a1 = _mm256_add_pd(va, vc);
  const __m256d cd = _mm256_sub_pd(va, vc);
  const __m256d c1 = ComplexMulByDup(w2.r, w2.i, cd);

  const __m256d vb = _mm256_loadu_pd(pb + 2 * k);
  const __m256d vd = _mm256_loadu_pd(pd + 2 * k);
  const __m256d b1 = _mm256_add_pd(vb, vd);
  const __m256d dd = _mm256_sub_pd(vb, vd);
  const __m256d d1 = ComplexMulByDup(w3.r, w3.i, dd);

  _mm256_storeu_pd(pa + 2 * k, _mm256_add_pd(a1, b1));
  const __m256d ab = _mm256_sub_pd(a1, b1);
  _mm256_storeu_pd(pb + 2 * k, ComplexMulByDup(w1.r, w1.i, ab));

  _mm256_storeu_pd(pc + 2 * k, _mm256_add_pd(c1, d1));
  const __m256d cd2 = _mm256_sub_pd(c1, d1);
  _mm256_storeu_pd(pd + 2 * k, ComplexMulByDup(w1.r, w1.i, cd2));
}

void FusedRadix4DitAvx2(double* d, std::size_t n, std::size_t len,
                        const double* tw, double sign) {
  const std::size_t half = len / 2;
  const std::size_t s1 = n / len;
  const std::size_t s2 = s1 / 2;
  const std::size_t quarter = n / 4;
  const __m256d vsign = _mm256_set1_pd(sign);
  for (std::size_t start = 0; start < n; start += 2 * len) {
    double* pa = d + 2 * start;
    double* pb = pa + len;
    double* pc = pa + 2 * len;
    double* pd = pa + 3 * len;
    std::size_t k = 0;
    for (; k + 2 <= half; k += 2) {
      FusedDitPair(pa, pb, pc, pd, k, tw, s1, s2, quarter, vsign);
    }
    for (; k < half; ++k) {
      scalar_kernel::FusedDitButterfly(pa, pb, pc, pd, k, tw, s1, s2, quarter,
                                       sign);
    }
  }
}

void FusedRadix4DifAvx2(double* d, std::size_t n, std::size_t len,
                        const double* tw, double sign) {
  const std::size_t half = len / 2;
  const std::size_t s1 = n / len;
  const std::size_t s2 = s1 / 2;
  const std::size_t quarter = n / 4;
  const __m256d vsign = _mm256_set1_pd(sign);
  for (std::size_t start = 0; start < n; start += 2 * len) {
    double* pa = d + 2 * start;
    double* pb = pa + len;
    double* pc = pa + 2 * len;
    double* pd = pa + 3 * len;
    std::size_t k = 0;
    for (; k + 2 <= half; k += 2) {
      FusedDifPair(pa, pb, pc, pd, k, tw, s1, s2, quarter, vsign);
    }
    for (; k < half; ++k) {
      scalar_kernel::FusedDifButterfly(pa, pb, pc, pd, k, tw, s1, s2, quarter,
                                       sign);
    }
  }
}

void ComplexMultiplyAvx2(const double* a, const double* b, double* out,
                         std::size_t n) {
  std::size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    const __m256d va = _mm256_loadu_pd(a + 2 * k);
    const __m256d vb = _mm256_loadu_pd(b + 2 * k);
    const __m256d br = _mm256_permute_pd(vb, 0x0);
    const __m256d bi = _mm256_permute_pd(vb, 0xF);
    const __m256d swapped = _mm256_permute_pd(va, 0x5);
    _mm256_storeu_pd(out + 2 * k,
                     _mm256_addsub_pd(_mm256_mul_pd(va, br),
                                      _mm256_mul_pd(swapped, bi)));
  }
  for (; k < n; ++k) scalar_kernel::ComplexMultiplyBin(a, b, out, k);
}

double DotProductAvx2(const double* a, const double* b, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    acc = _mm256_add_pd(acc,
                        _mm256_mul_pd(_mm256_loadu_pd(a + t),
                                      _mm256_loadu_pd(b + t)));
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  double acc0 = lanes[0];
  for (; t < n; ++t) acc0 += a[t] * b[t];
  return (acc0 + lanes[1]) + (lanes[2] + lanes[3]);
}

void WindowStatsAvx2(const double* prefix, const double* prefix_sq,
                     std::size_t count, std::size_t length, double global_mean,
                     double* means, double* std_devs) {
  const double dlen = static_cast<double>(length);
  const double inv_len = 1.0 / dlen;
  const __m256d vlen = _mm256_set1_pd(dlen);
  const __m256d vinv = _mm256_set1_pd(inv_len);
  const __m256d vgm = _mm256_set1_pd(global_mean);
  const __m256d vzero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d diff = _mm256_sub_pd(_mm256_loadu_pd(prefix + i + length),
                                       _mm256_loadu_pd(prefix + i));
    _mm256_storeu_pd(means + i,
                     _mm256_add_pd(_mm256_div_pd(diff, vlen), vgm));
    const __m256d cm = _mm256_mul_pd(diff, vinv);
    const __m256d mean_sq =
        _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(prefix_sq + i + length),
                                    _mm256_loadu_pd(prefix_sq + i)),
                      vinv);
    const __m256d var = _mm256_sub_pd(mean_sq, _mm256_mul_pd(cm, cm));
    _mm256_storeu_pd(std_devs + i,
                     _mm256_sqrt_pd(_mm256_max_pd(var, vzero)));
  }
  for (; i < count; ++i) {
    scalar_kernel::WindowStatsAt(prefix, prefix_sq, i, length, dlen, inv_len,
                                 global_mean, means, std_devs);
  }
}

/// Broadcast constants of the cell math at one length.
struct CellConstants {
  explicit CellConstants(std::size_t length)
      : l(_mm256_set1_pd(static_cast<double>(length))),
        two_l(_mm256_set1_pd(2.0 * static_cast<double>(length))),
        sqrt_l(_mm256_set1_pd(std::sqrt(static_cast<double>(length)))),
        one(_mm256_set1_pd(1.0)),
        neg_one(_mm256_set1_pd(-1.0)),
        zero(_mm256_setzero_pd()) {}
  __m256d l, two_l, sqrt_l, one, neg_one, zero;
};

/// The correlations of four cells of one row window i against the windows
/// j..j+3, in scalar_kernel::CellValueAt's operation order.
inline __m256d CellRho(const CellConstants& c, __m256d qt, double mean_i,
                       const double* means_j, double std_i,
                       const double* stds_j) {
  const __m256d cov =
      _mm256_sub_pd(_mm256_div_pd(qt, c.l),
                    _mm256_mul_pd(_mm256_set1_pd(mean_i),
                                  _mm256_loadu_pd(means_j)));
  const __m256d ratio = _mm256_div_pd(
      cov, _mm256_mul_pd(_mm256_set1_pd(std_i), _mm256_loadu_pd(stds_j)));
  // std::clamp(ratio, -1, 1): maxpd/minpd return their second operand on
  // NaN, as std::clamp returns its argument.
  return _mm256_min_pd(c.one, _mm256_max_pd(c.neg_one, ratio));
}

/// scalar_kernel::CellValueAt's distance from the correlation.
inline __m256d CellDistance(const CellConstants& c, __m256d rho) {
  const __m256d sq = _mm256_mul_pd(c.two_l, _mm256_sub_pd(c.one, rho));
  return _mm256_and_pd(_mm256_cmp_pd(sq, c.zero, _CMP_GT_OQ),
                       _mm256_sqrt_pd(sq));
}

/// scalar_kernel::CellBaseLb of four correlations.
inline __m256d CellBaseLb(const CellConstants& c, __m256d rho) {
  const __m256d residual =
      _mm256_mul_pd(c.l, _mm256_sub_pd(c.one, _mm256_mul_pd(rho, rho)));
  const __m256d positive_lb =
      _mm256_and_pd(_mm256_cmp_pd(residual, c.zero, _CMP_GT_OQ),
                    _mm256_sqrt_pd(residual));
  return _mm256_blendv_pd(positive_lb, c.sqrt_l,
                          _mm256_cmp_pd(rho, c.zero, _CMP_LE_OQ));
}

/// The diagonal tile's full-width rows: all four lanes in one register,
/// with the distance (and, when seeding, the base LB) of every cell
/// computed in-lane. A row drops to the scalar cell body only when it holds
/// a constant window or some lane may change a minimum or pass a gate
/// (compared with <=, so MatchPrecedes settles exact ties); the ragged tail
/// rows run the scalar walk. Templated on what the tile updates so the
/// common no-hit row carries no dead work.
template <bool kRows, bool kCols, bool kSeed>
inline void DiagonalTileBody(const DiagonalTile& t, std::size_t full_rows,
                             double* qt_out) {
  const std::size_t tail = t.length - 1;
  const CellConstants c(t.length);
  const double* rv = t.rows.values;
  const double* cv = t.cols.values;
  __m256d qt = _mm256_loadu_pd(t.initial_dots);
  alignas(32) double qt_lanes[kDiagonalLanes];
  alignas(32) double d_lanes[kDiagonalLanes];
  alignas(32) double lb_lanes[kDiagonalLanes];

  for (std::size_t i = 0; i < full_rows; ++i) {
    const std::size_t j = i + t.first_diagonal;
    if (i > 0) {
      const __m256d enter = _mm256_mul_pd(_mm256_set1_pd(rv[i + tail]),
                                          _mm256_loadu_pd(cv + j + tail));
      const __m256d leave = _mm256_mul_pd(_mm256_set1_pd(rv[i - 1]),
                                          _mm256_loadu_pd(cv + j - 1));
      qt = _mm256_add_pd(qt, _mm256_sub_pd(enter, leave));
    }
    std::uint32_t col_const;
    std::memcpy(&col_const, t.cols.is_const + j, sizeof(col_const));
    if ((t.rows.is_const[i] | col_const) != 0) {
      _mm256_store_pd(qt_lanes, qt);
      for (std::size_t k = 0; k < kDiagonalLanes; ++k) {
        scalar_kernel::DiagonalCell(t, i, j + k, qt_lanes[k]);
      }
      continue;
    }

    const __m256d rho = CellRho(c, qt, t.rows.means[i], t.cols.means + j,
                                t.rows.stds[i], t.cols.stds + j);
    const __m256d d = CellDistance(c, rho);

    __m256d hit = c.zero;
    if constexpr (kRows) {
      hit = _mm256_cmp_pd(d, _mm256_set1_pd(t.row_dist[i]), _CMP_LE_OQ);
    }
    if constexpr (kCols) {
      hit = _mm256_or_pd(
          hit, _mm256_cmp_pd(d, _mm256_loadu_pd(t.col_dist + j), _CMP_LE_OQ));
    }
    __m256d lb = c.zero;
    if constexpr (kSeed) {
      lb = CellBaseLb(c, rho);
      const double* admit = t.sink->admit;
      hit = _mm256_or_pd(
          hit, _mm256_cmp_pd(lb, _mm256_set1_pd(admit[i]), _CMP_LE_OQ));
      hit = _mm256_or_pd(
          hit, _mm256_cmp_pd(lb, _mm256_loadu_pd(admit + j), _CMP_LE_OQ));
    }
    if (_mm256_movemask_pd(hit) == 0) continue;

    _mm256_store_pd(qt_lanes, qt);
    _mm256_store_pd(d_lanes, d);
    _mm256_store_pd(lb_lanes, lb);
    for (std::size_t k = 0; k < kDiagonalLanes; ++k) {
      scalar_kernel::ApplyDiagonalCell(t, i, j + k, qt_lanes[k], d_lanes[k],
                                       lb_lanes[k]);
    }
  }
  _mm256_storeu_pd(qt_out, qt);
}

void DiagonalTileAvx2(const DiagonalTile& t) {
  double qt[kDiagonalLanes];
  std::copy(t.initial_dots, t.initial_dots + t.lanes, qt);
  const std::size_t full_rows =
      t.lanes == kDiagonalLanes
          ? scalar_kernel::DiagonalLaneRows(t, kDiagonalLanes - 1)
          : 0;
  if (full_rows > 0) {
    const bool rows = t.row_dist != nullptr;
    const bool cols = t.col_dist != nullptr;
    if (t.sink != nullptr) {
      DiagonalTileBody<true, true, true>(t, full_rows, qt);
    } else if (rows && cols) {
      DiagonalTileBody<true, true, false>(t, full_rows, qt);
    } else if (rows) {
      DiagonalTileBody<true, false, false>(t, full_rows, qt);
    } else {
      DiagonalTileBody<false, true, false>(t, full_rows, qt);
    }
  }
  scalar_kernel::DiagonalTileRows(t, full_rows, qt);
}

/// The first pass over the cells [begin, end) of a re-seeded row, four per
/// register with the tile's cell math: every base LB is stored in-lane, and
/// a group drops to the scalar cell body when it holds a constant window or
/// some lane may change the row minimum (compared with <=, so
/// MatchPrecedes settles exact ties); the tail runs the scalar cells.
void ReseedRowCellsAvx2(const RowReseed& r, std::size_t begin,
                        std::size_t end) {
  const CellConstants c(r.length);
  const WindowArrays& w = r.windows;
  double* base_lbs = r.scratch->base_lbs.data();
  alignas(32) double d_lanes[kDiagonalLanes];
  alignas(32) double lb_lanes[kDiagonalLanes];
  std::size_t j = begin;
  for (; j + kDiagonalLanes <= end; j += kDiagonalLanes) {
    std::uint32_t col_const;
    std::memcpy(&col_const, w.is_const + j, sizeof(col_const));
    if ((w.is_const[r.row] | col_const) != 0) {
      scalar_kernel::RowCells(r, j, j + kDiagonalLanes);
      continue;
    }
    const __m256d rho = CellRho(c, _mm256_loadu_pd(r.dots + j),
                                w.means[r.row], w.means + j, w.stds[r.row],
                                w.stds + j);
    const __m256d d = CellDistance(c, rho);
    const __m256d lb = CellBaseLb(c, rho);
    const __m256d hit =
        _mm256_cmp_pd(d, _mm256_set1_pd(*r.min_dist), _CMP_LE_OQ);
    if (_mm256_movemask_pd(hit) == 0) {
      _mm256_storeu_pd(base_lbs + j, lb);
      continue;
    }
    _mm256_store_pd(d_lanes, d);
    _mm256_store_pd(lb_lanes, lb);
    for (std::size_t k = 0; k < kDiagonalLanes; ++k) {
      scalar_kernel::ApplyRowCell(r, j + k, d_lanes[k], lb_lanes[k]);
    }
  }
  scalar_kernel::RowCells(r, j, end);
}

/// scalar_kernel::LowestBaseLb, four cells per register: minpd returns its
/// second operand for a NaN first, so NaN cells are skipped as there. Ends
/// with vzeroupper after the last 256-bit use, which the compiler leaves
/// out here: the offer pass calls the sink, and legacy-SSE code behind it
/// would otherwise pay the AVX-SSE transition on every instruction (about
/// 4x the cost of an offer, measured).
double LowestBaseLbAvx2(const double* base_lbs, std::size_t lo,
                        std::size_t hi) {
  __m256d lowest = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  std::size_t j = lo;
  for (; j + kDiagonalLanes <= hi; j += kDiagonalLanes) {
    lowest = _mm256_min_pd(_mm256_loadu_pd(base_lbs + j), lowest);
  }
  const __m128d pair = _mm_min_pd(_mm256_castpd256_pd128(lowest),
                                  _mm256_extractf128_pd(lowest, 1));
  _mm256_zeroupper();
  const double out = std::min(_mm_cvtsd_f64(pair),
                              _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair)));
  return std::min(out, scalar_kernel::LowestBaseLb(base_lbs, j, hi));
}

void ReseedRowAvx2(const RowReseed& r) {
  scalar_kernel::PrepareScratch(r);
  const scalar_kernel::RowRuns runs = scalar_kernel::RowRunsOf(r);
  ReseedRowCellsAvx2(r, 0, runs.left_end);
  ReseedRowCellsAvx2(r, runs.right_begin, r.windows.count);
  scalar_kernel::MarkExclusionZone(r, runs);
  scalar_kernel::OfferRowCandidates(r, [&](std::size_t lo, std::size_t hi) {
    return LowestBaseLbAvx2(r.scratch->base_lbs.data(), lo, hi);
  });
}

}  // namespace

const Kernels& Avx2Kernels() {
  static constexpr Kernels kTable = {
      &Radix2PassAvx2,      &FusedRadix4DitAvx2, &FusedRadix4DifAvx2,
      &ComplexMultiplyAvx2, &DotProductAvx2,     &WindowStatsAvx2,
      &DiagonalTileAvx2,    &ReseedRowAvx2,
  };
  return kTable;
}

}  // namespace valmod::simd
