// AVX-512 kernel table. Compiled with -mavx512f -ffp-contract=off; only
// ever called after cpuid confirms AVX512F (which includes the OS xsave
// check in __builtin_cpu_supports). 512-bit lanes process 4 complexes per
// step; shorter spans fall back to the 256-bit bodies in
// kernels_avx2_inl.h (AVX2 is implied by -mavx512f) and then to the scalar
// bodies, so every size stays bit-identical to the oracle.
//
// AVX-512 has no vaddsubpd, so the alternating subtract/add of the complex
// product is spelled as x + (sign-flipped y): IEEE subtraction is defined
// as addition of the negation, so flipping the sign bit of the even lanes
// and adding is bit-identical to vaddsubpd. The sign flip uses integer xor
// (_mm512_xor_si512) to stay within AVX512F — _mm512_xor_pd would require
// AVX512DQ, which Knights-class parts lack.
//
// The dot product deliberately reuses the 256-bit kernel: widening the
// accumulator to 8 lanes would change the partial-sum grouping and break
// bit-identity with the scalar four-accumulator reduction.

#include <immintrin.h>

#include <cstddef>

#include "simd/kernels.h"
#include "simd/kernels_avx2_inl.h"
#include "simd/kernels_scalar_inl.h"

namespace valmod::simd {
namespace {

/// -0.0 in the even (real) lanes: xor with this then add == addsub.
inline __m512d NegateEvenLanes(__m512d v) {
  const __m512d mask = _mm512_setr_pd(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0,
                                      0.0);
  return _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(v),
                                              _mm512_castpd_si512(mask)));
}

inline __m512d AddSub(__m512d x, __m512d y) {
  return _mm512_add_pd(x, NegateEvenLanes(y));
}

inline __m512d ComplexMulByDup(__m512d wr, __m512d wi, __m512d v) {
  const __m512d swapped = _mm512_permute_pd(v, 0x55);
  return AddSub(_mm512_mul_pd(wr, v), _mm512_mul_pd(wi, swapped));
}

/// Four (re, im) pairs gathered from tw at indices i0..i3.
inline __m512d LoadTwiddleQuad(const double* tw, std::size_t i0,
                               std::size_t i1, std::size_t i2,
                               std::size_t i3) {
  const __m256d lo = avx2_kernel::LoadTwiddlePair(tw, i0, i1);
  const __m256d hi = avx2_kernel::LoadTwiddlePair(tw, i2, i3);
  return _mm512_insertf64x4(_mm512_castpd256_pd512(lo), hi, 1);
}

struct TwiddleDup {
  __m512d r;
  __m512d i;
};

inline TwiddleDup LoadTwiddleDup(const double* tw, std::size_t k,
                                 std::size_t s, std::size_t offset,
                                 __m512d sign) {
  const __m512d w = LoadTwiddleQuad(tw, 2 * (k * s + offset),
                                    2 * ((k + 1) * s + offset),
                                    2 * ((k + 2) * s + offset),
                                    2 * ((k + 3) * s + offset));
  return {_mm512_permute_pd(w, 0x00),
          _mm512_mul_pd(_mm512_permute_pd(w, 0xFF), sign)};
}

void Radix2PassAvx512(double* d, std::size_t n) {
  const std::size_t total = 2 * n;
  // Gather/scatter lane maps for four span-2 butterflies per 16 doubles:
  // a = the four (ar, ai) pairs, b = the four (br, bi) pairs; outputs
  // re-interleave the sums and differences into butterfly order.
  const __m512i idx_a = _mm512_setr_epi64(0, 1, 4, 5, 8, 9, 12, 13);
  const __m512i idx_b = _mm512_setr_epi64(2, 3, 6, 7, 10, 11, 14, 15);
  const __m512i idx_lo = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
  const __m512i idx_hi = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
  std::size_t i = 0;
  for (; i + 16 <= total; i += 16) {
    const __m512d v0 = _mm512_loadu_pd(d + i);
    const __m512d v1 = _mm512_loadu_pd(d + i + 8);
    const __m512d a = _mm512_permutex2var_pd(v0, idx_a, v1);
    const __m512d b = _mm512_permutex2var_pd(v0, idx_b, v1);
    const __m512d s = _mm512_add_pd(a, b);
    const __m512d t = _mm512_sub_pd(a, b);
    _mm512_storeu_pd(d + i, _mm512_permutex2var_pd(s, idx_lo, t));
    _mm512_storeu_pd(d + i + 8, _mm512_permutex2var_pd(s, idx_hi, t));
  }
  for (; i < total; i += 4) scalar_kernel::Radix2Butterfly(d, i);
}

/// The 4-complex-wide fused DIT inner body at index k.
inline void FusedDitQuad(double* pa, double* pb, double* pc, double* pd,
                         std::size_t k, const double* tw, std::size_t s1,
                         std::size_t s2, std::size_t quarter, __m512d sign) {
  const TwiddleDup w1 = LoadTwiddleDup(tw, k, s1, 0, sign);
  const TwiddleDup w2 = LoadTwiddleDup(tw, k, s2, 0, sign);
  const TwiddleDup w3 = LoadTwiddleDup(tw, k, s2, quarter, sign);

  const __m512d vb = _mm512_loadu_pd(pb + 2 * k);
  const __m512d t1 = ComplexMulByDup(w1.r, w1.i, vb);
  const __m512d va = _mm512_loadu_pd(pa + 2 * k);
  const __m512d a0 = _mm512_add_pd(va, t1);
  const __m512d b0 = _mm512_sub_pd(va, t1);

  const __m512d vd = _mm512_loadu_pd(pd + 2 * k);
  const __m512d t2 = ComplexMulByDup(w1.r, w1.i, vd);
  const __m512d vc = _mm512_loadu_pd(pc + 2 * k);
  const __m512d c0 = _mm512_add_pd(vc, t2);
  const __m512d d0 = _mm512_sub_pd(vc, t2);

  const __m512d t3 = ComplexMulByDup(w2.r, w2.i, c0);
  _mm512_storeu_pd(pa + 2 * k, _mm512_add_pd(a0, t3));
  _mm512_storeu_pd(pc + 2 * k, _mm512_sub_pd(a0, t3));

  const __m512d t4 = ComplexMulByDup(w3.r, w3.i, d0);
  _mm512_storeu_pd(pb + 2 * k, _mm512_add_pd(b0, t4));
  _mm512_storeu_pd(pd + 2 * k, _mm512_sub_pd(b0, t4));
}

/// The 4-complex-wide fused DIF inner body at index k.
inline void FusedDifQuad(double* pa, double* pb, double* pc, double* pd,
                         std::size_t k, const double* tw, std::size_t s1,
                         std::size_t s2, std::size_t quarter, __m512d sign) {
  const TwiddleDup w1 = LoadTwiddleDup(tw, k, s1, 0, sign);
  const TwiddleDup w2 = LoadTwiddleDup(tw, k, s2, 0, sign);
  const TwiddleDup w3 = LoadTwiddleDup(tw, k, s2, quarter, sign);

  const __m512d va = _mm512_loadu_pd(pa + 2 * k);
  const __m512d vc = _mm512_loadu_pd(pc + 2 * k);
  const __m512d a1 = _mm512_add_pd(va, vc);
  const __m512d cd = _mm512_sub_pd(va, vc);
  const __m512d c1 = ComplexMulByDup(w2.r, w2.i, cd);

  const __m512d vb = _mm512_loadu_pd(pb + 2 * k);
  const __m512d vd = _mm512_loadu_pd(pd + 2 * k);
  const __m512d b1 = _mm512_add_pd(vb, vd);
  const __m512d dd = _mm512_sub_pd(vb, vd);
  const __m512d d1 = ComplexMulByDup(w3.r, w3.i, dd);

  _mm512_storeu_pd(pa + 2 * k, _mm512_add_pd(a1, b1));
  const __m512d ab = _mm512_sub_pd(a1, b1);
  _mm512_storeu_pd(pb + 2 * k, ComplexMulByDup(w1.r, w1.i, ab));

  _mm512_storeu_pd(pc + 2 * k, _mm512_add_pd(c1, d1));
  const __m512d cd2 = _mm512_sub_pd(c1, d1);
  _mm512_storeu_pd(pd + 2 * k, ComplexMulByDup(w1.r, w1.i, cd2));
}

void FusedRadix4DitAvx512(double* d, std::size_t n, std::size_t len,
                          const double* tw, double sign) {
  const std::size_t half = len / 2;
  const std::size_t s1 = n / len;
  const std::size_t s2 = s1 / 2;
  const std::size_t quarter = n / 4;
  const __m512d vsign512 = _mm512_set1_pd(sign);
  const __m256d vsign256 = _mm256_set1_pd(sign);
  for (std::size_t start = 0; start < n; start += 2 * len) {
    double* pa = d + 2 * start;
    double* pb = pa + len;
    double* pc = pa + 2 * len;
    double* pd = pa + 3 * len;
    std::size_t k = 0;
    for (; k + 4 <= half; k += 4) {
      FusedDitQuad(pa, pb, pc, pd, k, tw, s1, s2, quarter, vsign512);
    }
    for (; k + 2 <= half; k += 2) {
      avx2_kernel::FusedDitPair(pa, pb, pc, pd, k, tw, s1, s2, quarter,
                                vsign256);
    }
    for (; k < half; ++k) {
      scalar_kernel::FusedDitButterfly(pa, pb, pc, pd, k, tw, s1, s2, quarter,
                                       sign);
    }
  }
}

void FusedRadix4DifAvx512(double* d, std::size_t n, std::size_t len,
                          const double* tw, double sign) {
  const std::size_t half = len / 2;
  const std::size_t s1 = n / len;
  const std::size_t s2 = s1 / 2;
  const std::size_t quarter = n / 4;
  const __m512d vsign512 = _mm512_set1_pd(sign);
  const __m256d vsign256 = _mm256_set1_pd(sign);
  for (std::size_t start = 0; start < n; start += 2 * len) {
    double* pa = d + 2 * start;
    double* pb = pa + len;
    double* pc = pa + 2 * len;
    double* pd = pa + 3 * len;
    std::size_t k = 0;
    for (; k + 4 <= half; k += 4) {
      FusedDifQuad(pa, pb, pc, pd, k, tw, s1, s2, quarter, vsign512);
    }
    for (; k + 2 <= half; k += 2) {
      avx2_kernel::FusedDifPair(pa, pb, pc, pd, k, tw, s1, s2, quarter,
                                vsign256);
    }
    for (; k < half; ++k) {
      scalar_kernel::FusedDifButterfly(pa, pb, pc, pd, k, tw, s1, s2, quarter,
                                       sign);
    }
  }
}

void ComplexMultiplyAvx512(const double* a, const double* b, double* out,
                           std::size_t n) {
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m512d va = _mm512_loadu_pd(a + 2 * k);
    const __m512d vb = _mm512_loadu_pd(b + 2 * k);
    const __m512d br = _mm512_permute_pd(vb, 0x00);
    const __m512d bi = _mm512_permute_pd(vb, 0xFF);
    const __m512d swapped = _mm512_permute_pd(va, 0x55);
    _mm512_storeu_pd(out + 2 * k,
                     AddSub(_mm512_mul_pd(va, br),
                            _mm512_mul_pd(swapped, bi)));
  }
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

double DotProductAvx512(const double* a, const double* b, std::size_t n) {
  return avx2_kernel::DotProduct(a, b, n);
}

void WindowStatsAvx512(const double* prefix, const double* prefix_sq,
                       std::size_t count, std::size_t length,
                       double global_mean, double* means, double* std_devs) {
  const double dlen = static_cast<double>(length);
  const double inv_len = 1.0 / dlen;
  const __m512d vlen = _mm512_set1_pd(dlen);
  const __m512d vinv = _mm512_set1_pd(inv_len);
  const __m512d vgm = _mm512_set1_pd(global_mean);
  const __m512d vzero = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m512d diff = _mm512_sub_pd(_mm512_loadu_pd(prefix + i + length),
                                       _mm512_loadu_pd(prefix + i));
    _mm512_storeu_pd(means + i,
                     _mm512_add_pd(_mm512_div_pd(diff, vlen), vgm));
    const __m512d cm = _mm512_mul_pd(diff, vinv);
    const __m512d mean_sq =
        _mm512_mul_pd(_mm512_sub_pd(_mm512_loadu_pd(prefix_sq + i + length),
                                    _mm512_loadu_pd(prefix_sq + i)),
                      vinv);
    const __m512d var = _mm512_sub_pd(mean_sq, _mm512_mul_pd(cm, cm));
    _mm512_storeu_pd(std_devs + i,
                     _mm512_sqrt_pd(_mm512_max_pd(var, vzero)));
  }
  for (; i < count; ++i) {
    scalar_kernel::WindowStatsAt(prefix, prefix_sq, i, length, dlen, inv_len,
                                 global_mean, means, std_devs);
  }
}

// The diagonal tile reuses the 4-lane AVX2 body: the walker tiles by
// kDiagonalLanes on every target, so a wider body would need its own tile
// order and its own measurement.
void DiagonalTileAvx512(const DiagonalTile& tile) {
  avx2_kernel::DiagonalTileWalk(tile);
}

}  // namespace

const Kernels& Avx512Kernels() {
  static constexpr Kernels kTable = {
      &Radix2PassAvx512,      &FusedRadix4DitAvx512, &FusedRadix4DifAvx512,
      &ComplexMultiplyAvx512, &DotProductAvx512,     &WindowStatsAvx512,
      &DiagonalTileAvx512,
  };
  return kTable;
}

}  // namespace valmod::simd
