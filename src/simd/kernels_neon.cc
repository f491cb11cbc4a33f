// NEON (aarch64 ASIMD) kernel table. ASIMD is baseline on aarch64, so no
// runtime feature probe is needed beyond the architecture itself. Compiled
// with -ffp-contract=off like every kernels_*.cc; the bodies avoid vmla/
// vfma (which map to fused multiply-add) so every product and sum rounds
// exactly like the scalar oracle. The alternating subtract/add of the
// complex product flips the sign bit of the real lane with an integer xor
// and adds — bit-identical to a separate subtract by IEEE definition.

#include <arm_neon.h>

#include <cstddef>

#include "simd/kernels.h"
#include "simd/kernels_scalar_inl.h"

namespace valmod::simd {
namespace {

/// xor-mask flipping the sign of lane 0 (the real component).
inline float64x2_t NegateRealLane(float64x2_t v) {
  const uint64x2_t mask = {0x8000000000000000ULL, 0};
  return vreinterpretq_f64_u64(veorq_u64(vreinterpretq_u64_f64(v), mask));
}

/// Complex product against duplicated twiddle components: real lane
/// wr*vr - wi*vi, imaginary lane wr*vi + wi*vr.
inline float64x2_t ComplexMulByDup(float64x2_t wr, float64x2_t wi,
                                   float64x2_t v) {
  const float64x2_t swapped = vextq_f64(v, v, 1);
  return vaddq_f64(vmulq_f64(wr, v),
                   NegateRealLane(vmulq_f64(wi, swapped)));
}

void Radix2PassNeon(double* d, std::size_t n) {
  for (std::size_t i = 0; i < 2 * n; i += 4) {
    const float64x2_t a = vld1q_f64(d + i);
    const float64x2_t b = vld1q_f64(d + i + 2);
    vst1q_f64(d + i, vaddq_f64(a, b));
    vst1q_f64(d + i + 2, vsubq_f64(a, b));
  }
}

struct TwiddleDup {
  float64x2_t r;
  float64x2_t i;
};

/// Twiddle pair (tw[idx], tw[idx + 1]) as duplicated real and imaginary
/// vectors. kConjugate negates the imaginary part (the inverse transform's
/// twiddles) exactly like the scalar kernel's `-tw[...]`.
template <bool kConjugate>
inline TwiddleDup LoadTwiddleDup(const double* tw, std::size_t idx) {
  const double wi = tw[idx + 1];
  return {vdupq_n_f64(tw[idx]), vdupq_n_f64(kConjugate ? -wi : wi)};
}

/// One-complex-wide fused DIT body at index k (conjugate twiddles).
inline void FusedDitOne(double* pa, double* pb, double* pc, double* pd,
                        std::size_t k, const double* tw, std::size_t s1,
                        std::size_t s2, std::size_t quarter) {
  const TwiddleDup w1 = LoadTwiddleDup<true>(tw, 2 * k * s1);
  const TwiddleDup w2 = LoadTwiddleDup<true>(tw, 2 * k * s2);
  const TwiddleDup w3 = LoadTwiddleDup<true>(tw, 2 * (k * s2 + quarter));

  const float64x2_t vb = vld1q_f64(pb + 2 * k);
  const float64x2_t t1 = ComplexMulByDup(w1.r, w1.i, vb);
  const float64x2_t va = vld1q_f64(pa + 2 * k);
  const float64x2_t a0 = vaddq_f64(va, t1);
  const float64x2_t b0 = vsubq_f64(va, t1);

  const float64x2_t vd = vld1q_f64(pd + 2 * k);
  const float64x2_t t2 = ComplexMulByDup(w1.r, w1.i, vd);
  const float64x2_t vc = vld1q_f64(pc + 2 * k);
  const float64x2_t c0 = vaddq_f64(vc, t2);
  const float64x2_t d0 = vsubq_f64(vc, t2);

  const float64x2_t t3 = ComplexMulByDup(w2.r, w2.i, c0);
  vst1q_f64(pa + 2 * k, vaddq_f64(a0, t3));
  vst1q_f64(pc + 2 * k, vsubq_f64(a0, t3));

  const float64x2_t t4 = ComplexMulByDup(w3.r, w3.i, d0);
  vst1q_f64(pb + 2 * k, vaddq_f64(b0, t4));
  vst1q_f64(pd + 2 * k, vsubq_f64(b0, t4));
}

/// One-complex-wide fused DIF body at index k.
inline void FusedDifOne(double* pa, double* pb, double* pc, double* pd,
                        std::size_t k, const double* tw, std::size_t s1,
                        std::size_t s2, std::size_t quarter) {
  const TwiddleDup w1 = LoadTwiddleDup<false>(tw, 2 * k * s1);
  const TwiddleDup w2 = LoadTwiddleDup<false>(tw, 2 * k * s2);
  const TwiddleDup w3 = LoadTwiddleDup<false>(tw, 2 * (k * s2 + quarter));

  const float64x2_t va = vld1q_f64(pa + 2 * k);
  const float64x2_t vc = vld1q_f64(pc + 2 * k);
  const float64x2_t a1 = vaddq_f64(va, vc);
  const float64x2_t cd = vsubq_f64(va, vc);
  const float64x2_t c1 = ComplexMulByDup(w2.r, w2.i, cd);

  const float64x2_t vb = vld1q_f64(pb + 2 * k);
  const float64x2_t vd = vld1q_f64(pd + 2 * k);
  const float64x2_t b1 = vaddq_f64(vb, vd);
  const float64x2_t dd = vsubq_f64(vb, vd);
  const float64x2_t d1 = ComplexMulByDup(w3.r, w3.i, dd);

  vst1q_f64(pa + 2 * k, vaddq_f64(a1, b1));
  const float64x2_t ab = vsubq_f64(a1, b1);
  vst1q_f64(pb + 2 * k, ComplexMulByDup(w1.r, w1.i, ab));

  vst1q_f64(pc + 2 * k, vaddq_f64(c1, d1));
  const float64x2_t cd2 = vsubq_f64(c1, d1);
  vst1q_f64(pd + 2 * k, ComplexMulByDup(w1.r, w1.i, cd2));
}

void FusedRadix4DitNeon(double* d, std::size_t n, std::size_t len,
                        const double* tw) {
  const std::size_t half = len / 2;
  const std::size_t s1 = n / len;
  const std::size_t s2 = s1 / 2;
  const std::size_t quarter = n / 4;
  for (std::size_t start = 0; start < n; start += 2 * len) {
    double* pa = d + 2 * start;
    double* pb = pa + len;
    double* pc = pa + 2 * len;
    double* pd = pa + 3 * len;
    for (std::size_t k = 0; k < half; ++k) {
      FusedDitOne(pa, pb, pc, pd, k, tw, s1, s2, quarter);
    }
  }
}

void FusedRadix4DifNeon(double* d, std::size_t n, std::size_t len,
                        const double* tw) {
  const std::size_t half = len / 2;
  const std::size_t s1 = n / len;
  const std::size_t s2 = s1 / 2;
  const std::size_t quarter = n / 4;
  for (std::size_t start = 0; start < n; start += 2 * len) {
    double* pa = d + 2 * start;
    double* pb = pa + len;
    double* pc = pa + 2 * len;
    double* pd = pa + 3 * len;
    for (std::size_t k = 0; k < half; ++k) {
      FusedDifOne(pa, pb, pc, pd, k, tw, s1, s2, quarter);
    }
  }
}

void ComplexMultiplyNeon(const double* a, const double* b, double* out,
                         std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const float64x2_t va = vld1q_f64(a + 2 * k);
    const float64x2_t vb = vld1q_f64(b + 2 * k);
    const float64x2_t br = vdupq_laneq_f64(vb, 0);
    const float64x2_t bi = vdupq_laneq_f64(vb, 1);
    const float64x2_t swapped = vextq_f64(va, va, 1);
    vst1q_f64(out + 2 * k,
              vaddq_f64(vmulq_f64(va, br),
                        NegateRealLane(vmulq_f64(swapped, bi))));
  }
}

double DotProductNeon(const double* a, const double* b, std::size_t n) {
  // Lanes of acc01 are the scalar kernel's acc0/acc1; acc23 holds acc2/acc3.
  float64x2_t acc01 = vdupq_n_f64(0.0);
  float64x2_t acc23 = vdupq_n_f64(0.0);
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    acc01 = vaddq_f64(acc01, vmulq_f64(vld1q_f64(a + t), vld1q_f64(b + t)));
    acc23 = vaddq_f64(acc23,
                      vmulq_f64(vld1q_f64(a + t + 2), vld1q_f64(b + t + 2)));
  }
  double acc0 = vgetq_lane_f64(acc01, 0);
  const double acc1 = vgetq_lane_f64(acc01, 1);
  const double acc2 = vgetq_lane_f64(acc23, 0);
  const double acc3 = vgetq_lane_f64(acc23, 1);
  for (; t < n; ++t) acc0 += a[t] * b[t];
  return (acc0 + acc1) + (acc2 + acc3);
}

void WindowStatsNeon(const double* prefix, const double* prefix_sq,
                     std::size_t count, std::size_t length, double global_mean,
                     double* means, double* std_devs) {
  const double dlen = static_cast<double>(length);
  const double inv_len = 1.0 / dlen;
  const float64x2_t vlen = vdupq_n_f64(dlen);
  const float64x2_t vinv = vdupq_n_f64(inv_len);
  const float64x2_t vgm = vdupq_n_f64(global_mean);
  const float64x2_t vzero = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const float64x2_t diff = vsubq_f64(vld1q_f64(prefix + i + length),
                                       vld1q_f64(prefix + i));
    vst1q_f64(means + i, vaddq_f64(vdivq_f64(diff, vlen), vgm));
    const float64x2_t cm = vmulq_f64(diff, vinv);
    const float64x2_t mean_sq =
        vmulq_f64(vsubq_f64(vld1q_f64(prefix_sq + i + length),
                            vld1q_f64(prefix_sq + i)),
                  vinv);
    const float64x2_t var = vsubq_f64(mean_sq, vmulq_f64(cm, cm));
    vst1q_f64(std_devs + i, vsqrtq_f64(vmaxq_f64(var, vzero)));
  }
  for (; i < count; ++i) {
    scalar_kernel::WindowStatsAt(prefix, prefix_sq, i, length, dlen, inv_len,
                                 global_mean, means, std_devs);
  }
}

// No NEON cell bodies yet: the tile and the row re-seed run the scalar
// walks.
void DiagonalTileNeon(const DiagonalTile& tile) {
  scalar_kernel::DiagonalTileWalk(tile);
}

void ReseedRowNeon(const RowReseed& row) {
  scalar_kernel::ReseedRowWalk(row);
}

}  // namespace

const Kernels& NeonKernels() {
  static constexpr Kernels kTable = {
      &Radix2PassNeon,      &FusedRadix4DitNeon, &FusedRadix4DifNeon,
      &ComplexMultiplyNeon, &DotProductNeon,     &WindowStatsNeon,
      &DiagonalTileNeon,    &ReseedRowNeon,
  };
  return kTable;
}

}  // namespace valmod::simd
