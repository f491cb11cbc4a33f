// Scalar kernel table: the bit-exactness oracle every vector target must
// match. The loop bodies live in kernels_scalar_inl.h (shared with the
// vector TUs, which use them for remainder lanes); this file only supplies
// the whole-array drivers. Compiled with -ffp-contract=off like every
// kernels_*.cc so no a*b+c ever contracts into an FMA.

#include <cstddef>

#include "simd/kernels.h"
#include "simd/kernels_scalar_inl.h"

namespace valmod::simd {
namespace {

void Radix2PassScalar(double* d, std::size_t n) {
  for (std::size_t i = 0; i < 2 * n; i += 4) {
    scalar_kernel::Radix2Butterfly(d, i);
  }
}

void FusedRadix4DitScalar(double* d, std::size_t n, std::size_t len,
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
      scalar_kernel::FusedDitButterfly(pa, pb, pc, pd, k, tw, s1, s2,
                                       quarter);
    }
  }
}

void FusedRadix4DifScalar(double* d, std::size_t n, std::size_t len,
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
      scalar_kernel::FusedDifButterfly(pa, pb, pc, pd, k, tw, s1, s2,
                                       quarter);
    }
  }
}

void ComplexMultiplyScalar(const double* a, const double* b, double* out,
                           std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    scalar_kernel::ComplexMultiplyBin(a, b, out, k);
  }
}

double DotProductScalar(const double* a, const double* b, std::size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    acc0 += a[t] * b[t];
    acc1 += a[t + 1] * b[t + 1];
    acc2 += a[t + 2] * b[t + 2];
    acc3 += a[t + 3] * b[t + 3];
  }
  for (; t < n; ++t) acc0 += a[t] * b[t];
  return (acc0 + acc1) + (acc2 + acc3);
}

void WindowStatsScalar(const double* prefix, const double* prefix_sq,
                       std::size_t count, std::size_t length,
                       double global_mean, double* means, double* std_devs) {
  const double dlen = static_cast<double>(length);
  const double inv_len = 1.0 / dlen;
  for (std::size_t i = 0; i < count; ++i) {
    scalar_kernel::WindowStatsAt(prefix, prefix_sq, i, length, dlen, inv_len,
                                 global_mean, means, std_devs);
  }
}

void DiagonalTileScalar(const DiagonalTile& tile) {
  scalar_kernel::DiagonalTileWalk(tile);
}

void ReseedRowScalar(const RowReseed& row) {
  scalar_kernel::ReseedRowWalk(row);
}

}  // namespace

double DiagonalGate(double dist, double admit, std::size_t length) {
  return scalar_kernel::RowGate(dist, admit, length);
}

const Kernels& ScalarKernels() {
  static constexpr Kernels kTable = {
      &Radix2PassScalar,      &FusedRadix4DitScalar, &FusedRadix4DifScalar,
      &ComplexMultiplyScalar, &DotProductScalar,     &WindowStatsScalar,
      &DiagonalTileScalar,    &ReseedRowScalar,
  };
  return kTable;
}

}  // namespace valmod::simd
