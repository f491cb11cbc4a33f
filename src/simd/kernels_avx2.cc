// AVX2 kernel table. Compiled with -mavx2 -ffp-contract=off; only ever
// called after cpuid confirms AVX2. Bodies live in kernels_avx2_inl.h
// (shared with the AVX-512 TU for its 256-bit tails).

#include <cstddef>

#include "simd/kernels.h"
#include "simd/kernels_avx2_inl.h"

namespace valmod::simd {
namespace {

void Radix2PassAvx2(double* d, std::size_t n) { avx2_kernel::Radix2Pass(d, n); }

void FusedRadix4DitAvx2(double* d, std::size_t n, std::size_t len,
                        const double* tw, double sign) {
  avx2_kernel::FusedRadix4Dit(d, n, len, tw, sign);
}

void FusedRadix4DifAvx2(double* d, std::size_t n, std::size_t len,
                        const double* tw, double sign) {
  avx2_kernel::FusedRadix4Dif(d, n, len, tw, sign);
}

void ComplexMultiplyAvx2(const double* a, const double* b, double* out,
                         std::size_t n) {
  avx2_kernel::ComplexMultiply(a, b, out, n);
}

double DotProductAvx2(const double* a, const double* b, std::size_t n) {
  return avx2_kernel::DotProduct(a, b, n);
}

void WindowStatsAvx2(const double* prefix, const double* prefix_sq,
                     std::size_t count, std::size_t length, double global_mean,
                     double* means, double* std_devs) {
  avx2_kernel::WindowStats(prefix, prefix_sq, count, length, global_mean,
                           means, std_devs);
}

void DiagonalTileAvx2(const DiagonalTile& tile) {
  avx2_kernel::DiagonalTileWalk(tile);
}

}  // namespace

const Kernels& Avx2Kernels() {
  static constexpr Kernels kTable = {
      &Radix2PassAvx2,      &FusedRadix4DitAvx2, &FusedRadix4DifAvx2,
      &ComplexMultiplyAvx2, &DotProductAvx2,     &WindowStatsAvx2,
      &DiagonalTileAvx2,
  };
  return kTable;
}

}  // namespace valmod::simd
