#include "fft/plan.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <mutex>
#include <numbers>
#include <utility>

#include "simd/dispatch.h"

namespace valmod::fft {

FftPlan::FftPlan(std::size_t n) : n_(n) {
  assert(IsPowerOfTwo(n));

  twiddles_.resize(n_ / 2);
  for (std::size_t k = 0; k < n_ / 2; ++k) {
    const double angle =
        -2.0 * std::numbers::pi * static_cast<double>(k) /
        static_cast<double>(n_);
    twiddles_[k] = {std::cos(angle), std::sin(angle)};
  }
}

// The butterfly kernels (span-2 pass, fused radix-2^2 DIT/DIF passes — see
// src/simd/kernels_scalar_inl.h for the loop bodies and derivation
// comments) are runtime-dispatched: simd::ActiveKernels() resolves to the
// best vector target the CPU supports, and every target is bit-identical
// to the scalar oracle. The schedules below stay here; only the dense
// inner sweeps moved.

void FftPlan::ForwardBitrev(std::span<std::complex<double>> data) const {
  assert(data.size() == n_);
  if (n_ == 1) return;
  double* d = reinterpret_cast<double*>(data.data());
  // Decimation in frequency: spans shrink from n to 2, output lands in
  // bit-reversed order with no permutation pass. An odd log2(n) leaves the
  // (twiddle-free) span-2 stage for the end.
  const simd::Kernels& kernels = simd::ActiveKernels();
  const double* tw = reinterpret_cast<const double*>(twiddles_.data());
  std::uint64_t fused = 0;
  for (std::size_t len = n_ / 2; len >= 2; len >>= 2) {
    kernels.fused_radix4_dif(d, n_, len, tw);
    ++fused;
  }
  simd::NoteKernelCalls(simd::KernelKind::kFusedRadix4Dif, fused);
  if (std::countr_zero(n_) % 2 == 1) {
    kernels.radix2_pass(d, n_);
    simd::NoteKernelCalls(simd::KernelKind::kRadix2Pass, 1);
  }
}

void FftPlan::InverseBitrev(std::span<std::complex<double>> data) const {
  assert(data.size() == n_);
  if (n_ == 1) return;
  double* d = reinterpret_cast<double*>(data.data());
  // Decimation in time over the bit-reversed spectrum: spans grow from 2 to
  // n, output lands in natural order. An odd log2(n) runs the span-2 stage
  // first. The conjugate twiddles (the DIT kernel negates their imaginary
  // parts) make it the inverse.
  const simd::Kernels& kernels = simd::ActiveKernels();
  const double* tw = reinterpret_cast<const double*>(twiddles_.data());
  std::size_t len = 2;
  std::uint64_t fused = 0;
  if (std::countr_zero(n_) % 2 == 1) {
    kernels.radix2_pass(d, n_);
    simd::NoteKernelCalls(simd::KernelKind::kRadix2Pass, 1);
    len = 4;
  }
  for (; len <= n_ / 2; len <<= 2) {
    kernels.fused_radix4_dit(d, n_, len, tw);
    ++fused;
  }
  simd::NoteKernelCalls(simd::KernelKind::kFusedRadix4Dit, fused);
  const double inv_n = 1.0 / static_cast<double>(n_);
  for (std::size_t i = 0; i < 2 * n_; ++i) d[i] *= inv_n;
}

void FftPlan::RealForwardPair(std::span<const double> a,
                              std::span<const double> b,
                              std::span<std::complex<double>> spectrum) const {
  assert(a.size() <= n_);
  assert(b.size() <= n_);
  assert(spectrum.size() == n_);

  const std::size_t filled = std::max(a.size(), b.size());
  for (std::size_t i = 0; i < filled; ++i) {
    spectrum[i] = {i < a.size() ? a[i] : 0.0, i < b.size() ? b[i] : 0.0};
  }
  std::fill(spectrum.begin() + filled, spectrum.end(),
            std::complex<double>{0.0, 0.0});
  ForwardBitrev(spectrum);
}

void FftPlan::MultiplyPairByRealSpectrum(
    std::span<const std::complex<double>> real_spectrum,
    std::span<std::complex<double>> pair_spectrum) const {
  assert(real_spectrum.size() == n_);
  assert(pair_spectrum.size() == n_);

  // Both spectra carry the same bit-reversal, so the product is a pure
  // elementwise sweep; conjugate symmetry never needs to be spelled out.
  // std::complex<double> has array-compatible layout, so the dispatched
  // kernel works on the interleaved doubles directly.
  simd::ActiveKernels().complex_multiply(
      reinterpret_cast<const double*>(pair_spectrum.data()),
      reinterpret_cast<const double*>(real_spectrum.data()),
      reinterpret_cast<double*>(pair_spectrum.data()), n_);
  simd::NoteKernelCalls(simd::KernelKind::kComplexMultiply, 1);
}

void FftPlan::MultiplyPairByRealSpectrumInto(
    std::span<const std::complex<double>> real_spectrum,
    std::span<const std::complex<double>> pair_spectrum,
    std::span<std::complex<double>> product) const {
  assert(real_spectrum.size() == n_);
  assert(pair_spectrum.size() == n_);
  assert(product.size() == n_);

  simd::ActiveKernels().complex_multiply(
      reinterpret_cast<const double*>(pair_spectrum.data()),
      reinterpret_cast<const double*>(real_spectrum.data()),
      reinterpret_cast<double*>(product.data()), n_);
  simd::NoteKernelCalls(simd::KernelKind::kComplexMultiply, 1);
}

namespace {

std::atomic<std::uint64_t> g_plan_hits{0};
std::atomic<std::uint64_t> g_plan_misses{0};

/// One slot per power of two a std::size_t can hold, indexed by log2(n):
/// GetPlan only takes powers of two, so the table never needs to evict.
struct PlanRegistry {
  std::mutex mutex;
  std::array<std::shared_ptr<const FftPlan>,
             std::numeric_limits<std::size_t>::digits>
      plans;
};

PlanRegistry& Registry() {
  static PlanRegistry* registry = new PlanRegistry();
  return *registry;
}

}  // namespace

std::shared_ptr<const FftPlan> GetPlan(std::size_t n) {
  assert(IsPowerOfTwo(n));
  PlanRegistry& registry = Registry();
  std::shared_ptr<const FftPlan>& slot =
      registry.plans[static_cast<std::size_t>(std::countr_zero(n))];
  {
    std::lock_guard<std::mutex> lock(registry.mutex);
    if (slot != nullptr) {
      g_plan_hits.fetch_add(1, std::memory_order_relaxed);
      return slot;
    }
  }
  // Built outside the lock: table construction for large sizes is slow
  // enough that serializing it would stall concurrent callers. A racing
  // duplicate build is harmless; the first insert wins.
  auto plan = std::make_shared<const FftPlan>(n);
  std::lock_guard<std::mutex> lock(registry.mutex);
  if (slot != nullptr) {
    g_plan_hits.fetch_add(1, std::memory_order_relaxed);
    return slot;
  }
  g_plan_misses.fetch_add(1, std::memory_order_relaxed);
  slot = std::move(plan);
  return slot;
}

PlanRegistryCounters PlanRegistryCountersSnapshot() {
  PlanRegistryCounters out;
  out.hits = g_plan_hits.load(std::memory_order_relaxed);
  out.misses = g_plan_misses.load(std::memory_order_relaxed);
  return out;
}

}  // namespace valmod::fft
