#include "fft/plan.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <list>
#include <mutex>
#include <numbers>
#include <unordered_map>
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
    kernels.fused_radix4_dif(d, n_, len, tw, /*sign=*/1.0);
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
  // first. The conjugate twiddles (sign -1) make it the inverse.
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
    kernels.fused_radix4_dit(d, n_, len, tw, /*sign=*/-1.0);
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

constexpr std::size_t kDefaultPlanRegistryCapacity = 32;

std::atomic<std::uint64_t> g_plan_hits{0};
std::atomic<std::uint64_t> g_plan_misses{0};
std::atomic<std::uint64_t> g_plan_evictions{0};

struct PlanRegistry {
  std::mutex mutex;
  std::size_t capacity = kDefaultPlanRegistryCapacity;
  /// Most recently used at the front. A std::list keeps hit handling to one
  /// splice and eviction to one pop, with stable iterators for the index.
  std::list<std::pair<std::size_t, std::shared_ptr<const FftPlan>>> lru;
  std::unordered_map<std::size_t, decltype(lru)::iterator> index;

  /// Caller must hold `mutex`.
  void TrimLocked() {
    while (lru.size() > capacity) {
      index.erase(lru.back().first);
      lru.pop_back();
      g_plan_evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }
};

PlanRegistry& Registry() {
  static PlanRegistry* registry = new PlanRegistry();
  return *registry;
}

}  // namespace

std::size_t PlanRegistryCapacity() {
  PlanRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return registry.capacity;
}

std::size_t PlanRegistrySizeForTesting() {
  PlanRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return registry.lru.size();
}

std::size_t SetPlanRegistryCapacityForTesting(std::size_t capacity) {
  assert(capacity >= 1);
  PlanRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  const std::size_t previous = registry.capacity;
  registry.capacity = capacity;
  registry.TrimLocked();
  return previous;
}

std::shared_ptr<const FftPlan> GetPlan(std::size_t n) {
  assert(IsPowerOfTwo(n));
  PlanRegistry& registry = Registry();
  {
    std::lock_guard<std::mutex> lock(registry.mutex);
    auto it = registry.index.find(n);
    if (it != registry.index.end()) {
      registry.lru.splice(registry.lru.begin(), registry.lru, it->second);
      g_plan_hits.fetch_add(1, std::memory_order_relaxed);
      return it->second->second;
    }
  }
  // Built outside the lock: table construction for large sizes is slow
  // enough that serializing it would stall concurrent callers. A racing
  // duplicate build is harmless; the first insert wins.
  auto plan = std::make_shared<const FftPlan>(n);
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto it = registry.index.find(n);
  if (it != registry.index.end()) {
    registry.lru.splice(registry.lru.begin(), registry.lru, it->second);
    g_plan_hits.fetch_add(1, std::memory_order_relaxed);
    return it->second->second;
  }
  g_plan_misses.fetch_add(1, std::memory_order_relaxed);
  registry.lru.emplace_front(n, std::move(plan));
  registry.index.emplace(n, registry.lru.begin());
  std::shared_ptr<const FftPlan> handle = registry.lru.front().second;
  registry.TrimLocked();
  return handle;
}

PlanRegistryCounters PlanRegistryCountersSnapshot() {
  PlanRegistryCounters out;
  out.hits = g_plan_hits.load(std::memory_order_relaxed);
  out.misses = g_plan_misses.load(std::memory_order_relaxed);
  out.evictions = g_plan_evictions.load(std::memory_order_relaxed);
  return out;
}

}  // namespace valmod::fft
