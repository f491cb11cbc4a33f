#ifndef VALMOD_FFT_PLAN_H_
#define VALMOD_FFT_PLAN_H_

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace valmod::fft {

inline bool IsPowerOfTwo(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// A reusable radix-2 FFT plan for one power-of-two size.
///
/// The plan precomputes a twiddle-factor table `w[j] = exp(-2*pi*i*j / n)`
/// once, so transforms are pure table lookups: no trigonometry on the hot
/// path and, unlike the incremental `w *= wlen` recurrence, no error
/// accumulation across a butterfly pass (every twiddle is exact to one
/// rounding of sin/cos).
///
/// There is one transform ordering, the convolution pipeline's: a
/// decimation-in-frequency forward that leaves its spectrum in bit-reversed
/// bin order, and a decimation-in-time inverse that consumes that order, so
/// no permutation pass ever runs. Real signals enter through the pair-packed
/// `RealForwardPair`: two real signals ride the real and imaginary lanes of
/// one full-size complex transform, and a lone signal leaves the second lane
/// empty. After the pointwise product, `InverseBitrev` returns the two real
/// results in the real and imaginary lanes.
///
/// Instances are immutable after construction and safe to share across
/// threads. Obtain them through `GetPlan`, which caches one plan per size.
class FftPlan {
 public:
  /// Builds tables for size `n`; `n` must be a power of two >= 1.
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// Forward transform in decimation-in-frequency order: natural-order
  /// input, *bit-reversed* output (`data[i]` holds bin `rev(i)`). Skips the
  /// permutation pass entirely, so a convolution pipeline that only ever
  /// multiplies spectra pointwise — a permutation-invariant operation — and
  /// comes back through InverseBitrev never pays for reordering.
  /// `data.size()` must equal `size()`.
  void ForwardBitrev(std::span<std::complex<double>> data) const;

  /// Inverse (with 1/n scaling) consuming a bit-reversed spectrum as
  /// produced by ForwardBitrev, returning natural-order samples:
  /// decimation-in-time butterflies with the permutation pass elided.
  void InverseBitrev(std::span<std::complex<double>> data) const;

  /// Pair-packed forward transform: two real signals per complex FFT.
  /// Packs `a + i*b` (each zero-padded to `size()` on the right; requires
  /// `a.size() <= size()` and `b.size() <= size()`) and runs one full-size
  /// ForwardBitrev, so `spectrum` holds `A + i B` mixed by conjugate
  /// symmetry, in bit-reversed bin order. `spectrum.size()` must equal
  /// `size()`. The packed spectrum never needs to be split (and its bin
  /// order never needs to be undone): any linear pointwise operation — in
  /// particular multiplying by the spectrum of a shared real signal, see
  /// MultiplyPairByRealSpectrum — commutes with the packing and is
  /// permutation-invariant, and InverseBitrev separates the two real
  /// results for free (real lane `a`, imaginary lane `b`).
  void RealForwardPair(std::span<const double> a, std::span<const double> b,
                       std::span<std::complex<double>> spectrum) const;

  /// Multiplies a pair-packed spectrum pointwise by the spectrum of a real
  /// signal in the same (bit-reversed, full `size()` bins) layout —
  /// obtained from RealForwardPair with an empty second signal. Because the
  /// multiplier is the spectrum of a *real* signal, the product is still
  /// the packed spectrum of `(conv_a) + i*(conv_b)`; because both operands
  /// share one permutation, the product is a straight elementwise sweep
  /// with no conjugate-mirror index arithmetic.
  void MultiplyPairByRealSpectrum(
      std::span<const std::complex<double>> real_spectrum,
      std::span<std::complex<double>> pair_spectrum) const;

  /// Non-destructive form of MultiplyPairByRealSpectrum: writes the
  /// elementwise product into `product`, leaving `pair_spectrum` untouched.
  /// The overlap-save convolution path multiplies one filter spectrum
  /// against many cached chunk spectra in turn, so the filter transform must
  /// survive every product. All three spans must have `size()` bins in the
  /// shared bit-reversed layout.
  void MultiplyPairByRealSpectrumInto(
      std::span<const std::complex<double>> real_spectrum,
      std::span<const std::complex<double>> pair_spectrum,
      std::span<std::complex<double>> product) const;

 private:
  std::size_t n_;
  /// twiddles_[j] = exp(-2*pi*i*j / n), j in [0, n/2). A butterfly pass of
  /// span `len` reads every (n/len)-th entry, so one table serves every
  /// stage.
  std::vector<std::complex<double>> twiddles_;
};

/// Process-wide plan registry: returns the cached plan for `n` (a power of
/// two), building it on first use. Thread-safe; the handle keeps the plan
/// alive independently of the registry. The registry holds one slot per
/// power of two, indexed by log2(n), and never evicts.
std::shared_ptr<const FftPlan> GetPlan(std::size_t n);

/// Cumulative process-wide registry traffic, maintained with relaxed
/// atomics (no extra cost on the GetPlan fast path beyond one fetch_add).
/// A `hit` is a GetPlan call served from the registry (including the
/// built-elsewhere-while-we-built race); a `miss` built a new plan.
struct PlanRegistryCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};
PlanRegistryCounters PlanRegistryCountersSnapshot();

}  // namespace valmod::fft

#endif  // VALMOD_FFT_PLAN_H_
