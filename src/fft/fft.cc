#include "fft/fft.h"

#include <cmath>
#include <utility>

#include "fft/plan.h"
#include "simd/dispatch.h"

namespace valmod::fft {

std::size_t NextPowerOfTwo(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

Status Transform(std::span<std::complex<double>> data, Direction direction) {
  const std::size_t n = data.size();
  if (!IsPowerOfTwo(n)) {
    return Status::InvalidArgument("FFT size must be a power of two, got " +
                                   std::to_string(n));
  }
  const std::shared_ptr<const FftPlan> plan = GetPlan(n);
  if (direction == Direction::kForward) {
    plan->Forward(data);
  } else {
    plan->Inverse(data);
  }
  return Status::Ok();
}

Result<std::vector<double>> Convolve(std::span<const double> a,
                                     std::span<const double> b) {
  if (a.empty() || b.empty()) {
    return Status::InvalidArgument("Convolve requires non-empty inputs");
  }
  const std::size_t out_size = a.size() + b.size() - 1;
  const std::size_t fft_size = NextPowerOfTwo(out_size);
  if (fft_size < 2) {
    return std::vector<double>{a[0] * b[0]};
  }

  // Both inputs are real, so the whole convolution runs on half spectra:
  // two packed forward transforms, a pointwise product (the product of two
  // conjugate-symmetric spectra stays conjugate-symmetric), one packed
  // inverse — each a complex transform of size fft_size / 2.
  const std::shared_ptr<const FftPlan> plan = GetPlan(fft_size);
  const std::size_t bins = plan->half_spectrum_size();
  std::vector<std::complex<double>> fa(bins), fb(bins);
  plan->RealForward(a, fa);
  plan->RealForward(b, fb);
  simd::ActiveKernels().complex_multiply(
      reinterpret_cast<const double*>(fa.data()),
      reinterpret_cast<const double*>(fb.data()),
      reinterpret_cast<double*>(fa.data()), bins);
  simd::NoteKernelCalls(simd::KernelKind::kComplexMultiply, 1);

  std::vector<double> padded(fft_size);
  plan->RealInverse(fa, padded);
  padded.resize(out_size);
  return padded;
}

std::size_t OverlapSaveFftSize(std::size_t filter_size) {
  const std::size_t four_m = NextPowerOfTwo(4 * filter_size);
  return four_m < 64 ? 64 : four_m;
}

Result<std::vector<double>> SlidingDotProducts(std::span<const double> series,
                                               std::span<const double> query) {
  const std::size_t n = series.size();
  const std::size_t m = query.size();
  if (m == 0 || n == 0) {
    return Status::InvalidArgument(
        "SlidingDotProducts requires non-empty inputs");
  }
  if (m > n) {
    return Status::InvalidArgument(
        "query length " + std::to_string(m) +
        " exceeds series length " + std::to_string(n));
  }

  // Convolving the series with the reversed query aligns position m-1+i of
  // the convolution with the dot product at offset i.
  std::vector<double> reversed(query.rbegin(), query.rend());
  VALMOD_ASSIGN_OR_RETURN(std::vector<double> conv,
                          Convolve(series, reversed));

  std::vector<double> out(n - m + 1);
  for (std::size_t i = 0; i + m <= n; ++i) out[i] = conv[m - 1 + i];
  return out;
}

}  // namespace valmod::fft
