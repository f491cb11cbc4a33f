#include "fft/fft.h"

#include <memory>
#include <string>

#include "fft/plan.h"

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

std::size_t OverlapSaveFftSize(std::size_t filter_size) {
  const std::size_t four_m = NextPowerOfTwo(4 * filter_size);
  return four_m < 64 ? 64 : four_m;
}

}  // namespace valmod::fft
