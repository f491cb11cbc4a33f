#include "fft/fft.h"

namespace valmod::fft {

std::size_t NextPowerOfTwo(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::size_t OverlapSaveFftSize(std::size_t filter_size) {
  const std::size_t four_m = NextPowerOfTwo(4 * filter_size);
  return four_m < 64 ? 64 : four_m;
}

}  // namespace valmod::fft
