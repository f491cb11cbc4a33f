#ifndef VALMOD_FFT_FFT_H_
#define VALMOD_FFT_FFT_H_

#include <cstddef>

namespace valmod::fft {

/// Smallest power of two >= n (n = 0 maps to 1).
std::size_t NextPowerOfTwo(std::size_t n);

/// Chunk FFT size used by the overlap-save convolution paths for a filter of
/// `filter_size` points: the smallest power of two >= 4 * filter_size, with
/// a floor of 64. ~4x the filter keeps at least half of every chunk as
/// fresh (alias-free) output while the per-chunk transforms stay small
/// enough to be cache resident; the floor stops tiny filters from
/// fragmenting the signal into thousands of micro-chunks.
std::size_t OverlapSaveFftSize(std::size_t filter_size);

}  // namespace valmod::fft

#endif  // VALMOD_FFT_FFT_H_
