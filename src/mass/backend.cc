#include "mass/backend.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "fft/fft.h"

namespace valmod::mass {

namespace {

double ButterflyUnits(std::size_t fft_size) {
  return static_cast<double>(fft_size) *
         std::log2(static_cast<double>(std::max<std::size_t>(2, fft_size)));
}

}  // namespace

const char* ConvolutionBackendName(ConvolutionBackend backend) {
  switch (backend) {
    case ConvolutionBackend::kAuto:
      return "auto";
    case ConvolutionBackend::kDirect:
      return "direct";
    case ConvolutionBackend::kFftPair:
      return "fft_pair";
    case ConvolutionBackend::kOverlapSave:
      return "overlap_save";
  }
  return "unknown";
}

double DirectSlidingDotsCost(const BackendCostModel& model, std::size_t length,
                             std::size_t count) {
  return model.direct * static_cast<double>(count) *
         static_cast<double>(length);
}

double FftSlidingDotsCost(const BackendCostModel& model,
                          std::size_t series_size, std::size_t length,
                          bool pair) {
  const std::size_t fft_size =
      fft::NextPowerOfTwo(series_size + length - 1);
  const double weight = pair ? model.fft_pair : model.fft_single;
  return weight * ButterflyUnits(fft_size);
}

double OverlapSaveSlidingDotsCost(const BackendCostModel& model,
                                  std::size_t length, std::size_t count,
                                  bool pair) {
  const std::size_t chunk_size = fft::OverlapSaveFftSize(length);
  const std::size_t hop = chunk_size / 2;
  const double chunks =
      static_cast<double>((count + hop - 1) / std::max<std::size_t>(1, hop));
  // One filter transform plus one inverse per chunk, plus the O(C) product
  // and unload sweep per chunk. The chunk spectra themselves are cached per
  // (series, chunk size) in MassEngine and reused by every row at that
  // size, so their construction is not part of the per-row price.
  const double pipeline =
      model.overlap_save * ButterflyUnits(chunk_size) * (1.0 + chunks) +
      model.overlap_save_chunk * static_cast<double>(chunk_size) * chunks;
  // A pair-packed batch pushes two rows through one pipeline pass.
  return pair ? pipeline / 2.0 : pipeline;
}

ConvolutionBackend ChooseConvolutionBackend(std::size_t series_size,
                                            std::size_t length,
                                            std::size_t count, bool batched,
                                            const BackendCostModel& model) {
  const std::size_t full_size =
      fft::NextPowerOfTwo(series_size + length - 1);
  const std::size_t chunk_size = fft::OverlapSaveFftSize(length);

  const double direct_cost = DirectSlidingDotsCost(model, length, count);
  const double fft_cost =
      FftSlidingDotsCost(model, series_size, length, batched);
  // When the chunk is not smaller than the full transform, chunking
  // degenerates to one full-size block plus overhead; the full-size path
  // strictly dominates, so overlap-save leaves the auction.
  const double ols_cost =
      chunk_size < full_size
          ? OverlapSaveSlidingDotsCost(model, length, count, batched)
          : std::numeric_limits<double>::infinity();

  if (direct_cost <= fft_cost && direct_cost <= ols_cost) {
    return ConvolutionBackend::kDirect;
  }
  if (ols_cost < fft_cost) {
    return ConvolutionBackend::kOverlapSave;
  }
  return ConvolutionBackend::kFftPair;
}

}  // namespace valmod::mass
