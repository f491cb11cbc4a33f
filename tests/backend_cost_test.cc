// The static backend-aware cost model (mass/backend.h): the chooser must
// pick the backend that actually measures cheapest, and it is a pure
// function of the shape and the weights it is given.

#include <gtest/gtest.h>

#include <cstddef>

#include "fft/fft.h"
#include "mass/backend.h"

namespace valmod::mass {
namespace {

struct GridCase {
  std::size_t series_n;
  std::size_t length;
  bool batched;
  ConvolutionBackend expected;
};

// Expected winners are the *measured* cheapest backends from the
// boundary_sweep rows of BENCH_engine.json (bench_mass_engine, batched
// single-threaded per-row timings; see the sweep summary in README /
// ROADMAP): overlap-save wins the whole short-length grid, direct survives
// only tiny problems, and the full-size FFT family keeps queries whose
// overlap-save chunk degenerates to the full transform.
TEST(BackendCostTest, ChoiceMatchesMeasuredWinnerOnBenchGrid) {
  const GridCase cases[] = {
      // Short windows on mid-size series: measured overlap-save speedups
      // over direct dots of 1.15x-4.5x, see boundary_sweep.
      {std::size_t{1} << 12, 64, true, ConvolutionBackend::kOverlapSave},
      {std::size_t{1} << 12, 128, true, ConvolutionBackend::kOverlapSave},
      {std::size_t{1} << 12, 256, true, ConvolutionBackend::kOverlapSave},
      {std::size_t{1} << 12, 512, true, ConvolutionBackend::kOverlapSave},
      {std::size_t{1} << 13, 64, true, ConvolutionBackend::kOverlapSave},
      {std::size_t{1} << 13, 128, true, ConvolutionBackend::kOverlapSave},
      {std::size_t{1} << 13, 256, true, ConvolutionBackend::kOverlapSave},
      {std::size_t{1} << 13, 512, true, ConvolutionBackend::kOverlapSave},
      {std::size_t{1} << 14, 64, true, ConvolutionBackend::kOverlapSave},
      {std::size_t{1} << 14, 128, true, ConvolutionBackend::kOverlapSave},
      {std::size_t{1} << 14, 256, true, ConvolutionBackend::kOverlapSave},
      {std::size_t{1} << 14, 512, true, ConvolutionBackend::kOverlapSave},
      // Tiny problems stay direct (measured 7.6us vs 10.0us per row).
      {600, 16, true, ConvolutionBackend::kDirect},
      {600, 16, false, ConvolutionBackend::kDirect},
      // Query a sizable fraction of the series: the chunk degenerates to
      // the full transform, so the full-size FFT family keeps it.
      {2048, 1024, true, ConvolutionBackend::kFftPair},
      {2048, 1024, false, ConvolutionBackend::kFftPair},
      // Long-series configurations from the PR 3 sweep stay overlap-save.
      {std::size_t{1} << 15, 1024, false, ConvolutionBackend::kOverlapSave},
      {std::size_t{1} << 17, 1024, true, ConvolutionBackend::kOverlapSave},
  };
  for (const GridCase& c : cases) {
    const std::size_t count = c.series_n - c.length + 1;
    EXPECT_EQ(ChooseConvolutionBackend(c.series_n, c.length, count,
                                       c.batched),
              c.expected)
        << "n=" << c.series_n << " length=" << c.length
        << " batched=" << c.batched;
  }
}

// The resolver must always land on a concrete backend, and on overlap-save
// only when its chunk is genuinely smaller than the full transform.
TEST(BackendCostTest, ResolvesToConcreteBackendEverywhere) {
  for (std::size_t n : {2u, 64u, 600u, 4096u, 100000u}) {
    for (std::size_t length : {1u, 2u, 16u, 100u, 512u}) {
      if (length >= n) continue;
      const std::size_t count = n - length + 1;
      for (bool batched : {false, true}) {
        const ConvolutionBackend b =
            ChooseConvolutionBackend(n, length, count, batched);
        EXPECT_NE(b, ConvolutionBackend::kAuto);
        if (b == ConvolutionBackend::kOverlapSave) {
          EXPECT_LT(fft::OverlapSaveFftSize(length),
                    fft::NextPowerOfTwo(n + length - 1))
              << "n=" << n << " length=" << length;
        }
      }
    }
  }
}

// Cost functions: sanity of the shapes the chooser compares. Direct scales
// with count * length; the overlap-save pipeline is cheaper per row inside
// a pair-packed batch; the degenerate-chunk case is the FFT family's.
TEST(BackendCostTest, CostFunctionShapes) {
  const BackendCostModel model;  // static fit
  EXPECT_DOUBLE_EQ(DirectSlidingDotsCost(model, 128, 1000),
                   model.direct * 128.0 * 1000.0);
  EXPECT_LT(OverlapSaveSlidingDotsCost(model, 128, 8065, /*pair=*/true),
            OverlapSaveSlidingDotsCost(model, 128, 8065, /*pair=*/false));
  EXPECT_LT(FftSlidingDotsCost(model, 8192, 128, /*pair=*/true),
            FftSlidingDotsCost(model, 8192, 128, /*pair=*/false));
  // Longer series, same length: overlap-save cost grows ~linearly (more
  // chunks), full-FFT cost jumps with the padded transform size.
  EXPECT_LT(OverlapSaveSlidingDotsCost(model, 128, 8065, true),
            OverlapSaveSlidingDotsCost(model, 128, 16257, true));
  EXPECT_LT(FftSlidingDotsCost(model, 8192, 128, true),
            FftSlidingDotsCost(model, 16384, 128, true));
}

// Passing other weights steers kAuto deterministically: a model that
// prices transforms at (effectively) infinity forces direct everywhere, one
// that prices them at zero never picks direct for multi-row work, and the
// default argument is the static fit.
TEST(BackendCostTest, InstalledModelSteersChoice) {
  const std::size_t n = std::size_t{1} << 17;
  BackendCostModel expensive_fft;
  expensive_fft.fft_single = 1e18;
  expensive_fft.fft_pair = 1e18;
  expensive_fft.overlap_save = 1e18;
  expensive_fft.overlap_save_chunk = 1e18;
  EXPECT_EQ(ChooseConvolutionBackend(n, 1024, n - 1023, true, expensive_fft),
            ConvolutionBackend::kDirect);

  BackendCostModel free_fft;
  free_fft.fft_single = 0.0;
  free_fft.fft_pair = 0.0;
  free_fft.overlap_save = 0.0;
  free_fft.overlap_save_chunk = 0.0;
  EXPECT_NE(ChooseConvolutionBackend(600, 16, 585, true, free_fft),
            ConvolutionBackend::kDirect);

  // Neither call left anything behind: the default is still the static fit.
  EXPECT_EQ(ChooseConvolutionBackend(n, 1024, n - 1023, true),
            ConvolutionBackend::kOverlapSave);
  EXPECT_EQ(ChooseConvolutionBackend(600, 16, 585, true),
            ConvolutionBackend::kDirect);
  EXPECT_EQ(ChooseConvolutionBackend(600, 16, 585, true, BackendCostModel{}),
            ChooseConvolutionBackend(600, 16, 585, true));
}

}  // namespace
}  // namespace valmod::mass
