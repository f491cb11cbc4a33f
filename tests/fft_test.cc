// Tests for the FFT engine's complex transform pair: the bit-reversed
// forward against a naive DFT, forward/inverse round trips, and Parseval's
// identity.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <memory>
#include <numbers>
#include <vector>

#include "common/rng.h"
#include "fft/fft.h"
#include "fft/plan.h"

namespace valmod::fft {
namespace {

/// The bin ForwardBitrev leaves at index `i` of an `n`-point spectrum.
std::size_t BitReversed(std::size_t i, std::size_t n) {
  std::size_t r = 0;
  for (std::size_t bit = 1; bit < n; bit <<= 1) {
    r = (r << 1) | ((i & bit) != 0 ? 1 : 0);
  }
  return r;
}

TEST(FftTest, NextPowerOfTwo) {
  EXPECT_EQ(NextPowerOfTwo(0), 1u);
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(2), 2u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(1024), 1024u);
  EXPECT_EQ(NextPowerOfTwo(1025), 2048u);
}

TEST(FftTest, RejectsNonPowerOfTwo) {
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_FALSE(IsPowerOfTwo(1023));
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(4096));
}

TEST(FftTest, SizeOneIsIdentity) {
  std::vector<std::complex<double>> data = {{3.0, -1.0}};
  GetPlan(1)->ForwardBitrev(data);
  EXPECT_DOUBLE_EQ(data[0].real(), 3.0);
  EXPECT_DOUBLE_EQ(data[0].imag(), -1.0);
  GetPlan(1)->InverseBitrev(data);
  EXPECT_DOUBLE_EQ(data[0].real(), 3.0);
  EXPECT_DOUBLE_EQ(data[0].imag(), -1.0);
}

TEST(FftTest, MatchesAnalyticDftOfImpulse) {
  // DFT of a unit impulse is all-ones, in any bin order.
  std::vector<std::complex<double>> data(8, {0.0, 0.0});
  data[0] = {1.0, 0.0};
  GetPlan(8)->ForwardBitrev(data);
  for (const auto& x : data) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(FftTest, MatchesNaiveDftAtBitReversedIndices) {
  for (const std::size_t n : {std::size_t{64}, std::size_t{128}}) {
    Rng rng(3 + n);
    std::vector<std::complex<double>> data(n);
    for (auto& x : data) x = {rng.Gaussian(), rng.Gaussian()};
    std::vector<std::complex<double>> expected(n);
    for (std::size_t k = 0; k < n; ++k) {
      std::complex<double> acc = 0.0;
      for (std::size_t t = 0; t < n; ++t) {
        const double angle = -2.0 * std::numbers::pi *
                             static_cast<double>(k * t) /
                             static_cast<double>(n);
        acc += data[t] * std::complex<double>(std::cos(angle),
                                              std::sin(angle));
      }
      expected[k] = acc;
    }
    GetPlan(n)->ForwardBitrev(data);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = BitReversed(i, n);
      EXPECT_NEAR(data[i].real(), expected[k].real(), 1e-9) << "n=" << n;
      EXPECT_NEAR(data[i].imag(), expected[k].imag(), 1e-9) << "n=" << n;
    }
  }
}

class FftRoundTripTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTripTest, ForwardInverseReproducesInput) {
  const std::size_t n = GetParam();
  Rng rng(n);
  std::vector<std::complex<double>> data(n);
  for (auto& x : data) x = {rng.Gaussian(), rng.Gaussian()};
  const std::vector<std::complex<double>> original = data;

  const std::shared_ptr<const FftPlan> plan = GetPlan(n);
  plan->ForwardBitrev(data);
  plan->InverseBitrev(data);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(data[i].real(), original[i].real(), 1e-9);
    EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-9);
  }
}

TEST_P(FftRoundTripTest, ParsevalHolds) {
  const std::size_t n = GetParam();
  Rng rng(n + 1);
  std::vector<std::complex<double>> data(n);
  double time_energy = 0.0;
  for (auto& x : data) {
    x = {rng.Gaussian(), rng.Gaussian()};
    time_energy += std::norm(x);
  }
  // The spectrum's energy does not depend on its bin order.
  GetPlan(n)->ForwardBitrev(data);
  double freq_energy = 0.0;
  for (const auto& x : data) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-7 * time_energy + 1e-9);
}

// Odd log2 sizes (2, 8, 32, 128, 2048) run the extra span-2 pass.
INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTripTest,
                         ::testing::Values(1, 2, 4, 8, 32, 128, 1024, 2048,
                                           4096));

}  // namespace
}  // namespace valmod::fft
