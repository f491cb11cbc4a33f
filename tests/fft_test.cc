// Tests for the FFT engine's complex transform: correctness against a naive
// DFT, round trips, and Parseval's identity.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "common/rng.h"
#include "fft/fft.h"

namespace valmod::fft {
namespace {

TEST(FftTest, NextPowerOfTwo) {
  EXPECT_EQ(NextPowerOfTwo(0), 1u);
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(2), 2u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(1024), 1024u);
  EXPECT_EQ(NextPowerOfTwo(1025), 2048u);
}

TEST(FftTest, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> data(3);
  EXPECT_EQ(Transform(data, Direction::kForward).code(),
            StatusCode::kInvalidArgument);
}

TEST(FftTest, SizeOneIsIdentity) {
  std::vector<std::complex<double>> data = {{3.0, -1.0}};
  ASSERT_TRUE(Transform(data, Direction::kForward).ok());
  EXPECT_DOUBLE_EQ(data[0].real(), 3.0);
  EXPECT_DOUBLE_EQ(data[0].imag(), -1.0);
}

TEST(FftTest, MatchesAnalyticDftOfImpulse) {
  // DFT of a unit impulse is all-ones.
  std::vector<std::complex<double>> data(8, {0.0, 0.0});
  data[0] = {1.0, 0.0};
  ASSERT_TRUE(Transform(data, Direction::kForward).ok());
  for (const auto& x : data) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(FftTest, MatchesNaiveDft) {
  Rng rng(3);
  const std::size_t n = 64;
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
  ASSERT_TRUE(Transform(data, Direction::kForward).ok());
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(data[k].real(), expected[k].real(), 1e-9);
    EXPECT_NEAR(data[k].imag(), expected[k].imag(), 1e-9);
  }
}

class FftRoundTripTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTripTest, ForwardInverseReproducesInput) {
  const std::size_t n = GetParam();
  Rng rng(n);
  std::vector<std::complex<double>> data(n);
  for (auto& x : data) x = {rng.Gaussian(), rng.Gaussian()};
  const std::vector<std::complex<double>> original = data;

  ASSERT_TRUE(Transform(data, Direction::kForward).ok());
  ASSERT_TRUE(Transform(data, Direction::kInverse).ok());
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
  ASSERT_TRUE(Transform(data, Direction::kForward).ok());
  double freq_energy = 0.0;
  for (const auto& x : data) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-7 * time_energy + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTripTest,
                         ::testing::Values(1, 2, 4, 8, 32, 128, 1024, 4096));

}  // namespace
}  // namespace valmod::fft
