// Tests for the plan-caching FFT layer: table-twiddle accuracy against a
// direct DFT (the regression guard for the old error-accumulating
// `w *= wlen` recurrence), the pair-packed real-input path, and the
// per-size plan registry.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "common/rng.h"
#include "fft/fft.h"
#include "fft/plan.h"

namespace valmod::fft {
namespace {

/// Direct O(n^2) DFT with table-based twiddles (index j*k mod n), accurate
/// to ~sqrt(n) rounding: the ground truth for transform accuracy.
std::vector<std::complex<double>> DirectDft(
    const std::vector<std::complex<double>>& input) {
  const std::size_t n = input.size();
  std::vector<std::complex<double>> roots(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double angle = -2.0 * std::numbers::pi * static_cast<double>(j) /
                         static_cast<double>(n);
    roots[j] = {std::cos(angle), std::sin(angle)};
  }
  std::vector<std::complex<double>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      acc += input[t] * roots[(k * t) % n];
    }
    out[k] = acc;
  }
  return out;
}

class PlanDftAccuracyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlanDftAccuracyTest, TransformMatchesDirectDft) {
  const std::size_t n = GetParam();
  Rng rng(n + 5);
  std::vector<std::complex<double>> data(n);
  for (auto& x : data) x = {rng.Gaussian(), rng.Gaussian()};
  const std::vector<std::complex<double>> expected = DirectDft(data);

  ASSERT_TRUE(Transform(data, Direction::kForward).ok());
  // Transform values are O(sqrt(n)); 1e-8 leaves two orders of margin over
  // the direct DFT's own rounding at 2^14 while catching any twiddle drift
  // (the old recurrence drifted well past this at large sizes).
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(data[k].real(), expected[k].real(), 1e-8) << "n=" << n
                                                          << " k=" << k;
    EXPECT_NEAR(data[k].imag(), expected[k].imag(), 1e-8) << "n=" << n
                                                          << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(SizesUpTo2p14, PlanDftAccuracyTest,
                         ::testing::Values(2, 8, 64, 512, 4096, 16384));

/// Naive O(n*m) linear convolution, `out[k] = sum_i a[i] b[k-i]`: the
/// ground truth for the pair pipeline's convolutions.
std::vector<double> NaiveConvolution(const std::vector<double>& a,
                                     const std::vector<double>& b) {
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) out[i + j] += a[i] * b[j];
  }
  return out;
}

class PairPathTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PairPathTest, PairRoundTripReproducesBothInputs) {
  const std::size_t n = GetParam();
  Rng rng(n + 37);
  // Different lengths exercise the per-lane zero padding.
  std::vector<double> a(n - n / 4), b(n / 2 + 1);
  for (auto& x : a) x = rng.Gaussian();
  for (auto& x : b) x = rng.Gaussian();

  const auto plan = GetPlan(n);
  std::vector<std::complex<double>> spectrum(n);
  plan->RealForwardPair(a, b, spectrum);
  std::vector<double> out_a(n), out_b(n);
  plan->RealInversePair(spectrum, out_a, out_b);

  for (std::size_t i = 0; i < n; ++i) {
    const double ea = i < a.size() ? a[i] : 0.0;
    const double eb = i < b.size() ? b[i] : 0.0;
    EXPECT_NEAR(out_a[i], ea, 1e-10) << "n=" << n << " i=" << i;
    EXPECT_NEAR(out_b[i], eb, 1e-10) << "n=" << n << " i=" << i;
  }
}

TEST_P(PairPathTest, PairConvolutionMatchesNaiveConvolutions) {
  // The full pair pipeline — pack two queries, one forward, elementwise
  // product with a shared real signal's spectrum, one inverse — must agree
  // with two naive O(n*m) convolutions to ~1e-9 relative.
  const std::size_t n = GetParam();
  Rng rng(n + 53);
  const std::size_t signal_len = n / 2;  // conv of two n/2 signals fits in n
  std::vector<double> shared(signal_len), qa(signal_len / 2 + 1),
      qb(signal_len / 3 + 1);
  for (auto& x : shared) x = rng.Gaussian();
  for (auto& x : qa) x = rng.Gaussian();
  for (auto& x : qb) x = rng.Gaussian();

  const auto plan = GetPlan(n);
  std::vector<std::complex<double>> shared_spectrum(n);
  plan->RealForwardPair(shared, {}, shared_spectrum);
  std::vector<std::complex<double>> pair(n);
  plan->RealForwardPair(qa, qb, pair);
  plan->MultiplyPairByRealSpectrum(shared_spectrum, pair);
  std::vector<double> conv_a(n), conv_b(n);
  plan->RealInversePair(pair, conv_a, conv_b);

  const std::vector<double> ref_a = NaiveConvolution(shared, qa);
  const std::vector<double> ref_b = NaiveConvolution(shared, qb);
  for (std::size_t i = 0; i < ref_a.size(); ++i) {
    EXPECT_NEAR(conv_a[i], ref_a[i], 1e-9 * (1.0 + std::abs(ref_a[i])))
        << "n=" << n << " i=" << i;
  }
  for (std::size_t i = 0; i < ref_b.size(); ++i) {
    EXPECT_NEAR(conv_b[i], ref_b[i], 1e-9 * (1.0 + std::abs(ref_b[i])))
        << "n=" << n << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PairPathTest,
                         ::testing::Values(2, 4, 8, 32, 256, 1024, 8192));

TEST(PlanRegistryTest, CachesOnePlanPerSize) {
  const auto a = GetPlan(2048);
  const auto b = GetPlan(2048);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->size(), 2048u);
  EXPECT_NE(a.get(), GetPlan(4096).get());
}

TEST(PlanRegistryTest, HandleOutlivesRegistryLookups) {
  const auto plan = GetPlan(16);
  std::vector<std::complex<double>> data(16, {1.0, 0.0});
  plan->Forward(data);
  EXPECT_NEAR(data[0].real(), 16.0, 1e-12);
}

TEST(PlanRegistryTest, BoundedWithLruEviction) {
  // Exercising eviction at the production capacity would need plans of
  // astronomical sizes (one distinct power of two per slot), so shrink the
  // cap, observe, restore.
  const std::size_t saved = SetPlanRegistryCapacityForTesting(4);

  // Flush whatever earlier tests cached: touching four known sizes leaves
  // the registry holding exactly those four, regardless of prior state.
  (void)GetPlan(1024);
  (void)GetPlan(512);
  (void)GetPlan(256);
  (void)GetPlan(128);

  // Four new sizes replace them: the LRU is now exactly 16, 8, 4, 2.
  const auto plan2 = GetPlan(2);
  (void)GetPlan(4);
  (void)GetPlan(8);
  (void)GetPlan(16);
  EXPECT_EQ(PlanRegistrySizeForTesting(), 4u);

  // A fifth size evicts the least recently used entry (2).
  const auto plan32 = GetPlan(32);
  EXPECT_EQ(PlanRegistrySizeForTesting(), 4u);

  // The evicted size is rebuilt on demand as a distinct object; the old
  // handle keeps working independently of the registry.
  const auto plan2_again = GetPlan(2);
  EXPECT_NE(plan2.get(), plan2_again.get());
  EXPECT_EQ(plan2->size(), 2u);
  EXPECT_EQ(plan2_again->size(), 2u);

  // Re-requesting a retained size is still a cache hit.
  EXPECT_EQ(plan32.get(), GetPlan(32).get());

  SetPlanRegistryCapacityForTesting(saved);
}

TEST(PlanRegistryTest, EvictedPlanStillTransforms) {
  const std::size_t saved = SetPlanRegistryCapacityForTesting(2);
  const auto plan64 = GetPlan(64);
  // Flush the registry completely.
  (void)GetPlan(128);
  (void)GetPlan(256);
  // The held handle owns its tables, so it keeps transforming after the
  // registry dropped its reference.
  std::vector<double> input(64, 1.0);
  std::vector<std::complex<double>> spectrum(64);
  plan64->RealForwardPair(input, {}, spectrum);
  // Bit-reversed order puts DC at index 0 and bin 32 at index 1.
  EXPECT_NEAR(spectrum[0].real(), 64.0, 1e-12);
  EXPECT_NEAR(spectrum[1].real(), 0.0, 1e-12);
  SetPlanRegistryCapacityForTesting(saved);
}

}  // namespace
}  // namespace valmod::fft
