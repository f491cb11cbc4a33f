// The runtime SIMD dispatch layer (simd/dispatch.h): target parsing and
// selection, and — the load-bearing property — BIT-IDENTITY of every
// compiled-in vector target against the scalar oracle on each dispatched
// kernel family: FFT butterfly schedules, spectrum products, sliding dot
// products, and the moving mean/std sweep. The goldens are only valid
// under every VALMOD_SIMD target because of these tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "core/valmod.h"
#include "fft/fft.h"
#include "fft/plan.h"
#include "mass/backend.h"
#include "mass/engine.h"
#include "series/data_series.h"
#include "series/generators.h"
#include "series/znorm.h"
#include "simd/dispatch.h"
#include "stats/moving_stats.h"

namespace valmod {
namespace {

/// Every test forces dispatch targets; the fixture restores the entry
/// target so test order cannot leak a forced target into other suites of
/// this binary.
class SimdDispatchTest : public ::testing::Test {
 protected:
  void SetUp() override { entry_ = simd::ActiveTarget(); }
  void TearDown() override { ASSERT_TRUE(simd::SetTarget(entry_).ok()); }

  /// The non-scalar targets this build+machine can run. Empty on a
  /// generic machine — every bit-identity test then degenerates to
  /// scalar-vs-scalar, which keeps the suite green everywhere.
  static std::vector<simd::Target> VectorTargets() {
    std::vector<simd::Target> targets = simd::SupportedTargets();
    std::erase(targets, simd::Target::kScalar);
    return targets;
  }

  simd::Target entry_ = simd::Target::kScalar;
};

TEST_F(SimdDispatchTest, ParseTargetRoundTripsEveryName) {
  for (const simd::Target target :
       {simd::Target::kScalar, simd::Target::kAvx2, simd::Target::kNeon}) {
    auto parsed = simd::ParseTarget(simd::TargetName(target));
    ASSERT_TRUE(parsed.ok()) << simd::TargetName(target);
    EXPECT_EQ(*parsed, target);
  }
  EXPECT_FALSE(simd::ParseTarget("sse9").ok());
  EXPECT_FALSE(simd::ParseTarget("").ok());
  EXPECT_FALSE(simd::ParseTarget("AVX2").ok());  // names are lowercase
  // AVX-512 is not a dispatch target: it measured no faster than avx2.
  EXPECT_FALSE(simd::ParseTarget("avx512").ok());
}

TEST_F(SimdDispatchTest, SupportedTargetsIncludesScalarAndActive) {
  const std::vector<simd::Target> supported = simd::SupportedTargets();
  ASSERT_FALSE(supported.empty());
  EXPECT_NE(std::find(supported.begin(), supported.end(),
                      simd::Target::kScalar),
            supported.end());
  EXPECT_NE(std::find(supported.begin(), supported.end(),
                      simd::ActiveTarget()),
            supported.end());
  for (const simd::Target target : supported) {
    EXPECT_TRUE(simd::TargetCompiled(target));
    EXPECT_TRUE(simd::TargetSupported(target));
    EXPECT_TRUE(simd::SetTarget(target).ok());
    EXPECT_EQ(simd::ActiveTarget(), target);
  }
}

TEST_F(SimdDispatchTest, SetTargetRejectsUnsupportedTargets) {
  const std::vector<simd::Target> supported = simd::SupportedTargets();
  for (const simd::Target target : {simd::Target::kAvx2, simd::Target::kNeon}) {
    if (std::find(supported.begin(), supported.end(), target) !=
        supported.end()) {
      continue;
    }
    EXPECT_FALSE(simd::SetTarget(target).ok()) << simd::TargetName(target);
    // A failed SetTarget must leave the active target untouched.
    EXPECT_EQ(simd::ActiveTarget(), entry_);
  }
}

/// Runs `fn` with the dispatch target forced to `target`.
template <typename Fn>
void Under(simd::Target target, Fn&& fn) {
  ASSERT_TRUE(simd::SetTarget(target).ok());
  fn();
}

std::vector<std::complex<double>> RandomComplex(std::size_t n,
                                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::complex<double>> data(n);
  for (auto& x : data) x = {rng.Gaussian(), rng.Gaussian()};
  return data;
}

std::vector<double> RandomReal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> data(n);
  for (auto& x : data) x = rng.Gaussian();
  return data;
}

// Both the radix-2 pass (odd log2 sizes) and the fused radix-2^2 passes,
// in DIT and DIF schedules, forward and inverse, must be bit-identical to
// the scalar kernels — n = 1024 exercises the even-log2 all-radix-4
// schedule, n = 2048 the odd-log2 schedule with the extra span-2 pass.
TEST_F(SimdDispatchTest, TransformsBitIdenticalAcrossTargets) {
  for (const std::size_t n : {std::size_t{1024}, std::size_t{2048}}) {
    const std::vector<std::complex<double>> input = RandomComplex(n, n);
    const std::shared_ptr<const fft::FftPlan> plan = fft::GetPlan(n);

    std::vector<std::complex<double>> fwd, inv, fwd_bitrev, inv_bitrev;
    Under(simd::Target::kScalar, [&] {
      fwd = input;
      plan->Forward(fwd);
      inv = fwd;
      plan->Inverse(inv);
      fwd_bitrev = input;
      plan->ForwardBitrev(fwd_bitrev);
      inv_bitrev = fwd_bitrev;
      plan->InverseBitrev(inv_bitrev);
    });

    for (const simd::Target target : VectorTargets()) {
      SCOPED_TRACE(simd::TargetName(target));
      Under(target, [&] {
        std::vector<std::complex<double>> data = input;
        plan->Forward(data);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(data[i].real(), fwd[i].real()) << "n=" << n << " i=" << i;
          ASSERT_EQ(data[i].imag(), fwd[i].imag()) << "n=" << n << " i=" << i;
        }
        plan->Inverse(data);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(data[i].real(), inv[i].real()) << "n=" << n << " i=" << i;
          ASSERT_EQ(data[i].imag(), inv[i].imag()) << "n=" << n << " i=" << i;
        }
        data = input;
        plan->ForwardBitrev(data);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(data[i].real(), fwd_bitrev[i].real()) << "i=" << i;
          ASSERT_EQ(data[i].imag(), fwd_bitrev[i].imag()) << "i=" << i;
        }
        plan->InverseBitrev(data);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(data[i].real(), inv_bitrev[i].real()) << "i=" << i;
          ASSERT_EQ(data[i].imag(), inv_bitrev[i].imag()) << "i=" << i;
        }
      });
    }
  }
}

// The elementwise spectrum product behind every convolution path,
// including odd bin counts so the vector kernels' scalar tails run.
TEST_F(SimdDispatchTest, SpectrumProductsBitIdenticalAcrossTargets) {
  const std::size_t n = 512;
  const std::shared_ptr<const fft::FftPlan> plan = fft::GetPlan(n);
  const std::vector<double> a = RandomReal(n, 7);
  const std::vector<double> b = RandomReal(n, 8);
  const std::vector<double> filter_signal = RandomReal(n / 4, 9);

  std::vector<std::complex<double>> pair(n), filter(n), product(n);
  plan->RealForwardPair(a, b, pair);
  plan->RealForwardPair(filter_signal, {}, filter);

  std::vector<std::complex<double>> scalar_inplace, scalar_into;
  Under(simd::Target::kScalar, [&] {
    scalar_inplace = pair;
    plan->MultiplyPairByRealSpectrum(filter, scalar_inplace);
    scalar_into.resize(n);
    plan->MultiplyPairByRealSpectrumInto(filter, pair, scalar_into);
  });

  for (const simd::Target target : VectorTargets()) {
    SCOPED_TRACE(simd::TargetName(target));
    Under(target, [&] {
      std::vector<std::complex<double>> inplace = pair;
      plan->MultiplyPairByRealSpectrum(filter, inplace);
      std::vector<std::complex<double>> into(n);
      plan->MultiplyPairByRealSpectrumInto(filter, pair, into);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(inplace[i].real(), scalar_inplace[i].real()) << "i=" << i;
        ASSERT_EQ(inplace[i].imag(), scalar_inplace[i].imag()) << "i=" << i;
        ASSERT_EQ(into[i].real(), scalar_into[i].real()) << "i=" << i;
        ASSERT_EQ(into[i].imag(), scalar_into[i].imag()) << "i=" << i;
      }
      // Odd element counts through the raw kernel: the remainder lanes.
      for (const std::size_t count : {std::size_t{1}, std::size_t{3},
                                      std::size_t{5}, std::size_t{7}}) {
        std::vector<std::complex<double>> out(count), expect(count);
        simd::ActiveKernels().complex_multiply(
            reinterpret_cast<const double*>(pair.data()),
            reinterpret_cast<const double*>(filter.data()),
            reinterpret_cast<double*>(out.data()), count);
        const simd::Target prev = simd::ActiveTarget();
        ASSERT_TRUE(simd::SetTarget(simd::Target::kScalar).ok());
        simd::ActiveKernels().complex_multiply(
            reinterpret_cast<const double*>(pair.data()),
            reinterpret_cast<const double*>(filter.data()),
            reinterpret_cast<double*>(expect.data()), count);
        ASSERT_TRUE(simd::SetTarget(prev).ok());
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(out[i].real(), expect[i].real()) << "count=" << count;
          ASSERT_EQ(out[i].imag(), expect[i].imag()) << "count=" << count;
        }
      }
    });
  }
}

// The four-accumulator dot product: every length from the empty product
// through all remainder phases, plus a long vector.
TEST_F(SimdDispatchTest, DotProductBitIdenticalAcrossTargets) {
  const std::vector<double> a = RandomReal(1024, 21);
  const std::vector<double> b = RandomReal(1024, 22);

  for (const simd::Target target : VectorTargets()) {
    SCOPED_TRACE(simd::TargetName(target));
    for (std::size_t n = 0; n <= 40; ++n) {
      double scalar = 0.0, vec = 0.0;
      Under(simd::Target::kScalar,
            [&] { scalar = series::DotProduct(a.data(), b.data(), n); });
      Under(target, [&] { vec = series::DotProduct(a.data(), b.data(), n); });
      ASSERT_EQ(vec, scalar) << "n=" << n;
    }
    double scalar = 0.0, vec = 0.0;
    Under(simd::Target::kScalar,
          [&] { scalar = series::DotProduct(a.data(), b.data(), a.size()); });
    Under(target,
          [&] { vec = series::DotProduct(a.data(), b.data(), a.size()); });
    ASSERT_EQ(vec, scalar);
  }
}

// The moving mean/std sweep, including length 1 (the scalar special case:
// variance is exactly zero) and a constant window region (the clamp and
// sqrt(-0.0-free) path).
TEST_F(SimdDispatchTest, WindowStatsBitIdenticalAcrossTargets) {
  std::vector<double> data = RandomReal(1000, 33);
  std::fill(data.begin() + 200, data.begin() + 300, 4.25);  // constant run
  auto stats = stats::MovingStats::Create(data);
  ASSERT_TRUE(stats.ok());

  for (const std::size_t length :
       {std::size_t{1}, std::size_t{2}, std::size_t{64}, std::size_t{97}}) {
    std::vector<double> scalar_means, scalar_stds;
    Under(simd::Target::kScalar, [&] {
      ASSERT_TRUE(stats->WindowStats(length, &scalar_means, &scalar_stds)
                      .ok());
    });
    for (const simd::Target target : VectorTargets()) {
      SCOPED_TRACE(simd::TargetName(target));
      Under(target, [&] {
        std::vector<double> means, stds;
        ASSERT_TRUE(stats->WindowStats(length, &means, &stds).ok());
        ASSERT_EQ(means.size(), scalar_means.size());
        for (std::size_t i = 0; i < means.size(); ++i) {
          ASSERT_EQ(means[i], scalar_means[i]) << "length=" << length
                                               << " i=" << i;
          ASSERT_EQ(stds[i], scalar_stds[i]) << "length=" << length
                                             << " i=" << i;
        }
      });
    }
  }
}

// End-to-end: every convolution backend produces bit-identical row
// profiles under every target. length = 100 gives the overlap-save path a
// 512-point chunk and ~10 chunk boundaries over this series.
TEST_F(SimdDispatchTest, EngineBackendsBitIdenticalAcrossTargets) {
  auto series = synth::ByName("ecg", 4096, 17);
  ASSERT_TRUE(series.ok());
  const std::size_t length = 100;
  const std::vector<std::size_t> rows = {0, 511, 512, 1000, 2048, 3996};

  for (const mass::ConvolutionBackend backend :
       {mass::ConvolutionBackend::kDirect,
        mass::ConvolutionBackend::kFftPair,
        mass::ConvolutionBackend::kOverlapSave}) {
    SCOPED_TRACE(mass::ConvolutionBackendName(backend));
    std::vector<mass::RowProfile> scalar_profiles;
    Under(simd::Target::kScalar, [&] {
      mass::MassEngine engine(*series);
      auto result = engine.ComputeRowProfiles(rows, length, 1, backend);
      ASSERT_TRUE(result.ok());
      scalar_profiles = std::move(*result);
    });

    for (const simd::Target target : VectorTargets()) {
      SCOPED_TRACE(simd::TargetName(target));
      Under(target, [&] {
        mass::MassEngine engine(*series);
        auto result = engine.ComputeRowProfiles(rows, length, 1, backend);
        ASSERT_TRUE(result.ok());
        ASSERT_EQ(result->size(), scalar_profiles.size());
        for (std::size_t r = 0; r < result->size(); ++r) {
          const auto& got = (*result)[r].distances;
          const auto& expect = scalar_profiles[r].distances;
          ASSERT_EQ(got.size(), expect.size());
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], expect[i]) << "row=" << rows[r] << " i=" << i;
          }
        }
      });
    }
  }
}

// The ctest-level claim behind the goldens: full VALMOD motif output is
// bit-identical across dispatch targets. The random walk at long lengths
// recomputes thousands of rows, most derived from cached dot rows, so the
// row re-seed kernel decides its output.
TEST_F(SimdDispatchTest, MotifOutputBitIdenticalAcrossTargets) {
  struct Case {
    const char* generator;
    std::size_t n, lmin, lmax, k, p;
  };
  for (const Case& c : {Case{"ecg", 2000, 50, 60, 3, 10},
                        Case{"random_walk", 1024, 200, 215, 3, 5}}) {
    SCOPED_TRACE(c.generator);
    auto series = synth::ByName(c.generator, c.n, 3);
    ASSERT_TRUE(series.ok());
    core::ValmodOptions options;
    options.min_length = c.lmin;
    options.max_length = c.lmax;
    options.k = c.k;
    options.p = c.p;

    Result<core::ValmodResult> scalar_result = Status::Internal("not run");
    Under(simd::Target::kScalar,
          [&] { scalar_result = core::RunValmod(*series, options); });
    ASSERT_TRUE(scalar_result.ok());

    for (const simd::Target target : VectorTargets()) {
      SCOPED_TRACE(simd::TargetName(target));
      Under(target, [&] {
        auto result = core::RunValmod(*series, options);
        ASSERT_TRUE(result.ok());
        ASSERT_EQ(result->per_length.size(),
                  scalar_result->per_length.size());
        for (std::size_t l = 0; l < result->per_length.size(); ++l) {
          const auto& got = result->per_length[l];
          const auto& expect = scalar_result->per_length[l];
          ASSERT_EQ(got.length, expect.length);
          ASSERT_EQ(got.motifs.size(), expect.motifs.size());
          for (std::size_t m = 0; m < got.motifs.size(); ++m) {
            EXPECT_EQ(got.motifs[m].offset_a, expect.motifs[m].offset_a);
            EXPECT_EQ(got.motifs[m].offset_b, expect.motifs[m].offset_b);
            EXPECT_EQ(got.motifs[m].distance, expect.motifs[m].distance);
            EXPECT_EQ(got.motifs[m].normalized_distance,
                      expect.motifs[m].normalized_distance);
          }
        }
      });
    }
  }
}

}  // namespace
}  // namespace valmod
