#ifndef VALMOD_SERIES_ZNORM_H_
#define VALMOD_SERIES_ZNORM_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "series/data_series.h"
#include "simd/dispatch.h"
#include "stats/moving_stats.h"

namespace valmod::series {

/// -- Distance conventions ---------------------------------------------------
///
/// The z-normalized Euclidean distance between two windows of length `l` is
/// `d = sqrt(2 l (1 - rho))` with `rho` their Pearson correlation. Constant
/// windows z-normalize to the all-zeros vector, so:
///   * both windows constant      -> d = 0
///   * exactly one window constant-> d = sqrt(l)
/// These inline helpers are the single implementation of that math; MASS,
/// STOMP, the VALMOD update loop, and the baselines all call them so the
/// conventions cannot drift apart.

/// Dot product with the engine's canonical four-accumulator reduction,
/// runtime-dispatched to the best SIMD target (src/simd/dispatch.h). Every
/// target — scalar included — preserves the exact same partial-sum
/// grouping (lane j accumulates elements j, j+4, ...; tail into lane 0;
/// final sum (acc0 + acc1) + (acc2 + acc3)), so results are bit-identical
/// across targets. This is the kernel behind every direct distance
/// computation: STOMP diagonals, AB-joins, streaming updates, lower
/// bounds, and the direct sliding-dot backend.
inline double DotProduct(const double* a, const double* b, std::size_t n) {
  return simd::ActiveKernels().dot_product(a, b, n);
}

/// Pearson correlation from a *centered* dot product and *centered* window
/// means (see stats::MovingStats::centered()). Clamped to [-1, 1]. Both
/// standard deviations must be positive.
inline double CorrelationFromDot(double dot, double mean_a, double mean_b,
                                 double std_a, double std_b,
                                 std::size_t length) {
  const double l = static_cast<double>(length);
  const double cov = dot / l - mean_a * mean_b;
  const double rho = cov / (std_a * std_b);
  return std::clamp(rho, -1.0, 1.0);
}

/// z-normalized Euclidean distance from a correlation value.
inline double DistanceFromCorrelation(double rho, std::size_t length) {
  const double sq = 2.0 * static_cast<double>(length) * (1.0 - rho);
  return sq > 0.0 ? std::sqrt(sq) : 0.0;
}

/// Full pair distance with constant-window conventions applied.
/// `const_a` / `const_b` flag (numerically) constant windows, typically from
/// `std <= MovingStats::constant_std_threshold()`.
inline double PairDistanceFromDot(double dot, double mean_a, double mean_b,
                                  double std_a, double std_b,
                                  std::size_t length, bool const_a,
                                  bool const_b) {
  if (const_a || const_b) {
    if (const_a && const_b) return 0.0;
    return std::sqrt(static_cast<double>(length));
  }
  return DistanceFromCorrelation(
      CorrelationFromDot(dot, mean_a, mean_b, std_a, std_b, length), length);
}

/// The length-normalized distance used to rank motifs of different lengths
/// (paper §2, "Rank Motif Pairs of Variable Lengths"): `d * sqrt(1 / l)`.
inline double LengthNormalizedDistance(double distance, std::size_t length) {
  return distance * std::sqrt(1.0 / static_cast<double>(length));
}

/// -- Reference implementations (O(l), used by tests and small paths) -------

/// z-normalized copy of `window` under the library conventions (constant
/// windows map to all zeros). Fails on an empty window.
Result<std::vector<double>> ZNormalize(std::span<const double> window);

/// z-normalized Euclidean distance between two equal-length windows,
/// computed directly from definitions. Fails on empty or mismatched inputs.
Result<double> ZNormalizedDistance(std::span<const double> a,
                                   std::span<const double> b);

/// Reference pair distance between the windows of `series` starting at
/// `offset_a` / `offset_b` with `length` points. O(l); used as ground truth
/// in tests and for one-off evaluations (e.g. seeding baselines).
Result<double> SubsequenceDistance(const DataSeries& series,
                                   std::size_t offset_a, std::size_t offset_b,
                                   std::size_t length);

}  // namespace valmod::series

#endif  // VALMOD_SERIES_ZNORM_H_
