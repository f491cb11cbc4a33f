#ifndef VALMOD_CORE_LOWER_BOUND_H_
#define VALMOD_CORE_LOWER_BOUND_H_

#include <cmath>
#include <cstddef>

#include "common/result.h"
#include "series/data_series.h"

namespace valmod::core {

/// VALMOD's cross-length lower bound.
///
/// For subsequences of a series starting at offsets i and j, with Pearson
/// correlation `rho` at base length `l`, the z-normalized distance at any
/// longer length `L = l + k` satisfies
///
///   d_{i,j}(L) >= (sigma_i(l) / sigma_i(L)) * base,
///   base = sqrt(l * (1 - rho^2))  when rho > 0,
///          sqrt(l)                otherwise.
///
/// Derivation sketch: drop the trailing L - l terms of the squared distance,
/// then minimize the retained head over *all* affine renormalizations of
/// window j (the continuation of j is unknown); the minimum is the residual
/// of regressing the head of the L-normalized window i on the z-normalized
/// window j and a constant, which evaluates to the expression above.
///
/// Two properties drive the VALMOD algorithm and are property-tested:
///  * admissibility: LB <= true distance, always;
///  * rank invariance: the sigma ratio is shared by every j in row i, so
///    ordering candidates by `base` is preserved across all target lengths.

/// The length-independent factor of the bound ("base LB"). `rho` must be in
/// [-1, 1]; base_length >= 1.
inline double BaseLowerBound(double rho, std::size_t base_length) {
  const double l = static_cast<double>(base_length);
  if (rho <= 0.0) return std::sqrt(l);
  const double residual = l * (1.0 - rho * rho);
  return residual > 0.0 ? std::sqrt(residual) : 0.0;
}

/// Scales a base LB to a target length via the row subsequence's standard
/// deviations at base and target lengths.
///
/// Safety fallbacks (both keep the bound admissible):
///  * sigma_base <= 0 — the row window was constant at the base length, the
///    regression residual is 0, so the only valid bound is 0;
///  * sigma_target <= 0 — the row window is constant at the target length;
///    true distances collapse to 0 or sqrt(L), so again return 0.
inline double ScaledLowerBound(double base_lb, double sigma_base,
                               double sigma_target) {
  if (sigma_base <= 0.0 || sigma_target <= 0.0) return 0.0;
  return base_lb * (sigma_base / sigma_target);
}

/// Reference implementation for tests: the full lower bound for the pair of
/// subsequences of `series` at `offset_a` (the "row", whose sigmas appear in
/// the bound) and `offset_b`, from `base_length` to `target_length`.
/// Requires base_length <= target_length and both windows in range at the
/// target length.
Result<double> PairLowerBound(const series::DataSeries& series,
                              std::size_t offset_a, std::size_t offset_b,
                              std::size_t base_length,
                              std::size_t target_length);

}  // namespace valmod::core

#endif  // VALMOD_CORE_LOWER_BOUND_H_
