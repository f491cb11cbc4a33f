#ifndef VALMOD_STATS_MOVING_STATS_H_
#define VALMOD_STATS_MOVING_STATS_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace valmod::stats {

/// Base variance threshold below which a window is treated as constant; the
/// effective threshold scales with the global variance of the series (see
/// MovingStats::constant_variance_threshold()).
///
/// Constant (zero-variance) windows cannot be z-normalized; the library's
/// convention (see the distance conventions in series/znorm.h) z-normalizes
/// them to the all-zeros vector.
inline constexpr double kConstantVarianceEpsilon = 1e-12;

/// Precomputed prefix sums giving O(1) mean / variance / standard deviation
/// of any window `(offset, length)` of a data series.
///
/// VALMOD queries window statistics for *every* subsequence at *every* length
/// in the range, so these must be both O(1) and numerically robust. To keep
/// the sum-of-squares well conditioned for series with large level offsets or
/// random-walk drift, accumulation happens on globally mean-centered values
/// (z-normalized distances are invariant under a global shift); `Mean()` adds
/// the shift back, `Variance()` needs no correction.
class MovingStats {
 public:
  /// Builds prefix sums over `data`. Fails on empty input or non-finite
  /// values.
  static Result<MovingStats> Create(std::span<const double> data);

  /// Number of points in the underlying series.
  std::size_t size() const { return n_; }

  /// Mean of the window starting at `offset` with `length` points.
  /// Preconditions (checked with assert in debug builds only, for speed):
  /// `length >= 1`, `offset + length <= size()`.
  double Mean(std::size_t offset, std::size_t length) const;

  /// Mean of the window in the centered representation (i.e. `Mean() -
  /// global_mean()`). Kernels that combine window means with dot products of
  /// `centered()` values must use this accessor so both sides agree.
  double CenteredMean(std::size_t offset, std::size_t length) const;

  /// Population variance (divide by length) of the window, clamped at 0.
  double Variance(std::size_t offset, std::size_t length) const;

  /// Population standard deviation of the window.
  double StdDev(std::size_t offset, std::size_t length) const;

  /// True when the window is (numerically) constant; such windows
  /// z-normalize to all zeros by library convention.
  bool IsConstant(std::size_t offset, std::size_t length) const {
    return Variance(offset, length) <= constant_variance_threshold_;
  }

  /// Effective constant-window variance threshold:
  /// `kConstantVarianceEpsilon * max(1, variance of the whole series)`, so
  /// the classification is invariant under rescaling of well-scaled data.
  double constant_variance_threshold() const {
    return constant_variance_threshold_;
  }

  /// Standard-deviation form of the same threshold, for kernels that work on
  /// bulk std-dev arrays.
  double constant_std_threshold() const { return constant_std_threshold_; }

  /// Fills `means` and `std_devs` (resized to `size() - length + 1`) with the
  /// statistics of every window of `length`; the bulk interface used by
  /// STOMP/MASS inner loops. Fails if `length` is 0 or exceeds the series.
  Status WindowStats(std::size_t length, std::vector<double>* means,
                     std::vector<double>* std_devs) const;

  /// Same as WindowStats but with means in the centered representation,
  /// bit-identical to CenteredMean(); this is the variant the distance
  /// kernels consume.
  Status CenteredWindowStats(std::size_t length, std::vector<double>* means,
                             std::vector<double>* std_devs) const;

  /// The globally mean-centered copy of the input; shares indexing with it.
  /// Dot products of centered windows are *not* the same as dot products of
  /// raw windows — callers combining dot products with these stats must use
  /// the same representation on both sides (everything inside this library
  /// uses the centered values, see `series::DataSeries::centered()`).
  std::span<const double> centered() const { return centered_; }

  /// The global mean subtracted from the input during construction.
  double global_mean() const { return global_mean_; }

  /// Heap footprint of the stats arrays (centered copy + two prefix sums).
  std::size_t MemoryBytes() const {
    return (centered_.capacity() + prefix_.capacity() +
            prefix_sq_.capacity()) *
           sizeof(double);
  }

 private:
  MovingStats() = default;

  /// The WindowStats sweep with `mean_shift` added to every centered mean.
  Status SweepWindowStats(std::size_t length, double mean_shift,
                          std::vector<double>* means,
                          std::vector<double>* std_devs) const;

  std::size_t n_ = 0;
  double global_mean_ = 0.0;
  double constant_variance_threshold_ = kConstantVarianceEpsilon;
  double constant_std_threshold_ = 0.0;
  std::vector<double> centered_;      // data - global_mean
  std::vector<double> prefix_;        // prefix_[i] = sum of centered_[0..i)
  std::vector<double> prefix_sq_;     // prefix sums of squares
};

}  // namespace valmod::stats

#endif  // VALMOD_STATS_MOVING_STATS_H_
