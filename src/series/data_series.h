#ifndef VALMOD_SERIES_DATA_SERIES_H_
#define VALMOD_SERIES_DATA_SERIES_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "stats/moving_stats.h"

namespace valmod::series {

/// Immutable data series (time series / sequence) with precomputed window
/// statistics.
///
/// Every algorithm in the library takes a `const DataSeries&`: the container
/// owns the raw values and a MovingStats instance so that means / standard
/// deviations of arbitrary windows are O(1) everywhere. Instances are
/// move-only (the stats arrays make copies expensive enough that they should
/// be explicit — use `Clone()`).
class DataSeries {
 public:
  /// Validates and wraps `values`. Fails on an empty vector or non-finite
  /// entries. Cost: O(n) to build prefix statistics.
  static Result<DataSeries> Create(std::vector<double> values);

  DataSeries(DataSeries&&) = default;
  DataSeries& operator=(DataSeries&&) = default;
  DataSeries(const DataSeries&) = delete;
  DataSeries& operator=(const DataSeries&) = delete;

  /// Explicit deep copy.
  DataSeries Clone() const;

  /// A new series holding the first `count` points (a "prefix snippet", the
  /// workload unit of the paper's scalability experiment, Figure 3 bottom).
  Result<DataSeries> Prefix(std::size_t count) const;

  std::size_t size() const { return values_.size(); }

  /// Raw values as provided at construction.
  std::span<const double> values() const { return values_; }

  /// Globally mean-centered values; the representation every distance kernel
  /// in this library operates on (z-normalized distances are invariant under
  /// the global shift, and centering conditions the prefix sums).
  std::span<const double> centered() const { return stats_.centered(); }

  /// O(1) window statistics.
  const stats::MovingStats& stats() const { return stats_; }

  /// Number of subsequences of `length`: `size() - length + 1`, or 0 when
  /// `length` is 0 or exceeds the series.
  std::size_t NumSubsequences(std::size_t length) const {
    if (length == 0 || length > values_.size()) return 0;
    return values_.size() - length + 1;
  }

  /// Copy of the raw subsequence starting at `offset` with `length` points.
  /// Fails when the window falls outside the series.
  Result<std::vector<double>> Subsequence(std::size_t offset,
                                          std::size_t length) const;

  /// Heap footprint: the raw values plus the stats arrays.
  std::size_t MemoryBytes() const {
    return values_.capacity() * sizeof(double) + stats_.MemoryBytes();
  }

 private:
  DataSeries(std::vector<double> values, stats::MovingStats stats)
      : values_(std::move(values)), stats_(std::move(stats)) {}

  std::vector<double> values_;
  stats::MovingStats stats_;
};

}  // namespace valmod::series

#endif  // VALMOD_SERIES_DATA_SERIES_H_
