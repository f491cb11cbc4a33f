#ifndef VALMOD_MASS_MASS_H_
#define VALMOD_MASS_MASS_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "series/data_series.h"

namespace valmod::mass {

/// A full distance-profile row for a subsequence of the series: both the
/// centered sliding dot products and the z-normalized distances.
///
/// VALMOD consumes the dot products, not just the distances: when a row is
/// recomputed at a longer length, its partial distance profile is re-seeded
/// from these dots so they can keep being updated incrementally (one
/// multiply-add per further length).
struct RowProfile {
  /// `dots[j] = sum_t centered[i + t] * centered[j + t]`, t in [0, length).
  std::vector<double> dots;
  /// z-normalized distance between subsequences i and j (conventions of
  /// series/znorm.h); no exclusion zone applied.
  std::vector<double> distances;
};

/// MASS (Mueen's Algorithm for Similarity Search), self-join form: distance
/// profile of the subsequence of `series` at `query_offset` with `length`
/// points against every subsequence of the same series. O(n log n).
///
/// Thin wrapper over a throwaway `MassEngine` (see mass/engine.h), so the
/// kernels exist exactly once; callers issuing more than one query against
/// the same series should hold an engine instead to reuse its cached series
/// spectrum.
Result<RowProfile> ComputeRowProfile(const series::DataSeries& series,
                                     std::size_t query_offset,
                                     std::size_t length);

/// MASS against an external query: z-normalized distances between `query`
/// and every subsequence of `series` of `query.size()` points. O(n log n).
/// Thin wrapper over a throwaway `MassEngine`, like ComputeRowProfile.
Result<std::vector<double>> DistanceProfile(const series::DataSeries& series,
                                            std::span<const double> query);

/// O(n * l) reference implementation of DistanceProfile, used to validate
/// the FFT path in tests and as a dependency-free fallback for tiny inputs.
Result<std::vector<double>> BruteDistanceProfile(
    const series::DataSeries& series, std::span<const double> query);

/// Overwrites `(*distances)[j]` with +infinity for all j with
/// `|j - center| < exclusion`, the standard trivial-match mask.
void ApplyExclusionZone(std::vector<double>* distances, std::size_t center,
                        std::size_t exclusion);

/// -- Shared kernels (used by ComputeRowProfile and mass::MassEngine) -------

/// Validates that `[offset, offset + length)` is a window of `series`.
Status ValidateWindow(const series::DataSeries& series, std::size_t offset,
                      std::size_t length);

/// An external query centered by its own mean, plus the statistics the
/// distance kernel needs (with the centering, the correlation kernel
/// applies with mean_q = 0).
struct CenteredQuery {
  std::vector<double> values;
  double std_dev = 0.0;
  bool constant = false;
};

/// Centers `query` by its mean. Fails on an empty query.
Result<CenteredQuery> CenterQuery(std::span<const double> query);

/// Fills `distances` with the z-normalized distances of a centered external
/// query (std `query_std`, constancy `query_constant`) against every window
/// of `series`, given the query's sliding dot products.
void DistancesFromExternalQueryDots(const series::DataSeries& series,
                                    double query_std, bool query_constant,
                                    std::size_t length,
                                    std::span<const double> dots,
                                    std::vector<double>* distances);

/// Direct O(count * length) sliding dot products over the centered series;
/// the short-window fallback of the row-profile paths (for short windows it
/// beats the FFT path by a wide margin, and the VALMOD recompute loop calls
/// it at high frequency).
std::vector<double> DirectSlidingDots(std::span<const double> centered,
                                      std::size_t query_offset,
                                      std::size_t length, std::size_t count);

/// Direct sliding dot products of an external centered query against the
/// centered series; the short-query fallback of the distance-profile paths.
std::vector<double> DirectExternalSlidingDots(
    std::span<const double> centered_series,
    std::span<const double> centered_query, std::size_t count);

/// Fills `distances` (resized to `dots.size()`) with the z-normalized pair
/// distances of the window at `query_offset` against every window, given
/// the centered sliding dot products of that row.
void DistancesFromDots(const series::DataSeries& series,
                       std::size_t query_offset, std::size_t length,
                       std::span<const double> dots,
                       std::vector<double>* distances);

}  // namespace valmod::mass

#endif  // VALMOD_MASS_MASS_H_
