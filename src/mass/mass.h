#ifndef VALMOD_MASS_MASS_H_
#define VALMOD_MASS_MASS_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "series/data_series.h"

namespace valmod::mass {

/// O(n * l) reference implementation of MassEngine::DistanceProfile (MASS,
/// Mueen's Algorithm for Similarity Search, against an external query), used
/// to validate the engine's backends in tests.
Result<std::vector<double>> BruteDistanceProfile(
    const series::DataSeries& series, std::span<const double> query);

/// Overwrites `(*distances)[j]` with +infinity for all j with
/// `|j - center| < exclusion`, the standard trivial-match mask.
void ApplyExclusionZone(std::vector<double>* distances, std::size_t center,
                        std::size_t exclusion);

/// -- Shared kernels (used by mass::MassEngine and its callers) -------------

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

/// Direct O(count * length) sliding dot products of a centered query against
/// the centered series: `dots[j] = sum_t query[t] * series[j + t]` for j in
/// [0, count). The kDirect backend of MassEngine; for short windows it beats
/// every transform by a wide margin.
std::vector<double> DirectSlidingDots(std::span<const double> centered_series,
                                      std::span<const double> centered_query,
                                      std::size_t count);

/// Fills `distances` (resized to `dots.size()`) with the z-normalized pair
/// distances of the window at `query_offset` against every window, given
/// the centered sliding dot products of that row.
void DistancesFromDots(const series::DataSeries& series,
                       std::size_t query_offset, std::size_t length,
                       std::span<const double> dots,
                       std::vector<double>* distances);

}  // namespace valmod::mass

#endif  // VALMOD_MASS_MASS_H_
