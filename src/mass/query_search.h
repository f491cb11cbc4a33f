#ifndef VALMOD_MASS_QUERY_SEARCH_H_
#define VALMOD_MASS_QUERY_SEARCH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/timer.h"
#include "mass/engine.h"
#include "series/data_series.h"

namespace valmod::mass {

/// One query match: where and how close.
struct QueryMatch {
  int64_t offset = -1;
  double distance = 0.0;
};

/// Options for query-by-content search.
struct QuerySearchOptions {
  /// Number of matches to return.
  std::size_t k = 1;
  /// Matches must be mutually separated by this fraction of the query
  /// length (0 disables separation entirely).
  double exclusion_fraction = 0.5;
  /// Cooperative timeout / cancellation, checked before the distance
  /// profile is computed (one profile is the whole cost of a query search,
  /// so there is no finer-grained checkpoint to poll). The service
  /// scheduler threads per-request deadlines through here.
  Deadline deadline;
};

/// Finds the k best z-normalized matches of `query` inside `series`
/// (query-by-content over an external pattern — the "similarity search" use
/// of MASS). Matches are returned in ascending distance and are mutually
/// non-overlapping under the exclusion fraction. Returns fewer than k when
/// the series runs out of separated windows. O(n log n + n log k).
Result<std::vector<QueryMatch>> FindQueryMatches(
    const series::DataSeries& series, std::span<const double> query,
    const QuerySearchOptions& options = {});

/// Engine form: reuses `engine`'s cached series spectrum, so a stream of
/// queries against one series pays the series transform once in total. The
/// series-taking overload above is a convenience wrapper around this one.
Result<std::vector<QueryMatch>> FindQueryMatches(
    MassEngine& engine, std::span<const double> query,
    const QuerySearchOptions& options = {});

}  // namespace valmod::mass

#endif  // VALMOD_MASS_QUERY_SEARCH_H_
