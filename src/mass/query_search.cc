#include "mass/query_search.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "common/status.h"
#include "common/trace.h"
#include "mass/mass.h"
#include "mp/matrix_profile.h"

namespace valmod::mass {

Result<std::vector<QueryMatch>> FindQueryMatches(
    const series::DataSeries& series, std::span<const double> query,
    const QuerySearchOptions& options) {
  MassEngine engine(series);
  return FindQueryMatches(engine, query, options);
}

Result<std::vector<QueryMatch>> FindQueryMatches(
    MassEngine& engine, std::span<const double> query,
    const QuerySearchOptions& options) {
  const trace::TraceSpan span("query_search");
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  VALMOD_RETURN_IF_ERROR(mp::CheckSubsequenceLength(query.size()));
  if (options.deadline.Expired()) {
    return Status::DeadlineExceeded("query search deadline expired");
  }
  VALMOD_ASSIGN_OR_RETURN(std::vector<double> distances,
                          engine.DistanceProfile(query));

  const std::size_t exclusion =
      options.exclusion_fraction <= 0.0
          ? 0
          : mp::ExclusionZoneFor(query.size(), options.exclusion_fraction);

  std::vector<std::size_t> order(distances.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (distances[a] != distances[b]) return distances[a] < distances[b];
    return a < b;
  });

  std::vector<QueryMatch> matches;
  for (std::size_t offset : order) {
    if (matches.size() >= options.k) break;
    bool overlapping = false;
    for (const QueryMatch& m : matches) {
      if (std::llabs(m.offset - static_cast<int64_t>(offset)) <
          static_cast<int64_t>(exclusion)) {
        overlapping = true;
        break;
      }
    }
    if (!overlapping) {
      matches.push_back(
          QueryMatch{static_cast<int64_t>(offset), distances[offset]});
    }
  }
  return matches;
}

}  // namespace valmod::mass
