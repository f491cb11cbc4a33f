#include "mp/stamp.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/trace.h"
#include "mass/engine.h"
#include "mass/mass.h"

namespace valmod::mp {

Result<MatrixProfile> ComputeStamp(const series::DataSeries& series,
                                   std::size_t length,
                                   const ProfileOptions& options) {
  const trace::TraceSpan trace_span("stamp_compute");
  VALMOD_RETURN_IF_ERROR(CheckSubsequenceLength(length));
  const std::size_t count = series.NumSubsequences(length);
  if (count == 0) {
    return Status::InvalidArgument(
        "length " + std::to_string(length) + " yields no subsequences in a " +
        std::to_string(series.size()) + "-point series");
  }

  // One engine for the whole sweep: the series spectrum and FFT plan are
  // computed once and shared by all row profiles.
  mass::MassEngine engine(series);
  MatrixProfile profile;
  profile.subsequence_length = length;
  profile.exclusion_zone = ExclusionZoneFor(length, options.exclusion_fraction);
  profile.distances.assign(count, kInfinity);
  profile.indices.assign(count, -1);

  // Rows are pulled through the engine's batched entry point in fixed-size
  // chunks, which (a) fans each chunk across options.num_threads pool
  // workers, (b) lets adjacent rows share one pair-packed transform, and
  // (c) bounds how much work runs between deadline checks. The chunk size
  // is even so the row pairing — and therefore the numerics — never
  // depends on the thread count, only on the (fixed) row order.
  const int num_threads = std::max(1, options.num_threads);
  const std::size_t chunk =
      std::max<std::size_t>(64, 16 * static_cast<std::size_t>(num_threads));
  std::vector<std::size_t> rows;
  for (std::size_t begin = 0; begin < count; begin += chunk) {
    if (options.deadline.Expired()) {
      return Status::DeadlineExceeded("STAMP timed out");
    }
    const std::size_t end = std::min(count, begin + chunk);
    rows.resize(end - begin);
    std::iota(rows.begin(), rows.end(), begin);
    VALMOD_ASSIGN_OR_RETURN(
        std::vector<mass::RowProfile> batch,
        engine.ComputeRowProfiles(rows, length, num_threads));
    for (std::size_t b = 0; b < batch.size(); ++b) {
      const std::size_t i = begin + b;
      mass::RowProfile& row = batch[b];
      mass::ApplyExclusionZone(&row.distances, i, profile.exclusion_zone);
      for (std::size_t j = 0; j < count; ++j) {
        if (row.distances[j] < profile.distances[i]) {
          profile.distances[i] = row.distances[j];
          profile.indices[i] = static_cast<int64_t>(j);
        }
      }
    }
  }
  return profile;
}

}  // namespace valmod::mp
