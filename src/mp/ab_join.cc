#include "mp/ab_join.h"

#include <string>

#include "common/status.h"
#include "mp/diagonal.h"

namespace valmod::mp {

Result<MatrixProfile> ComputeAbJoin(const series::DataSeries& series_a,
                                    const series::DataSeries& series_b,
                                    std::size_t length,
                                    const ProfileOptions& options) {
  VALMOD_RETURN_IF_ERROR(CheckSubsequenceLength(length));
  const std::size_t count_a = series_a.NumSubsequences(length);
  const std::size_t count_b = series_b.NumSubsequences(length);
  if (count_a == 0 || count_b == 0) {
    return Status::InvalidArgument(
        "length " + std::to_string(length) +
        " yields no subsequences in one of the series (sizes " +
        std::to_string(series_a.size()) + ", " +
        std::to_string(series_b.size()) + ")");
  }

  MatrixProfile profile;
  profile.subsequence_length = length;
  profile.exclusion_zone = 0;  // cross-series: no trivial matches
  profile.distances.assign(count_a, kInfinity);
  profile.indices.assign(count_a, -1);

  // Each side's statistics are in its own centered representation (the
  // two series have independent centers; correlations are shift-invariant
  // per argument, so mixing them is sound).
  WindowStats windows_a, windows_b;
  VALMOD_RETURN_IF_ERROR(windows_a.Compute(series_a, length));
  VALMOD_RETURN_IF_ERROR(windows_b.Compute(series_b, length));
  DiagonalScan scan;
  scan.a = windows_a.Arrays(series_a);
  scan.b = windows_b.Arrays(series_b);
  scan.length = length;
  scan.self_join = false;
  if (!WalkDiagonals(scan, DiagonalWorkers(scan, options.num_threads),
                     options.deadline, {}, profile.distances.data(),
                     profile.indices.data())) {
    return Status::DeadlineExceeded("AB-join timed out");
  }
  return profile;
}

}  // namespace valmod::mp
