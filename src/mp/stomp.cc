#include "mp/stomp.h"

#include <string>

#include "common/status.h"
#include "mp/diagonal.h"

namespace valmod::mp {

Result<MatrixProfile> ComputeStomp(const series::DataSeries& series,
                                   std::size_t length,
                                   const ProfileOptions& options) {
  VALMOD_RETURN_IF_ERROR(CheckSubsequenceLength(length));
  const std::size_t count = series.NumSubsequences(length);
  if (count == 0) {
    return Status::InvalidArgument(
        "length " + std::to_string(length) + " yields no subsequences in a " +
        std::to_string(series.size()) + "-point series");
  }

  MatrixProfile profile;
  profile.subsequence_length = length;
  profile.exclusion_zone = ExclusionZoneFor(length, options.exclusion_fraction);
  profile.distances.assign(count, kInfinity);
  profile.indices.assign(count, -1);

  WindowStats windows;
  VALMOD_RETURN_IF_ERROR(windows.Compute(series, length));
  DiagonalScan scan;
  scan.a = windows.Arrays(series);
  scan.length = length;
  scan.exclusion = profile.exclusion_zone;
  if (!WalkDiagonals(scan, DiagonalWorkers(scan, options.num_threads),
                     options.deadline, {}, profile.distances.data(),
                     profile.indices.data())) {
    return Status::DeadlineExceeded("STOMP timed out");
  }
  return profile;
}

}  // namespace valmod::mp
