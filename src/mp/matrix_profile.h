#ifndef VALMOD_MP_MATRIX_PROFILE_H_
#define VALMOD_MP_MATRIX_PROFILE_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/status.h"
#include "common/timer.h"

namespace valmod::mp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// The matrix profile of a series at one subsequence length: for every
/// subsequence, the z-normalized distance to its best non-trivial match and
/// that match's offset (paper Figure 1 b-c).
struct MatrixProfile {
  std::size_t subsequence_length = 0;
  std::size_t exclusion_zone = 0;
  /// distances[i] = min over non-trivial j of d(T_{i,l}, T_{j,l});
  /// +infinity when no valid match exists (e.g. everything excluded).
  std::vector<double> distances;
  /// indices[i] = argmin offset, or -1 when distances[i] is +infinity.
  std::vector<int64_t> indices;

  std::size_t size() const { return distances.size(); }
};

/// Options shared by the fixed-length profile algorithms.
struct ProfileOptions {
  /// Trivial-match exclusion zone as a fraction of the subsequence length:
  /// offsets with |i - j| < ceil(fraction * l) never match (min 1 = self).
  double exclusion_fraction = 0.5;
  /// Number of worker threads for STOMP and STAMP; <= 1 runs serially.
  int num_threads = 1;
  /// Cooperative deadline; algorithms return kDeadlineExceeded when it
  /// fires (checked at coarse granularity).
  Deadline deadline;
};

/// The one length check of every fixed-length entry point (STOMP, STAMP,
/// query search, streaming): a one-point window has zero deviation, so
/// every z-normalized distance at length 1 would be a meaningless 0.
inline Status CheckSubsequenceLength(std::size_t length) {
  if (length >= 2) return Status::Ok();
  return Status::InvalidArgument("subsequence length must be >= 2");
}

/// Exclusion-zone radius for a length under the given fraction (min 1, so
/// the self-match is always excluded).
inline std::size_t ExclusionZoneFor(std::size_t length, double fraction) {
  if (fraction <= 0.0) return 1;
  const double radius = std::ceil(fraction * static_cast<double>(length));
  return radius < 1.0 ? 1 : static_cast<std::size_t>(radius);
}

}  // namespace valmod::mp

#endif  // VALMOD_MP_MATRIX_PROFILE_H_
