#ifndef VALMOD_MP_MATRIX_PROFILE_H_
#define VALMOD_MP_MATRIX_PROFILE_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/timer.h"
#include "mass/backend.h"

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
  /// Number of worker threads for STOMP, STAMP and the AB-join; <= 1 runs
  /// serially.
  int num_threads = 1;
  /// Cooperative deadline; algorithms return kDeadlineExceeded when it
  /// fires (checked at coarse granularity).
  Deadline deadline;
  /// Convolution backend for the MASS-based algorithms (STAMP routes it
  /// into MassEngine; STOMP and the brute-force path compute no
  /// convolutions and ignore it). kAuto applies the engine's cost-model
  /// crossover; forcing a backend exists for tests and benches.
  mass::ConvolutionBackend backend = mass::ConvolutionBackend::kAuto;
};

/// Exclusion-zone radius for a length under the given fraction (min 1, so
/// the self-match is always excluded).
inline std::size_t ExclusionZoneFor(std::size_t length, double fraction) {
  if (fraction <= 0.0) return 1;
  const double radius = std::ceil(fraction * static_cast<double>(length));
  return radius < 1.0 ? 1 : static_cast<std::size_t>(radius);
}

}  // namespace valmod::mp

#endif  // VALMOD_MP_MATRIX_PROFILE_H_
