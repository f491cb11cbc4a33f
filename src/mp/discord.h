#ifndef VALMOD_MP_DISCORD_H_
#define VALMOD_MP_DISCORD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mp/matrix_profile.h"

namespace valmod::mp {

/// A discord: the subsequence whose nearest non-trivial neighbor is farthest
/// away — the matrix profile's anomaly primitive. Included because the
/// matrix profile substrate yields it for free and the original Matrix
/// Profile papers ([1] in the text) present motifs and discords together.
struct Discord {
  int64_t offset = -1;
  int64_t nearest_neighbor = -1;
  std::size_t length = 0;
  /// Distance to the nearest neighbor (larger = more anomalous).
  double distance = 0.0;
};

/// The one top-k discord selection, behind every discord answer (batch,
/// variable-length, streaming and the service's maintained answers): rows
/// ranked by descending nearest-neighbor distance (ties by offset), greedily
/// taken so no two chosen offsets fall within the profile's exclusion zone
/// of each other. Rows with no valid neighbor (+inf) are skipped: they carry
/// no evidence, not an infinitely strong anomaly. Returns fewer than k when
/// the profile runs out of separated rows; k = 0 selects nothing.
std::vector<Discord> TopKDiscords(const MatrixProfile& profile,
                                  std::size_t k);

}  // namespace valmod::mp

#endif  // VALMOD_MP_DISCORD_H_
