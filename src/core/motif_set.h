#ifndef VALMOD_CORE_MOTIF_SET_H_
#define VALMOD_CORE_MOTIF_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "mass/engine.h"
#include "mp/motif.h"
#include "series/data_series.h"

namespace valmod::core {

/// Options for expanding a motif pair into its motif set (demo §3: "expand a
/// selected motif pair to the relative Motif Set, containing all the similar
/// subsequences of the pair in the data").
struct MotifSetOptions {
  /// Membership radius as a multiple of the pair's distance. Ignored when
  /// `radius` is set.
  double radius_factor = 2.0;
  /// Absolute membership radius; NaN (default) means use `radius_factor`.
  double radius = std::numeric_limits<double>::quiet_NaN();
  /// Members must be mutually separated by this fraction of the length.
  double exclusion_fraction = 0.5;
};

/// One member of a motif set.
struct MotifSetMember {
  int64_t offset = -1;
  /// z-normalized distance to the nearer of the two seed subsequences.
  double distance = 0.0;
};

/// A motif pair expanded to all of its occurrences.
struct MotifSet {
  mp::MotifPair seed;
  double radius = 0.0;
  /// Members ascending by distance; the two seed subsequences come first
  /// (distance 0 by definition). Mutually non-overlapping.
  std::vector<MotifSetMember> members;
};

/// Exact motif-set expansion: MASS distance profiles from both seed members,
/// point-wise minimum, threshold at the radius, then greedy non-overlapping
/// admission in ascending distance order. O(n log n).
Result<MotifSet> ExpandMotifSet(const series::DataSeries& series,
                                const mp::MotifPair& pair,
                                const MotifSetOptions& options = {});

/// Engine form: expands against `engine.series()`, reusing the engine's
/// cached series spectrum across the two seed profiles — and across calls,
/// so expanding several pairs against one engine costs one series
/// transform. The series-taking overload wraps this one.
Result<MotifSet> ExpandMotifSet(mass::MassEngine& engine,
                                const mp::MotifPair& pair,
                                const MotifSetOptions& options = {});

}  // namespace valmod::core

#endif  // VALMOD_CORE_MOTIF_SET_H_
