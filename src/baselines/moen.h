#ifndef VALMOD_BASELINES_MOEN_H_
#define VALMOD_BASELINES_MOEN_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "common/timer.h"
#include "core/valmod.h"
#include "series/data_series.h"

namespace valmod::baselines {

/// Options for the MOEN baseline.
struct MoenOptions {
  std::size_t min_length = 0;
  std::size_t max_length = 0;
  double exclusion_fraction = 0.5;
  /// Reference subsequences used for triangle-inequality pruning per length.
  std::size_t num_references = 6;
  Deadline deadline;
};

/// MOEN ([5] in the text, Mueen ICDM'13 "Enumeration of Time Series Motifs
/// of All Lengths"): the exact *best* motif pair for every length of the
/// range (MOEN's natural output is k = 1).
///
/// Faithful-in-structure reimplementation: per length, an MK-style search —
/// reference distance profiles via MASS, candidate pairs enumerated in
/// ascending order of a triangle-inequality lower bound, exact distances
/// with early abandoning — with the best-so-far seeded by re-evaluating the
/// previous length's motif at the new length, which plays the role of
/// MOEN's cross-length bound reuse.
Result<std::vector<core::LengthMotifs>> RunMoen(
    const series::DataSeries& series, const MoenOptions& options);

}  // namespace valmod::baselines

#endif  // VALMOD_BASELINES_MOEN_H_
