#ifndef VALMOD_BASELINES_QUICK_MOTIF_H_
#define VALMOD_BASELINES_QUICK_MOTIF_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "common/timer.h"
#include "core/valmod.h"
#include "mp/motif.h"
#include "series/data_series.h"

namespace valmod::baselines {

/// Options for the QuickMotif baseline.
struct QuickMotifOptions {
  /// PAA dimensions per subsequence summary.
  std::size_t paa_dimensions = 8;
  /// Subsequences per MBR block.
  std::size_t block_size = 64;
  double exclusion_fraction = 0.5;
  Deadline deadline;
};

/// QuickMotif ([3] in the text, Li et al. ICDE'15): exact fixed-length best
/// motif pair via spatial pruning over PAA summaries.
///
/// Faithful-in-structure reimplementation: z-normalized subsequences are
/// summarized with PAA, ordered along a Morton (z-order) curve —
/// substituting the original's Hilbert curve, same locality purpose — and
/// grouped into MBR blocks. Block pairs are visited in ascending MBR
/// lower-bound order; within a pair, candidates are checked with the PAA
/// point lower bound and then an early-abandoning exact distance. All bounds
/// are admissible, so the result is exact.
Result<mp::MotifPair> RunQuickMotif(const series::DataSeries& series,
                                    std::size_t length,
                                    const QuickMotifOptions& options = {});

/// QuickMotif adapted to a length range (one independent run per length),
/// the form the paper benchmarks in Figure 3.
struct QuickMotifRangeOptions {
  std::size_t min_length = 0;
  std::size_t max_length = 0;
  QuickMotifOptions per_length;
  Deadline deadline;
};
Result<std::vector<core::LengthMotifs>> RunQuickMotifRange(
    const series::DataSeries& series, const QuickMotifRangeOptions& options);

}  // namespace valmod::baselines

#endif  // VALMOD_BASELINES_QUICK_MOTIF_H_
