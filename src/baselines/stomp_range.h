#ifndef VALMOD_BASELINES_STOMP_RANGE_H_
#define VALMOD_BASELINES_STOMP_RANGE_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "common/timer.h"
#include "core/valmod.h"
#include "mp/motif.h"
#include "series/data_series.h"

namespace valmod::baselines {

/// Options for the fixed-length state of the art adapted to a length range.
struct StompRangeOptions {
  std::size_t min_length = 0;
  std::size_t max_length = 0;
  std::size_t k = 1;
  double exclusion_fraction = 0.5;
  int num_threads = 1;
  Deadline deadline;
};

/// The comparison baseline of the paper's Figure 3: STOMP ([1, 2] in the
/// text) run once per length in [min_length, max_length], extracting top-k
/// motif pairs from each full matrix profile. Exact but
/// O((lmax - lmin + 1) * n^2).
Result<std::vector<core::LengthMotifs>> RunStompRange(
    const series::DataSeries& series, const StompRangeOptions& options);

}  // namespace valmod::baselines

#endif  // VALMOD_BASELINES_STOMP_RANGE_H_
