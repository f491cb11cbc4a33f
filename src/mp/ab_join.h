#ifndef VALMOD_MP_AB_JOIN_H_
#define VALMOD_MP_AB_JOIN_H_

#include <cstddef>

#include "common/result.h"
#include "mp/matrix_profile.h"
#include "series/data_series.h"

namespace valmod::mp {

/// AB-join matrix profile (Matrix Profile I, reference [1] of the paper:
/// "all pairs similarity joins"): for every subsequence of `series_a`, the
/// z-normalized distance to its nearest neighbor *in `series_b`* and that
/// neighbor's offset.
///
/// Unlike the self-join there are no trivial matches, so no exclusion zone
/// applies (`exclusion_zone` is 0 in the result). The join is directional:
/// `JoinAb(a, b)` profiles a against b; swap the arguments for the other
/// direction. O(|a| * |b|) via the diagonal dot-product recurrence
/// (mp/diagonal.h), on `options.num_threads` workers. Among matches at
/// equal distance the one nearest to the row's own offset wins, then the
/// smaller offset (MatchPrecedes).
Result<MatrixProfile> ComputeAbJoin(const series::DataSeries& series_a,
                                    const series::DataSeries& series_b,
                                    std::size_t length,
                                    const ProfileOptions& options = {});

}  // namespace valmod::mp

#endif  // VALMOD_MP_AB_JOIN_H_
