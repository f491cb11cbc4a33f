#ifndef VALMOD_MP_STOMP_H_
#define VALMOD_MP_STOMP_H_

#include <cstddef>

#include "common/result.h"
#include "mp/matrix_profile.h"
#include "series/data_series.h"

namespace valmod::mp {

/// STOMP (Matrix Profile II): exact matrix profile at one length in O(n^2)
/// time and O(n) extra space via the diagonal dot-product recurrence
///
///   QT(i+1, j+1) = QT(i, j) - c[i] c[j] + c[i+l] c[j+l]
///
/// over the globally centered values `c`, walked in SIMD tiles of adjacent
/// diagonals by mp/diagonal.h. With `options.num_threads > 1` the tiles
/// are shared out among pool workers whose profiles are merged at the end;
/// ties break by MatchPrecedes, so the result is identical at every thread
/// count.
Result<MatrixProfile> ComputeStomp(const series::DataSeries& series,
                                   std::size_t length,
                                   const ProfileOptions& options = {});

}  // namespace valmod::mp

#endif  // VALMOD_MP_STOMP_H_
