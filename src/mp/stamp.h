#ifndef VALMOD_MP_STAMP_H_
#define VALMOD_MP_STAMP_H_

#include <cstddef>

#include "common/result.h"
#include "mp/matrix_profile.h"
#include "series/data_series.h"

namespace valmod::mp {

/// STAMP (Matrix Profile I): exact matrix profile at one length in
/// O(n^2 log n) — one MASS distance profile per subsequence. Slower than
/// STOMP but with an entirely independent inner loop, which makes it a
/// useful cross-check and the natural anytime variant. Rows run through the
/// batched MassEngine in chunks spread across `options.num_threads` pool
/// workers; the result is independent of the thread count.
Result<MatrixProfile> ComputeStamp(const series::DataSeries& series,
                                   std::size_t length,
                                   const ProfileOptions& options = {});

}  // namespace valmod::mp

#endif  // VALMOD_MP_STAMP_H_
