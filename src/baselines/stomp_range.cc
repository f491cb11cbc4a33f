#include "baselines/stomp_range.h"

#include <string>
#include <utility>

#include "common/status.h"
#include "mp/stomp.h"

namespace valmod::baselines {

Result<std::vector<core::LengthMotifs>> RunStompRange(
    const series::DataSeries& series, const StompRangeOptions& options) {
  if (options.min_length < 2 || options.min_length > options.max_length) {
    return Status::InvalidArgument("need 2 <= min_length <= max_length");
  }
  if (options.max_length + 1 > series.size()) {
    return Status::InvalidArgument("max_length leaves fewer than 2 windows");
  }
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");

  std::vector<core::LengthMotifs> per_length;
  per_length.reserve(options.max_length - options.min_length + 1);
  for (std::size_t length = options.min_length; length <= options.max_length;
       ++length) {
    if (options.deadline.Expired()) {
      return Status::DeadlineExceeded("STOMP-range timed out at length " +
                                      std::to_string(length));
    }
    mp::ProfileOptions profile_options;
    profile_options.exclusion_fraction = options.exclusion_fraction;
    profile_options.num_threads = options.num_threads;
    profile_options.deadline = options.deadline;
    VALMOD_ASSIGN_OR_RETURN(mp::MatrixProfile profile,
                            mp::ComputeStomp(series, length, profile_options));
    per_length.push_back(
        core::LengthMotifs{length, mp::TopKMotifs(profile, options.k)});
  }
  return per_length;
}

}  // namespace valmod::baselines
