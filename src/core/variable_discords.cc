#include "core/variable_discords.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/status.h"
#include "common/trace.h"
#include "mp/stomp.h"
#include "series/znorm.h"

namespace valmod::core {

Result<VariableDiscordResult> FindVariableLengthDiscords(
    const series::DataSeries& series, const VariableDiscordOptions& options) {
  const trace::TraceSpan span("variable_discords");
  if (options.min_length < 2 || options.min_length > options.max_length) {
    return Status::InvalidArgument("need 2 <= min_length <= max_length");
  }
  if (options.max_length + 1 > series.size()) {
    return Status::InvalidArgument("max_length leaves fewer than 2 windows");
  }
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");

  VariableDiscordResult result;
  for (std::size_t length = options.min_length; length <= options.max_length;
       ++length) {
    if (options.deadline.Expired()) {
      return Status::DeadlineExceeded(
          "variable-length discords timed out at length " +
          std::to_string(length));
    }
    mp::ProfileOptions profile_options;
    profile_options.exclusion_fraction = options.exclusion_fraction;
    profile_options.num_threads = options.num_threads;
    profile_options.deadline = options.deadline;
    VALMOD_ASSIGN_OR_RETURN(mp::MatrixProfile profile,
                            mp::ComputeStomp(series, length, profile_options));
    std::vector<mp::Discord> discords = mp::TopKDiscords(profile, options.k);
    for (const mp::Discord& d : discords) {
      result.ranked.push_back(RankedDiscord{
          d, series::LengthNormalizedDistance(d.distance, length)});
    }
    result.per_length.push_back(LengthDiscords{length, std::move(discords)});
  }

  std::sort(result.ranked.begin(), result.ranked.end(),
            [](const RankedDiscord& a, const RankedDiscord& b) {
              if (a.normalized_distance != b.normalized_distance) {
                return a.normalized_distance > b.normalized_distance;
              }
              if (a.discord.length != b.discord.length) {
                return a.discord.length < b.discord.length;
              }
              return a.discord.offset < b.discord.offset;
            });
  return result;
}

}  // namespace valmod::core
