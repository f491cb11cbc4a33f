#include "mp/discord.h"

#include <algorithm>
#include <cstdlib>

namespace valmod::mp {

std::vector<Discord> TopKDiscords(const MatrixProfile& profile,
                                  std::size_t k) {
  std::vector<std::size_t> order;
  order.reserve(profile.size());
  for (std::size_t row = 0; row < profile.size(); ++row) {
    if (profile.indices[row] >= 0 && profile.distances[row] != kInfinity) {
      order.push_back(row);
    }
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (profile.distances[a] != profile.distances[b]) {
      return profile.distances[a] > profile.distances[b];  // descending
    }
    return a < b;
  });

  std::vector<Discord> discords;
  for (std::size_t row : order) {
    if (discords.size() >= k) break;
    const int64_t offset = static_cast<int64_t>(row);
    const bool overlapping =
        std::any_of(discords.begin(), discords.end(), [&](const Discord& d) {
          return std::llabs(d.offset - offset) <
                 static_cast<int64_t>(profile.exclusion_zone);
        });
    if (overlapping) continue;
    discords.push_back(Discord{offset, profile.indices[row],
                               profile.subsequence_length,
                               profile.distances[row]});
  }
  return discords;
}

}  // namespace valmod::mp
