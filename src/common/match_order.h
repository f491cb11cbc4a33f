#ifndef VALMOD_COMMON_MATCH_ORDER_H_
#define VALMOD_COMMON_MATCH_ORDER_H_

#include <cstddef>
#include <cstdint>

namespace valmod {

/// The one total order on the candidate matches of a profile row: by `key`
/// (a distance for row minima, a base LB for partial profiles), then by the
/// gap |match - row|, then by match offset. Every scan, merge and sweep that
/// picks among a row's candidates uses it, so the pick never depends on the
/// order the candidates were visited in — and therefore not on the thread
/// count or on how diagonals are tiled. A serial diagonal-order scan with a
/// strict `<` update visits candidates in exactly this order, so the rule
/// also reproduces it.
///
/// True when (key, match) comes before (other_key, other_match) in row
/// `row`. An empty slot (other_match < 0) comes after every candidate.
inline bool MatchPrecedes(double key, std::int64_t match, double other_key,
                          std::int64_t other_match, std::size_t row) {
  if (!(key <= other_key)) return false;  // the common case: after
  if (key < other_key) return true;
  if (other_match < 0) return match >= 0;
  const std::int64_t r = static_cast<std::int64_t>(row);
  const std::int64_t gap = match > r ? match - r : r - match;
  const std::int64_t other_gap =
      other_match > r ? other_match - r : r - other_match;
  if (gap != other_gap) return gap < other_gap;
  return match < other_match;
}

}  // namespace valmod

#endif  // VALMOD_COMMON_MATCH_ORDER_H_
