#include "mp/motif.h"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <span>
#include <utility>

#include "series/znorm.h"

namespace valmod::mp {

namespace {

/// (distance, row): a total order, since each row yields one candidate.
bool ByDistanceThenRow(const RowCandidate& a, const RowCandidate& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.row < b.row;
}

/// Greedy non-overlapping scan over candidates sorted by ByDistanceThenRow.
std::vector<MotifPair> SelectFromSorted(std::span<const RowCandidate> sorted,
                                        std::size_t length,
                                        std::size_t exclusion_zone,
                                        std::size_t k) {
  std::vector<MotifPair> motifs;
  std::set<std::pair<int64_t, int64_t>> seen_pairs;
  std::vector<int64_t> chosen_members;

  auto overlaps_chosen = [&](int64_t offset) {
    for (int64_t member : chosen_members) {
      if (std::llabs(member - offset) <
          static_cast<int64_t>(exclusion_zone)) {
        return true;
      }
    }
    return false;
  };

  for (const RowCandidate& candidate : sorted) {
    if (motifs.size() >= k) break;
    const int64_t a = std::min(candidate.row, candidate.match);
    const int64_t b = std::max(candidate.row, candidate.match);
    if (!seen_pairs.insert({a, b}).second) continue;
    if (overlaps_chosen(a) || overlaps_chosen(b)) continue;

    MotifPair pair;
    pair.offset_a = a;
    pair.offset_b = b;
    pair.length = length;
    pair.distance = candidate.distance;
    pair.normalized_distance =
        series::LengthNormalizedDistance(candidate.distance, length);
    motifs.push_back(pair);
    chosen_members.push_back(a);
    chosen_members.push_back(b);
  }
  return motifs;
}

}  // namespace

std::string ToString(const MotifPair& pair) {
  return "(a=" + std::to_string(pair.offset_a) +
         ", b=" + std::to_string(pair.offset_b) +
         ", l=" + std::to_string(pair.length) +
         ", d=" + std::to_string(pair.distance) +
         ", dn=" + std::to_string(pair.normalized_distance) + ")";
}

std::vector<MotifPair> SelectTopKMotifs(std::vector<RowCandidate> candidates,
                                        std::size_t length,
                                        std::size_t exclusion_zone,
                                        std::size_t k) {
  // Only the smallest candidates can reach the answer, so sort a prefix of
  // the O(k) smallest first. The greedy scan reads candidates in a total
  // order, so when the prefix yields k pairs the rest would never be read
  // and the answer is exact. Heavy overlap can use up the prefix; then the
  // suffix is sorted too (nth_element left every suffix candidate after
  // every prefix one, so the whole list is then sorted) and the scan reruns.
  const std::size_t prefix = 4 * k + 32;
  if (candidates.size() > prefix) {
    const auto mid = candidates.begin() + static_cast<std::ptrdiff_t>(prefix);
    std::nth_element(candidates.begin(), mid, candidates.end(),
                     ByDistanceThenRow);
    std::sort(candidates.begin(), mid, ByDistanceThenRow);
    std::vector<MotifPair> motifs = SelectFromSorted(
        std::span(candidates).first(prefix), length, exclusion_zone, k);
    if (motifs.size() >= k) return motifs;
    std::sort(mid, candidates.end(), ByDistanceThenRow);
  } else {
    std::sort(candidates.begin(), candidates.end(), ByDistanceThenRow);
  }
  return SelectFromSorted(candidates, length, exclusion_zone, k);
}

std::vector<MotifPair> TopKMotifs(const MatrixProfile& profile,
                                  std::size_t k) {
  std::vector<RowCandidate> candidates;
  candidates.reserve(profile.distances.size());
  for (std::size_t row = 0; row < profile.distances.size(); ++row) {
    if (profile.indices[row] < 0 || profile.distances[row] == kInfinity) {
      continue;
    }
    candidates.push_back(RowCandidate{profile.distances[row],
                                      static_cast<int64_t>(row),
                                      profile.indices[row]});
  }
  return SelectTopKMotifs(std::move(candidates), profile.subsequence_length,
                          profile.exclusion_zone, k);
}

}  // namespace valmod::mp
