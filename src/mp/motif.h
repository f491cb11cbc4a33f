#ifndef VALMOD_MP_MOTIF_H_
#define VALMOD_MP_MOTIF_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mp/matrix_profile.h"

namespace valmod::mp {

/// A motif pair: the two subsequence offsets, their z-normalized distance,
/// and the length-normalized distance `d * sqrt(1/l)` used to compare pairs
/// of different lengths (paper §2). `offset_a < offset_b` always.
struct MotifPair {
  int64_t offset_a = -1;
  int64_t offset_b = -1;
  std::size_t length = 0;
  double distance = kInfinity;
  double normalized_distance = kInfinity;

  friend bool operator==(const MotifPair&, const MotifPair&) = default;
};

/// Renders "(a=.., b=.., l=.., d=.., dn=..)" for logs and examples.
std::string ToString(const MotifPair& pair);

/// One eligible row minimum: `row`'s best match is `match` at `distance`.
struct RowCandidate {
  double distance = kInfinity;
  int64_t row = -1;
  int64_t match = -1;
};

/// The one top-k motif selection, behind every motif answer: the profile
/// form below (STOMP, STAMP, streaming and the service's maintained
/// answers) and VALMOD's initial scan and certification passes. Candidates
/// are ranked by (distance, row); each unordered pair is taken once, and
/// once a pair is chosen, candidates with a member inside the exclusion
/// zone of a chosen member are skipped (the standard non-overlapping
/// matrix-profile motif enumeration). `candidates` may come in any order
/// and must hold only finite, matched rows. Returns fewer than k pairs when
/// the candidates run out; k = 0 selects nothing.
std::vector<MotifPair> SelectTopKMotifs(std::vector<RowCandidate> candidates,
                                        std::size_t length,
                                        std::size_t exclusion_zone,
                                        std::size_t k);

/// Top-k motif pairs of a matrix profile: SelectTopKMotifs over every row
/// with a finite match, at the profile's length and exclusion zone.
std::vector<MotifPair> TopKMotifs(const MatrixProfile& profile,
                                  std::size_t k);

}  // namespace valmod::mp

#endif  // VALMOD_MP_MOTIF_H_
