#ifndef VALMOD_CORE_PARTIAL_PROFILE_H_
#define VALMOD_CORE_PARTIAL_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "simd/dispatch.h"

namespace valmod::core {

/// One stored candidate of a partial distance profile (paper Figure 2): the
/// match offset, its running dot product (kept current so the true distance
/// at each next length costs one fused multiply-add), and its base LB, the
/// length-independent factor of the lower bound.
struct Entry {
  int64_t match = -1;
  double dot = 0.0;
  double base_lb = 0.0;
  double distance = std::numeric_limits<double>::infinity();
};

/// The p best-LB candidates of every subsequence ("partial distance
/// profiles", the data structure at the heart of VALMOD).
///
/// Storage is one flat array with stride p for cache-friendly per-length
/// sweeps. Each row records:
///  * its entries (the p first candidates seen at seed time under
///    MatchPrecedes on base LB — smallest base LB, then nearest, then
///    smallest offset — maintained as a max-heap during seeding, compacted
///    as candidates die). The order is total, so the stored set does not
///    depend on the order candidates were offered in;
///  * `admit`: the row's admission gate, a contiguous array the seeding scan
///    reads with one vector compare per cell. +infinity while the row holds
///    fewer than p entries, then the heap root's base LB (a candidate above
///    it can never enter), and -infinity for a closed row, which takes no
///    candidates;
///  * `max_base_lb`: the p-th smallest base LB at seed time — a lower bound
///    factor for every *non-stored* candidate. Frozen at seeding: +infinity
///    while the row holds fewer than p candidates (then the stored set is
///    exhaustive and nothing is unexplored);
///  * `base_length`: the length whose statistics anchor the row's LB; rows
///    re-seeded after an exact recompute move their base forward.
class PartialProfileSet {
 public:
  /// `rows` subsequences, `p >= 1` entries per row, all rows anchored at
  /// `base_length` until re-seeded.
  PartialProfileSet(std::size_t rows, std::size_t p, std::size_t base_length);

  std::size_t rows() const { return row_size_.size(); }
  std::size_t capacity_per_row() const { return p_; }

  /// Offers a candidate during (re-)seeding; keeps the p first candidates
  /// under MatchPrecedes on base LB. For open rows only (filling a closed
  /// row would reopen its gate); the seeding scan's gate keeps closed rows
  /// out.
  void Offer(std::size_t row, int64_t match, double dot, double base_lb);

  /// The seeding scan's view of Offer: candidates pass the `admit` gate
  /// (base_lb <= admit[row], so ties still reach Offer's total order) and
  /// are then offered to this set.
  simd::OfferSink Sink();

  /// Freezes `max_base_lb` after seeding finished for `row` (call once per
  /// row per seeding pass) and orders its entries by ascending base LB.
  void FinishSeeding(std::size_t row);

  /// Clears a row, re-anchors it at `base_length` and reopens it before
  /// re-seeding.
  void Reset(std::size_t row, std::size_t base_length);

  /// The admission gate: false when Offer would reject a candidate of
  /// `row` with this base LB outright. Checking it first spares the call.
  bool Admits(std::size_t row, double base_lb) const {
    return base_lb <= admit_[row];
  }

  /// Closes a row: its gate rejects every candidate and seeded() turns
  /// false. Rows whose window is constant at their base length are closed —
  /// the lower bound needs a positive base standard deviation.
  void Close(std::size_t row) {
    admit_[row] = -std::numeric_limits<double>::infinity();
  }

  /// False for a closed row, whose entries (if any) must not be used.
  bool seeded(std::size_t row) const {
    return admit_[row] != -std::numeric_limits<double>::infinity();
  }

  /// Live entries of a row (mutable: the per-length sweep updates dot /
  /// distance in place).
  std::span<Entry> MutableRow(std::size_t row) {
    return {&entries_[row * p_], row_size_[row]};
  }
  std::span<const Entry> Row(std::size_t row) const {
    return {&entries_[row * p_], row_size_[row]};
  }

  /// Drops entries for which `dead(entry)` is true, preserving order.
  /// Dead candidates (overlapping the grown exclusion zone or past the
  /// shrunken subsequence count) never come back, so this is permanent.
  template <typename Predicate>
  void CompactRow(std::size_t row, Predicate dead) {
    Entry* base = &entries_[row * p_];
    std::size_t kept = 0;
    for (std::size_t e = 0; e < row_size_[row]; ++e) {
      if (!dead(base[e])) {
        if (kept != e) base[kept] = base[e];
        ++kept;
      }
    }
    row_size_[row] = kept;
  }

  /// The frozen bound factor for unexplored candidates of the row.
  double max_base_lb(std::size_t row) const { return max_base_lb_[row]; }

  /// The length whose statistics anchor the row's lower bound.
  std::size_t base_length(std::size_t row) const { return base_length_[row]; }

 private:
  std::size_t p_;
  std::vector<Entry> entries_;          // rows * p, heap/sorted per row
  std::vector<std::size_t> row_size_;   // live entries per row
  std::vector<double> max_base_lb_;     // frozen at FinishSeeding
  std::vector<double> admit_;           // admission gate per row
  std::vector<std::size_t> base_length_;
};

}  // namespace valmod::core

#endif  // VALMOD_CORE_PARTIAL_PROFILE_H_
