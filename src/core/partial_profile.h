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
};

/// The best-LB candidates of every subsequence ("partial distance
/// profiles", the data structure at the heart of VALMOD).
///
/// Every row starts with capacity p, in one flat array with stride p that
/// the seeding scan fills with no per-row lookup. A row that fails
/// certification can Grow: it moves to a slice of one shared pool (its old
/// slice is abandoned, and compacted away when the pool runs out of room).
/// Stride array plus live slices never exceed rows * max(p, kBudgetPerRow)
/// entries. Sets that never grow (the per-worker seeding sets) keep no
/// per-row capacity table at all.
/// Each row records:
///  * its entries (the `capacity(row)` first candidates seen at seed time
///    under MatchPrecedes on base LB — smallest base LB, then nearest, then
///    smallest offset — maintained as a max-heap during seeding, compacted
///    as candidates die). The order is total, so the stored set does not
///    depend on the order candidates were offered in;
///  * `admit`: the row's admission gate, a contiguous array the seeding scan
///    reads with one vector compare per cell. +infinity while the row holds
///    fewer entries than its capacity, then the heap root's base LB (a
///    candidate above it can never enter), and -infinity for a closed row,
///    which takes no candidates;
///  * `max_base_lb`: the capacity-th smallest base LB at seed time — a lower
///    bound factor for every *non-stored* candidate. Frozen at seeding:
///    +infinity while the row holds fewer candidates than its capacity (then
///    the stored set is exhaustive and nothing is unexplored);
///  * `base_length`: the length whose statistics anchor the row's LB; rows
///    re-seeded after an exact recompute move their base forward.
class PartialProfileSet {
 public:
  /// The set holds at most rows * max(p, kBudgetPerRow) entries; Grow
  /// refuses a slice that would pass it.
  static constexpr std::size_t kBudgetPerRow = 32;

  /// `rows` subsequences of capacity `p >= 1` each, all anchored at
  /// `base_length` until re-seeded.
  PartialProfileSet(std::size_t rows, std::size_t p, std::size_t base_length);

  std::size_t rows() const { return row_size_.size(); }

  /// Entries the row can hold: p until Grow enlarges it.
  std::size_t capacity(std::size_t row) const {
    return slices_.empty() ? p_ : slices_[row].capacity;
  }

  /// Moves an open row to a fresh pool slice of `capacity` entries, dropping
  /// its entries (re-seed it next; the set is not thread-safe while it
  /// grows). Refused, leaving the row as it was, for a closed row, for a
  /// capacity no larger than the row's, and when the slice would take the
  /// set past its budget. Returns whether the row grew.
  bool Grow(std::size_t row, std::size_t capacity);

  /// Offers a candidate during (re-)seeding; keeps the capacity(row) first
  /// candidates under MatchPrecedes on base LB. For open rows only (filling
  /// a closed row would reopen its gate); the seeding scan's gate keeps
  /// closed rows out.
  void Offer(std::size_t row, int64_t match, double dot, double base_lb);

  /// The seeding scan's view of Offer: candidates pass the `admit` gate
  /// (base_lb <= admit[row], so ties still reach Offer's total order) and
  /// are then offered at stride p. For sets where no row has grown.
  simd::OfferSink Sink();

  /// The re-seeding view of Offer, for any row, grown or not: the same
  /// gate, then Offer.
  simd::OfferSink ReseedSink();

  /// Freezes `max_base_lb` after seeding finished for `row` (call once per
  /// row per seeding pass) and orders its entries by ascending base LB.
  void FinishSeeding(std::size_t row);

  /// Clears a row, re-anchors it at `base_length` and reopens it before
  /// re-seeding. The row keeps its capacity.
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

  /// Live entries of a row (mutable: the per-length sweep advances their
  /// dot products in place).
  std::span<Entry> MutableRow(std::size_t row) {
    return {RowBase(row), row_size_[row]};
  }
  std::span<const Entry> Row(std::size_t row) const {
    return {RowBase(row), row_size_[row]};
  }

  /// Drops entries for which `dead(entry)` is true, preserving order.
  /// Dead candidates (overlapping the grown exclusion zone or past the
  /// shrunken subsequence count) never come back, so this is permanent.
  template <typename Predicate>
  void CompactRow(std::size_t row, Predicate dead) {
    Entry* base = RowBase(row);
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
  /// A row's storage: `capacity` entries at `offset` of `pool_` once the
  /// row has grown, its stride-p slot of `entries_` while capacity is p.
  struct Slice {
    std::size_t offset;
    std::size_t capacity;
  };

  /// Moves the grown rows' slices down over the abandoned ones.
  void CompactPool();
  static void OfferAtStride(void* set, std::size_t row, int64_t match,
                            double dot, double base_lb);
  static void OfferAny(void* set, std::size_t row, int64_t match, double dot,
                       double base_lb);
  void OfferInto(Entry* base, std::size_t capacity, std::size_t row,
                 const Entry& entry);

  Entry* RowBase(std::size_t row) {
    return capacity(row) == p_ ? &entries_[row * p_]
                               : &pool_[slices_[row].offset];
  }
  const Entry* RowBase(std::size_t row) const {
    return capacity(row) == p_ ? &entries_[row * p_]
                               : &pool_[slices_[row].offset];
  }

  std::size_t p_;
  std::vector<Entry> entries_;          // rows * p, heap/sorted per row
  std::vector<Entry> pool_;             // grown slices, in grant order
  std::vector<Slice> slices_;           // per row; empty until a row grows
  std::size_t grown_entries_ = 0;       // capacity of the live slices
  std::vector<std::size_t> row_size_;   // live entries per row
  std::vector<double> max_base_lb_;     // frozen at FinishSeeding
  std::vector<double> admit_;           // admission gate per row
  std::vector<std::size_t> base_length_;
};

}  // namespace valmod::core

#endif  // VALMOD_CORE_PARTIAL_PROFILE_H_
