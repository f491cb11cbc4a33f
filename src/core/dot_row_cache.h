#ifndef VALMOD_CORE_DOT_ROW_CACHE_H_
#define VALMOD_CORE_DOT_ROW_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace valmod::core {

/// The exact dot products of one profile row: dots[j] = QT(offset, j) =
/// sum_t c[offset + t] * c[j + t] over t < length, for every window j at
/// `length` (c the globally centered series). `chain` counts the recurrence
/// steps taken since the row's last MASS anchor (0 for a MASS row).
struct DotRow {
  std::size_t offset = 0;
  std::size_t length = 0;
  std::size_t chain = 0;
  std::vector<double> dots;
};

/// Recurrence steps DeriveDotRow takes from `base` to the row of window
/// `offset` at `length` >= base.length: one per offset and one per length.
std::size_t DerivationSteps(const DotRow& base, std::size_t offset,
                            std::size_t length);

/// Derives the dot row of window `offset` at `length` >= base.length from
/// `base` by the STOMP recurrences, into `out` (resized to the window count
/// at `length`; must not alias base.dots):
///  * offset steps at the base length l, forward
///      QT(a+1, j+1) = QT(a, j) + (c[a+l] c[j+l] - c[a] c[j])
///    or backward
///      QT(a-1, j-1) = QT(a, j) + (c[a-1] c[j-1] - c[a-1+l] c[j-1+l]);
///  * then length advances at `offset`,
///      QT_{l+1}(offset, j) = QT_l(offset, j) + c[offset+l] c[j+l].
/// The cells no offset step reaches from the base (the first |s| windows
/// of a forward step s, the last of a backward one) take one direct
/// DotProduct at `length` each. Each cell sees the operations of a
/// one-step-at-a-time walk in the same order, so the result depends only on
/// `base` and the target, and the error is that of a STOMP diagonal of
/// DerivationSteps steps.
void DeriveDotRow(std::span<const double> centered, const DotRow& base,
                  std::size_t offset, std::size_t length,
                  std::vector<double>* out);

/// The exact dot rows of VALMOD's most recently recomputed rows, within a
/// fixed byte budget. A row that fails certification at one length usually
/// lies a few offsets from a row recomputed a few lengths earlier; deriving
/// it from that row costs a few O(n) recurrence passes instead of a MASS
/// FFT row.
///
/// Every pick is deterministic: bases by fewest steps, then shortest chain,
/// then insertion order; eviction by least recent use (an insert or a
/// pick). The caller picks and inserts serially, so the cache's contents
/// depend only on the order of those calls.
class DotRowCache {
 public:
  /// Bytes of cached dot products: about 16 rows at n = 4096.
  static constexpr std::size_t kBudgetBytes = std::size_t{512} << 10;
  /// The farthest a base may lie from the row it derives, in recurrence
  /// steps. A step costs about 1/70 of a MASS row at the sweep shape's
  /// n = 4096, l ~ 1000; on that shape 32 steps send 9% of the rows to
  /// MASS, 64 steps 5% and 128 steps 3%, and 64 is the fastest of the three.
  static constexpr std::size_t kMaxSteps = 64;

  /// A cache for rows of a series of `series_size` points: it holds
  /// kBudgetBytes / (series_size * sizeof(double)) rows, none when a single
  /// row would pass the budget.
  explicit DotRowCache(std::size_t series_size);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return slots_.size(); }

  /// The base for the row of window `offset` at `length`: a cached row at a
  /// length <= `length`, at most kMaxSteps recurrence steps away, whose
  /// chain plus those steps stays within `max_chain`; the nearest such row.
  /// Null when none is in reach. The pointer stays valid until the next
  /// Insert.
  const DotRow* FindBase(std::size_t offset, std::size_t length,
                         std::size_t max_chain);

  /// Caches `row`. It first drops every cached row it dominates: a row
  /// (o, l) with l <= row.length and |o - row.offset| <= row.length - l is
  /// never a nearer base than `row` for any later length (the same offset
  /// at a shorter length is the common case). Dominance ignores `chain`: a
  /// dropped row with a shorter chain could serve a target whose chain cap
  /// refuses `row`. Measured on five VALMOD shapes, no lookup was ever
  /// refused by the cap alone, while keeping such rows cost cache slots:
  /// on random_walk n=4096, l 896-1152 a chain-aware rule sent 271 rows to
  /// MASS instead of 142. Once the cache is full, the least recently used
  /// row makes room.
  void Insert(DotRow row);

 private:
  struct Slot {
    DotRow row;
    std::uint64_t last_used;
  };

  std::size_t capacity_;
  std::uint64_t clock_ = 0;
  std::vector<Slot> slots_;  // in insertion order
};

}  // namespace valmod::core

#endif  // VALMOD_CORE_DOT_ROW_CACHE_H_
