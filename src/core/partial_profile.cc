#include "core/partial_profile.h"

#include <algorithm>

#include "common/match_order.h"

namespace valmod::core {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// MatchPrecedes on base LB within one row. As the heap order it makes the
/// root the worst stored candidate, the one evicted first.
struct BaseLbOrder {
  std::size_t row;
  bool operator()(const Entry& a, const Entry& b) const {
    return MatchPrecedes(a.base_lb, a.match, b.base_lb, b.match, row);
  }
};

void OfferToSet(void* set, std::size_t row, std::int64_t match, double dot,
                double base_lb) {
  static_cast<PartialProfileSet*>(set)->Offer(row, match, dot, base_lb);
}

}  // namespace

PartialProfileSet::PartialProfileSet(std::size_t rows, std::size_t p,
                                     std::size_t base_length)
    : p_(p),
      entries_(rows * p),
      row_size_(rows, 0),
      max_base_lb_(rows, kInfinity),
      admit_(rows, kInfinity),
      base_length_(rows, base_length) {}

void PartialProfileSet::Offer(std::size_t row, int64_t match, double dot,
                              double base_lb) {
  Entry* base = &entries_[row * p_];
  std::size_t& size = row_size_[row];
  const BaseLbOrder order{row};
  const Entry entry{match, dot, base_lb, 0.0};
  if (size < p_) {
    base[size] = entry;
    ++size;
    std::push_heap(base, base + size, order);
  } else {
    if (!order(entry, base[0])) return;  // after the worst stored
    std::pop_heap(base, base + size, order);
    base[size - 1] = entry;
    std::push_heap(base, base + size, order);
  }
  if (size == p_) admit_[row] = base[0].base_lb;
}

simd::OfferSink PartialProfileSet::Sink() {
  return {admit_.data(), &OfferToSet, this};
}

void PartialProfileSet::FinishSeeding(std::size_t row) {
  Entry* base = &entries_[row * p_];
  const std::size_t size = row_size_[row];
  std::sort(base, base + size, BaseLbOrder{row});
  max_base_lb_[row] = size == p_ ? base[size - 1].base_lb : kInfinity;
}

void PartialProfileSet::Reset(std::size_t row, std::size_t base_length) {
  row_size_[row] = 0;
  max_base_lb_[row] = kInfinity;
  admit_[row] = kInfinity;
  base_length_[row] = base_length;
}

}  // namespace valmod::core
