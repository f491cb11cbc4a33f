#include "core/partial_profile.h"

#include <algorithm>
#include <cassert>

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

}  // namespace

PartialProfileSet::PartialProfileSet(std::size_t rows, std::size_t p,
                                     std::size_t base_length)
    : p_(p),
      entries_(rows * p),
      row_size_(rows, 0),
      max_base_lb_(rows, kInfinity),
      admit_(rows, kInfinity),
      base_length_(rows, base_length) {}

bool PartialProfileSet::Grow(std::size_t row, std::size_t capacity) {
  const std::size_t current = this->capacity(row);
  if (!seeded(row) || capacity <= current) return false;
  const std::size_t room =
      rows() * std::max(p_, kBudgetPerRow) - entries_.size();
  const std::size_t released = current > p_ ? current : 0;
  if (grown_entries_ - released + capacity > room) return false;
  if (slices_.empty()) {
    slices_.assign(rows(), Slice{0, p_});
    // The whole room up front: slices move only when CompactPool moves
    // them, and untouched pages cost no memory.
    pool_.reserve(room);
  }
  Reset(row, base_length_[row]);
  slices_[row].capacity = p_;  // its old slice, if any, is abandoned
  grown_entries_ -= released;
  if (pool_.size() + capacity > room) CompactPool();
  slices_[row] = Slice{pool_.size(), capacity};
  pool_.resize(pool_.size() + capacity);
  grown_entries_ += capacity;
  return true;
}

void PartialProfileSet::CompactPool() {
  std::vector<std::size_t> grown;
  for (std::size_t row = 0; row < rows(); ++row) {
    if (slices_[row].capacity > p_) grown.push_back(row);
  }
  std::sort(grown.begin(), grown.end(), [&](std::size_t a, std::size_t b) {
    return slices_[a].offset < slices_[b].offset;
  });
  std::size_t end = 0;
  for (std::size_t row : grown) {
    Slice& slice = slices_[row];
    // Slices only move down, so a forward copy never overwrites its source
    // before reading it.
    const Entry* from = pool_.data() + slice.offset;
    std::copy(from, from + row_size_[row], pool_.data() + end);
    slice.offset = end;
    end += slice.capacity;
  }
  pool_.resize(end);
}

void PartialProfileSet::OfferInto(Entry* base, std::size_t capacity,
                                  std::size_t row, const Entry& entry) {
  std::size_t& size = row_size_[row];
  const BaseLbOrder order{row};
  if (size < capacity) {
    base[size] = entry;
    ++size;
    std::push_heap(base, base + size, order);
  } else {
    if (!order(entry, base[0])) return;  // after the worst stored
    std::pop_heap(base, base + size, order);
    base[size - 1] = entry;
    std::push_heap(base, base + size, order);
  }
  if (size == capacity) admit_[row] = base[0].base_lb;
}

void PartialProfileSet::Offer(std::size_t row, int64_t match, double dot,
                              double base_lb) {
  OfferInto(RowBase(row), capacity(row), row, Entry{match, dot, base_lb});
}

void PartialProfileSet::OfferAtStride(void* set, std::size_t row,
                                      int64_t match, double dot,
                                      double base_lb) {
  auto* self = static_cast<PartialProfileSet*>(set);
  self->OfferInto(&self->entries_[row * self->p_], self->p_, row,
                  Entry{match, dot, base_lb});
}

simd::OfferSink PartialProfileSet::Sink() {
  assert(slices_.empty());
  return {admit_.data(), &OfferAtStride, this};
}

void PartialProfileSet::OfferAny(void* set, std::size_t row, int64_t match,
                                 double dot, double base_lb) {
  static_cast<PartialProfileSet*>(set)->Offer(row, match, dot, base_lb);
}

simd::OfferSink PartialProfileSet::ReseedSink() {
  return {admit_.data(), &OfferAny, this};
}

void PartialProfileSet::FinishSeeding(std::size_t row) {
  Entry* base = RowBase(row);
  const std::size_t size = row_size_[row];
  std::sort(base, base + size, BaseLbOrder{row});
  max_base_lb_[row] = size == capacity(row) ? base[size - 1].base_lb
                                            : kInfinity;
}

void PartialProfileSet::Reset(std::size_t row, std::size_t base_length) {
  row_size_[row] = 0;
  max_base_lb_[row] = kInfinity;
  admit_[row] = kInfinity;
  base_length_[row] = base_length;
}

}  // namespace valmod::core
