#include "core/dot_row_cache.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "series/znorm.h"
#include "simd/dispatch.h"

namespace valmod::core {

namespace {

std::size_t Shift(const DotRow& base, std::size_t offset) {
  return offset > base.offset ? offset - base.offset : base.offset - offset;
}

}  // namespace

std::size_t DerivationSteps(const DotRow& base, std::size_t offset,
                            std::size_t length) {
  return Shift(base, offset) + (length - base.length);
}

void DeriveDotRow(std::span<const double> centered, const DotRow& base,
                  std::size_t offset, std::size_t length,
                  std::vector<double>* out) {
  const double* c = centered.data();
  const std::size_t l = base.length;
  const std::size_t base_count = base.dots.size();
  const std::size_t count = centered.size() - length + 1;
  assert(l <= length && length <= centered.size() && offset < count);
  assert(base_count == centered.size() - l + 1 && base.offset < base_count);
  out->resize(count);
  double* d = out->data();

  // The cells [lo, hi) descend from base cells by offset steps; the rest
  // are direct dot products.
  std::size_t lo = 0;
  std::size_t hi = count;
  if (offset >= base.offset) {
    const std::size_t s = offset - base.offset;
    lo = std::min(s, count);
    std::copy(base.dots.begin(), base.dots.begin() + (hi - lo), d + lo);
    // Step t takes the cells of row a = base.offset + t, at columns
    // k = j - s + t, to (a + 1, k + 1).
    for (std::size_t t = 0; t < s; ++t) {
      const std::size_t a = base.offset + t;
      const double enter = c[a + l];
      const double leave = c[a];
      const double* col = c + t;
      for (std::size_t k = 0; k < hi - lo; ++k) {
        d[lo + k] = d[lo + k] + (enter * col[k + l] - leave * col[k]);
      }
    }
  } else {
    const std::size_t s = base.offset - offset;
    hi = std::min(count, base_count - s);
    std::copy(base.dots.begin() + s, base.dots.begin() + (s + hi), d);
    // Step t takes the cells of row base.offset - t, at columns
    // k = j + s - t, to (a, k - 1) with a = base.offset - t - 1.
    for (std::size_t t = 0; t < s; ++t) {
      const std::size_t a = base.offset - t - 1;
      const double enter = c[a];
      const double leave = c[a + l];
      const double* col = c + (s - t - 1);
      for (std::size_t j = 0; j < hi; ++j) {
        d[j] = d[j] + (enter * col[j] - leave * col[j + l]);
      }
    }
  }
  for (std::size_t t = l; t < length; ++t) {
    const double head = c[offset + t];
    for (std::size_t j = lo; j < hi; ++j) d[j] += head * c[j + t];
  }
  for (std::size_t j = 0; j < lo; ++j) {
    d[j] = series::DotProduct(c + offset, c + j, length);
  }
  for (std::size_t j = hi; j < count; ++j) {
    d[j] = series::DotProduct(c + offset, c + j, length);
  }
  simd::NoteKernelCalls(simd::KernelKind::kDotProduct, lo + (count - hi));
}

DotRowCache::DotRowCache(std::size_t series_size)
    : capacity_(kBudgetBytes / (std::max<std::size_t>(series_size, 1) *
                                sizeof(double))) {
  slots_.reserve(capacity_);
}

const DotRow* DotRowCache::FindBase(std::size_t offset, std::size_t length,
                                    std::size_t max_chain) {
  Slot* best = nullptr;
  std::size_t best_steps = 0;
  for (Slot& slot : slots_) {
    const DotRow& row = slot.row;
    if (row.length > length) continue;
    const std::size_t steps = DerivationSteps(row, offset, length);
    if (steps > kMaxSteps || row.chain + steps > max_chain) continue;
    if (best == nullptr || steps < best_steps ||
        (steps == best_steps && row.chain < best->row.chain)) {
      best = &slot;
      best_steps = steps;
    }
  }
  if (best == nullptr) return nullptr;
  best->last_used = ++clock_;
  return &best->row;
}

void DotRowCache::Insert(DotRow row) {
  if (capacity_ == 0) return;
  std::erase_if(slots_, [&](const Slot& slot) {
    return slot.row.length <= row.length &&
           Shift(slot.row, row.offset) <= row.length - slot.row.length;
  });
  if (slots_.size() == capacity_) {
    slots_.erase(std::min_element(
        slots_.begin(), slots_.end(), [](const Slot& a, const Slot& b) {
          return a.last_used < b.last_used;
        }));
  }
  slots_.push_back(Slot{std::move(row), ++clock_});
}

}  // namespace valmod::core
