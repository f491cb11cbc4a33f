#ifndef VALMOD_SERIES_WINDOWED_SERIES_H_
#define VALMOD_SERIES_WINDOWED_SERIES_H_

#include <cstddef>
#include <span>
#include <vector>

namespace valmod::series {

/// Contiguous sliding buffer: a ring buffer that trades a bounded amount of
/// slack memory for a *contiguous* live region, which is what every kernel
/// in this library wants (SIMD dot products, FFT chunking, and DataSeries
/// materialization all take flat spans — a two-segment ring would force a
/// copy per use).
///
/// PopFront advances a head offset instead of moving elements; when the dead
/// prefix grows as large as the live region the buffer compacts with one
/// memmove, so the amortized cost per point is O(1) and the footprint never
/// exceeds ~2x the live size (plus vector growth slack).
template <typename T>
class SlidingBuffer {
 public:
  std::size_t size() const { return buffer_.size() - head_; }

  /// Live-relative access: index 0 is the oldest retained element.
  T& operator[](std::size_t i) { return buffer_[head_ + i]; }
  const T& operator[](std::size_t i) const { return buffer_[head_ + i]; }

  T& back() { return buffer_.back(); }
  const T& back() const { return buffer_.back(); }

  /// Contiguous live region.
  std::span<const T> Span() const {
    return std::span<const T>(buffer_.data() + head_, size());
  }
  std::span<T> MutableSpan() {
    return std::span<T>(buffer_.data() + head_, size());
  }
  const T* Data() const { return buffer_.data() + head_; }
  T* Data() { return buffer_.data() + head_; }

  void PushBack(T value) { buffer_.push_back(std::move(value)); }

  /// Drops the `count` oldest elements. Compacts (one erase/memmove) once
  /// the dead prefix reaches the live size, keeping memory bounded by ~2x
  /// the live region without paying a move per pop.
  void PopFront(std::size_t count = 1) {
    head_ += count;
    if (head_ >= buffer_.size() - head_) Compact();
  }

  /// Reserves room for `additional` pushes beyond the current size.
  void Reserve(std::size_t additional) {
    buffer_.reserve(buffer_.size() + additional);
  }

  void Clear() {
    buffer_.clear();
    head_ = 0;
  }

  /// Number of compactions so far (deterministic for a given push/pop
  /// sequence; exposed for tests asserting the amortization actually runs).
  std::size_t compactions() const { return compactions_; }

  std::size_t MemoryBytes() const { return buffer_.capacity() * sizeof(T); }

 private:
  void Compact() {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
    ++compactions_;
  }

  std::vector<T> buffer_;
  std::size_t head_ = 0;
  std::size_t compactions_ = 0;
};

/// A windowed (bounded-history) series for streaming ingestion: appends at
/// the tail, evicts aged-out points at the head once `max_points` is
/// reached, and keeps the retained window contiguous in memory. This is the
/// storage layer under `mp::StreamingProfile`'s windowed mode and the
/// registry's streaming snapshots.
///
/// Indexing: retained point `i` corresponds to global stream position
/// `start_index() + i`; `start_index()` equals the total number of points
/// evicted so far, so callers can map window-relative results back to
/// stream positions.
class WindowedSeries {
 public:
  /// `max_points == 0` means unbounded (never evicts).
  explicit WindowedSeries(std::size_t max_points = 0)
      : max_points_(max_points) {}

  /// Appends one point; returns the number of points evicted to stay within
  /// `max_points` (0 or 1). The caller validates finiteness if it cares —
  /// the buffer itself is value-agnostic.
  std::size_t Append(double value);

  /// Reserves room for `additional` appends.
  void Reserve(std::size_t additional) { buffer_.Reserve(additional); }

  /// The retained window, oldest first, contiguous.
  std::span<const double> values() const { return buffer_.Span(); }
  /// Mutable view of the retained window (used by re-anchoring, which
  /// subtracts a constant from every retained value in place).
  std::span<double> mutable_values() { return buffer_.MutableSpan(); }

  double operator[](std::size_t i) const { return buffer_[i]; }

  std::size_t size() const { return buffer_.size(); }
  std::size_t max_points() const { return max_points_; }
  /// Global stream position of the first retained point == total evicted.
  std::size_t start_index() const { return evicted_; }
  std::size_t total_appended() const { return evicted_ + buffer_.size(); }
  std::size_t compactions() const { return buffer_.compactions(); }

  std::size_t MemoryBytes() const { return buffer_.MemoryBytes(); }

 private:
  SlidingBuffer<double> buffer_;
  std::size_t max_points_ = 0;
  std::size_t evicted_ = 0;
};

}  // namespace valmod::series

#endif  // VALMOD_SERIES_WINDOWED_SERIES_H_
