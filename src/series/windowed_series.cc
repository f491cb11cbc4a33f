#include "series/windowed_series.h"

namespace valmod::series {

std::size_t WindowedSeries::Append(double value) {
  buffer_.PushBack(value);
  if (max_points_ == 0 || buffer_.size() <= max_points_) return 0;
  buffer_.PopFront();
  ++evicted_;
  return 1;
}

}  // namespace valmod::series
