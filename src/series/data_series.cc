#include "series/data_series.h"

#include <string>
#include <utility>

namespace valmod::series {

Result<DataSeries> DataSeries::Create(std::vector<double> values) {
  VALMOD_ASSIGN_OR_RETURN(stats::MovingStats stats,
                          stats::MovingStats::Create(values));
  return DataSeries(std::move(values), std::move(stats));
}

DataSeries DataSeries::Clone() const {
  std::vector<double> copy(values_);
  Result<DataSeries> cloned = Create(std::move(copy));
  // The source series already passed validation, so re-validation of the
  // same data cannot fail.
  return std::move(cloned).value();
}

Result<DataSeries> DataSeries::Prefix(std::size_t count) const {
  if (count == 0 || count > values_.size()) {
    return Status::OutOfRange("prefix of " + std::to_string(count) +
                              " points from a series of " +
                              std::to_string(values_.size()));
  }
  std::vector<double> head(values_.begin(),
                           values_.begin() + static_cast<long>(count));
  return Create(std::move(head));
}

Result<std::vector<double>> DataSeries::Subsequence(
    std::size_t offset, std::size_t length) const {
  if (length == 0 || offset + length > values_.size()) {
    return Status::OutOfRange(
        "subsequence (offset=" + std::to_string(offset) +
        ", length=" + std::to_string(length) + ") outside series of size " +
        std::to_string(values_.size()));
  }
  return std::vector<double>(
      values_.begin() + static_cast<long>(offset),
      values_.begin() + static_cast<long>(offset + length));
}

}  // namespace valmod::series
