#include "stats/moving_stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "simd/dispatch.h"

namespace valmod::stats {

Result<MovingStats> MovingStats::Create(std::span<const double> data) {
  if (data.empty()) {
    return Status::InvalidArgument("MovingStats requires a non-empty series");
  }
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (!std::isfinite(data[i])) {
      return Status::InvalidArgument("non-finite value at index " +
                                     std::to_string(i));
    }
  }

  MovingStats stats;
  stats.n_ = data.size();
  // Neumaier-compensated global mean: the shift that conditions everything
  // downstream, so compute it carefully.
  double sum = 0.0, comp = 0.0;
  for (double x : data) {
    const double t = sum + x;
    if (std::abs(sum) >= std::abs(x)) {
      comp += (sum - t) + x;
    } else {
      comp += (x - t) + sum;
    }
    sum = t;
  }
  stats.global_mean_ = (sum + comp) / static_cast<double>(data.size());

  stats.centered_.resize(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    stats.centered_[i] = data[i] - stats.global_mean_;
  }

  stats.prefix_.resize(data.size() + 1, 0.0);
  stats.prefix_sq_.resize(data.size() + 1, 0.0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double c = stats.centered_[i];
    stats.prefix_[i + 1] = stats.prefix_[i] + c;
    stats.prefix_sq_[i + 1] = stats.prefix_sq_[i] + c * c;
  }
  // Finite values can still overflow their sums. An overflowing global mean
  // or centered value reaches the sum of squares too, and past that every
  // window would read as constant, so one check on the total covers all
  // three.
  if (!std::isfinite(stats.prefix_sq_.back())) {
    return Status::InvalidArgument(
        "value magnitudes overflow the series' sum of squares");
  }

  const double global_variance = stats.Variance(0, stats.n_);
  stats.constant_variance_threshold_ =
      kConstantVarianceEpsilon * std::max(1.0, global_variance);
  stats.constant_std_threshold_ =
      std::sqrt(stats.constant_variance_threshold_);
  return stats;
}

double MovingStats::Mean(std::size_t offset, std::size_t length) const {
  assert(length >= 1 && offset + length <= n_);
  const double centered_mean =
      (prefix_[offset + length] - prefix_[offset]) /
      static_cast<double>(length);
  return centered_mean + global_mean_;
}

double MovingStats::CenteredMean(std::size_t offset,
                                 std::size_t length) const {
  assert(length >= 1 && offset + length <= n_);
  return (prefix_[offset + length] - prefix_[offset]) /
         static_cast<double>(length);
}

double MovingStats::Variance(std::size_t offset, std::size_t length) const {
  assert(length >= 1 && offset + length <= n_);
  if (length == 1) return 0.0;  // exact; avoids sqrt-amplified rounding
  const double inv_len = 1.0 / static_cast<double>(length);
  const double mean = (prefix_[offset + length] - prefix_[offset]) * inv_len;
  const double mean_sq =
      (prefix_sq_[offset + length] - prefix_sq_[offset]) * inv_len;
  const double var = mean_sq - mean * mean;
  return var > 0.0 ? var : 0.0;
}

double MovingStats::StdDev(std::size_t offset, std::size_t length) const {
  return std::sqrt(Variance(offset, length));
}

Status MovingStats::WindowStats(std::size_t length, std::vector<double>* means,
                                std::vector<double>* std_devs) const {
  return SweepWindowStats(length, global_mean_, means, std_devs);
}

Status MovingStats::CenteredWindowStats(std::size_t length,
                                        std::vector<double>* means,
                                        std::vector<double>* std_devs) const {
  return SweepWindowStats(length, 0.0, means, std_devs);
}

Status MovingStats::SweepWindowStats(std::size_t length, double mean_shift,
                                     std::vector<double>* means,
                                     std::vector<double>* std_devs) const {
  if (length == 0) {
    return Status::InvalidArgument("window length must be positive");
  }
  if (length > n_) {
    return Status::OutOfRange("window length " + std::to_string(length) +
                              " exceeds series length " + std::to_string(n_));
  }
  const std::size_t count = n_ - length + 1;
  means->resize(count);
  std_devs->resize(count);
  if (length == 1) {
    // Variance(i, 1) is exactly 0 (see Variance's early return); the
    // dispatched sweep kernel assumes length >= 2.
    for (std::size_t i = 0; i < count; ++i) {
      (*means)[i] = CenteredMean(i, length) + mean_shift;
    }
    std::fill(std_devs->begin(), std_devs->end(), 0.0);
    return Status::Ok();
  }
  // One dense sweep over the prefix arrays, runtime-dispatched to the best
  // SIMD target; bit-identical to the per-window Mean/StdDev loop (and,
  // with a zero shift, to CenteredMean).
  simd::ActiveKernels().window_stats(prefix_.data(), prefix_sq_.data(), count,
                                     length, mean_shift, means->data(),
                                     std_devs->data());
  simd::NoteKernelCalls(simd::KernelKind::kWindowStats, 1);
  return Status::Ok();
}

}  // namespace valmod::stats
