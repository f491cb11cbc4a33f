#include "core/lower_bound.h"

#include <string>

#include "common/status.h"
#include "series/znorm.h"
#include "simd/dispatch.h"
#include "stats/moving_stats.h"

namespace valmod::core {

Result<double> PairLowerBound(const series::DataSeries& series,
                              std::size_t offset_a, std::size_t offset_b,
                              std::size_t base_length,
                              std::size_t target_length) {
  if (base_length == 0 || base_length > target_length) {
    return Status::InvalidArgument(
        "need 1 <= base_length <= target_length, got base=" +
        std::to_string(base_length) +
        " target=" + std::to_string(target_length));
  }
  if (offset_a + target_length > series.size() ||
      offset_b + target_length > series.size()) {
    return Status::OutOfRange("windows exceed the series at target length");
  }

  const stats::MovingStats& stats = series.stats();
  if (stats.IsConstant(offset_a, base_length) ||
      stats.IsConstant(offset_b, base_length)) {
    // Constant row window: residual is 0 (see header). Constant candidate
    // window: the candidate z-normalizes to zeros at the base length, the
    // regression degenerates to the rho <= 0 case.
    if (stats.IsConstant(offset_a, base_length)) return 0.0;
    return ScaledLowerBound(
        BaseLowerBound(0.0, base_length), stats.StdDev(offset_a, base_length),
        stats.StdDev(offset_a, target_length));
  }

  // Correlation at the base length from the centered representation.
  const auto c = series.centered();
  const double dot = series::DotProduct(c.data() + offset_a,
                                        c.data() + offset_b, base_length);
  simd::NoteKernelCalls(simd::KernelKind::kDotProduct, 1);
  const double rho = series::CorrelationFromDot(
      dot, stats.CenteredMean(offset_a, base_length),
      stats.CenteredMean(offset_b, base_length),
      stats.StdDev(offset_a, base_length),
      stats.StdDev(offset_b, base_length), base_length);

  return ScaledLowerBound(BaseLowerBound(rho, base_length),
                          stats.StdDev(offset_a, base_length),
                          stats.StdDev(offset_a, target_length));
}

}  // namespace valmod::core
