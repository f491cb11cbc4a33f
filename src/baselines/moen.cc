#include "baselines/moen.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "mass/engine.h"
#include "mass/mass.h"
#include "mp/matrix_profile.h"
#include "mp/motif.h"
#include "series/znorm.h"
#include "stats/moving_stats.h"

namespace valmod::baselines {

namespace {

using mp::kInfinity;

/// Early-abandoning z-normalized distance: accumulates the squared
/// difference of the two normalized windows and gives up as soon as it
/// exceeds `bsf`. Returns +infinity on abandon.
double EarlyAbandonDistance(std::span<const double> centered, double mean_a,
                            double inv_std_a, double mean_b, double inv_std_b,
                            std::size_t a, std::size_t b, std::size_t length,
                            double bsf) {
  const double bsf_sq = bsf * bsf;
  double acc = 0.0;
  for (std::size_t t = 0; t < length; ++t) {
    const double za = (centered[a + t] - mean_a) * inv_std_a;
    const double zb = (centered[b + t] - mean_b) * inv_std_b;
    const double diff = za - zb;
    acc += diff * diff;
    if (acc > bsf_sq) return kInfinity;
  }
  return std::sqrt(acc);
}

struct BestPair {
  double distance = kInfinity;
  int64_t a = -1;
  int64_t b = -1;

  void Offer(double d, std::size_t i, std::size_t j) {
    if (d < distance) {
      distance = d;
      a = static_cast<int64_t>(std::min(i, j));
      b = static_cast<int64_t>(std::max(i, j));
    }
  }
};

}  // namespace

Result<std::vector<core::LengthMotifs>> RunMoen(
    const series::DataSeries& series, const MoenOptions& options) {
  if (options.min_length < 2 || options.min_length > options.max_length) {
    return Status::InvalidArgument("need 2 <= min_length <= max_length");
  }
  if (options.max_length + 1 > series.size()) {
    return Status::InvalidArgument("max_length leaves fewer than 2 windows");
  }
  if (options.num_references == 0) {
    return Status::InvalidArgument("num_references must be >= 1");
  }

  const stats::MovingStats& stats = series.stats();
  const auto centered = series.centered();
  const double const_threshold = stats.constant_std_threshold();

  // One engine across the whole length sweep: every length computes
  // `num_references` reference rows, and the cached series spectrum serves
  // them all.
  mass::MassEngine engine(series);

  std::vector<core::LengthMotifs> per_length;
  BestPair previous;  // motif of the previous length, seeds the next bsf

  for (std::size_t length = options.min_length; length <= options.max_length;
       ++length) {
    if (options.deadline.Expired()) {
      return Status::DeadlineExceeded("MOEN timed out at length " +
                                      std::to_string(length));
    }
    const std::size_t count = series.NumSubsequences(length);
    const std::size_t exclusion =
        mp::ExclusionZoneFor(length, options.exclusion_fraction);
    if (count <= exclusion) {
      per_length.push_back(core::LengthMotifs{length, {}});
      continue;
    }

    std::vector<double> means(count), stds(count);
    for (std::size_t i = 0; i < count; ++i) {
      means[i] = stats.CenteredMean(i, length);
      stds[i] = stats.StdDev(i, length);
    }

    BestPair best;
    // Seed: the previous motif re-measured at this length (cross-length
    // carry-over; exact because it is a real pair distance).
    if (previous.a >= 0 &&
        static_cast<std::size_t>(previous.b) + length <= series.size() &&
        static_cast<std::size_t>(previous.b - previous.a) >= exclusion) {
      VALMOD_ASSIGN_OR_RETURN(
          double d, series::SubsequenceDistance(
                        series, static_cast<std::size_t>(previous.a),
                        static_cast<std::size_t>(previous.b), length));
      best.Offer(d, static_cast<std::size_t>(previous.a),
                 static_cast<std::size_t>(previous.b));
    }

    // Reference distance profiles, evenly spread across the series.
    const std::size_t refs = std::min(options.num_references, count);
    std::vector<std::vector<double>> ref_profiles;
    ref_profiles.reserve(refs);
    for (std::size_t r = 0; r < refs; ++r) {
      const std::size_t ref_offset = r * (count - 1) / std::max<std::size_t>(
                                                           1, refs - 1);
      const std::size_t ref_rows[] = {ref_offset};
      VALMOD_ASSIGN_OR_RETURN(std::vector<std::vector<double>> dots,
                              engine.ComputeRowProfiles(ref_rows, length));
      mass::DistancesFromDots(series, ref_offset, length, dots[0],
                              &ref_profiles.emplace_back());
    }

    // Order subsequences by distance to the first reference; for sorted
    // values the pointwise gap D[i+g] - D[i] is non-decreasing in g, so the
    // scan over rank gaps can stop once the smallest gap reaches the bsf.
    std::vector<std::size_t> order(count);
    std::iota(order.begin(), order.end(), 0);
    const std::vector<double>& d0 = ref_profiles[0];
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      if (d0[x] != d0[y]) return d0[x] < d0[y];
      return x < y;
    });

    for (std::size_t gap = 1; gap < count; ++gap) {
      double min_gap_lb = kInfinity;
      for (std::size_t r = 0; r + gap < count; ++r) {
        const std::size_t i = order[r];
        const std::size_t j = order[r + gap];
        const double gap_lb = std::abs(d0[i] - d0[j]);
        min_gap_lb = std::min(min_gap_lb, gap_lb);
        if (gap_lb >= best.distance) continue;
        const std::size_t lo = std::min(i, j);
        const std::size_t hi = std::max(i, j);
        if (hi - lo < exclusion) continue;

        // Tighten with the remaining references before the exact pass.
        double lb = gap_lb;
        for (std::size_t q = 1; q < ref_profiles.size() && lb < best.distance;
             ++q) {
          lb = std::max(lb,
                        std::abs(ref_profiles[q][i] - ref_profiles[q][j]));
        }
        if (lb >= best.distance) continue;

        const bool const_i = stds[i] <= const_threshold;
        const bool const_j = stds[j] <= const_threshold;
        double d;
        if (const_i || const_j) {
          d = (const_i && const_j) ? 0.0
                                   : std::sqrt(static_cast<double>(length));
        } else {
          d = EarlyAbandonDistance(centered, means[i], 1.0 / stds[i],
                                   means[j], 1.0 / stds[j], i, j, length,
                                   best.distance);
        }
        best.Offer(d, i, j);
      }
      if (min_gap_lb >= best.distance) break;
      if ((gap & 63) == 0 && options.deadline.Expired()) {
        return Status::DeadlineExceeded("MOEN timed out at length " +
                                        std::to_string(length));
      }
    }

    core::LengthMotifs result;
    result.length = length;
    if (best.a >= 0) {
      mp::MotifPair pair;
      pair.offset_a = best.a;
      pair.offset_b = best.b;
      pair.length = length;
      pair.distance = best.distance;
      pair.normalized_distance =
          series::LengthNormalizedDistance(best.distance, length);
      result.motifs.push_back(pair);
    }
    per_length.push_back(std::move(result));
    previous = best;
  }
  return per_length;
}

}  // namespace valmod::baselines
