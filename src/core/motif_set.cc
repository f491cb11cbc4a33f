#include "core/motif_set.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "common/status.h"
#include "mass/mass.h"
#include "mp/matrix_profile.h"

namespace valmod::core {

Result<MotifSet> ExpandMotifSet(const series::DataSeries& series,
                                const mp::MotifPair& pair,
                                const MotifSetOptions& options) {
  mass::MassEngine engine(series);
  return ExpandMotifSet(engine, pair, options);
}

Result<MotifSet> ExpandMotifSet(mass::MassEngine& engine,
                                const mp::MotifPair& pair,
                                const MotifSetOptions& options) {
  const series::DataSeries& series = engine.series();
  if (pair.offset_a < 0 || pair.offset_b < 0 || pair.length == 0) {
    return Status::InvalidArgument("motif pair is not populated");
  }
  const std::size_t length = pair.length;
  const std::size_t count = series.NumSubsequences(length);
  if (count == 0 ||
      static_cast<std::size_t>(pair.offset_a) + length > series.size() ||
      static_cast<std::size_t>(pair.offset_b) + length > series.size()) {
    return Status::OutOfRange("motif pair does not fit the series");
  }

  double radius = options.radius;
  if (std::isnan(radius)) {
    if (options.radius_factor < 0.0) {
      return Status::InvalidArgument("radius_factor must be >= 0");
    }
    radius = options.radius_factor * pair.distance;
  }
  if (radius < 0.0) return Status::InvalidArgument("radius must be >= 0");

  const std::size_t exclusion =
      mp::ExclusionZoneFor(length, options.exclusion_fraction);

  // Distance to the nearer seed member, for every subsequence. Each seed
  // is its own 1-row batch: one 2-row batch would pair-pack them and round
  // differently.
  const auto seed_distances =
      [&](int64_t offset) -> Result<std::vector<double>> {
    const std::size_t row[] = {static_cast<std::size_t>(offset)};
    VALMOD_ASSIGN_OR_RETURN(std::vector<std::vector<double>> dots,
                            engine.ComputeRowProfiles(row, length));
    std::vector<double> distances;
    mass::DistancesFromDots(series, row[0], length, dots[0], &distances);
    return distances;
  };
  VALMOD_ASSIGN_OR_RETURN(std::vector<double> from_a,
                          seed_distances(pair.offset_a));
  VALMOD_ASSIGN_OR_RETURN(std::vector<double> from_b,
                          seed_distances(pair.offset_b));

  struct Candidate {
    double distance;
    int64_t offset;
  };
  // The seed subsequences are members by definition (distance 0 to
  // themselves); adding them explicitly keeps them in the set even when FFT
  // rounding puts their self-distance a hair above a zero radius.
  std::vector<Candidate> candidates = {{0.0, pair.offset_a},
                                       {0.0, pair.offset_b}};
  for (std::size_t j = 0; j < count; ++j) {
    if (static_cast<int64_t>(j) == pair.offset_a ||
        static_cast<int64_t>(j) == pair.offset_b) {
      continue;
    }
    const double d = std::min(from_a[j], from_b[j]);
    if (d <= radius) {
      candidates.push_back(Candidate{d, static_cast<int64_t>(j)});
    }
  }
  // Seeds lead the ordering below; ties resolve by offset for determinism.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& x, const Candidate& y) {
              if (x.distance != y.distance) return x.distance < y.distance;
              return x.offset < y.offset;
            });

  MotifSet set;
  set.seed = pair;
  set.radius = radius;
  for (const Candidate& candidate : candidates) {
    bool overlapping = false;
    for (const MotifSetMember& member : set.members) {
      if (std::llabs(member.offset - candidate.offset) <
          static_cast<int64_t>(exclusion)) {
        overlapping = true;
        break;
      }
    }
    if (!overlapping) {
      set.members.push_back(MotifSetMember{candidate.offset,
                                           candidate.distance});
    }
  }
  return set;
}

}  // namespace valmod::core
