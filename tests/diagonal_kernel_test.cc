// Parity of the diagonal-tile walker (mp/diagonal.h). On every SIMD target
// this build and CPU support, and at 1-4 workers, the walker's minima and
// seeded partial profiles must equal, bit for bit, a scalar reference walk
// that visits one diagonal at a time with the library's scalar formulas
// (series::PairDistanceFromDot, core::BaseLowerBound) and the MatchPrecedes
// tie rule. The cases cover ragged tiles, scans shorter than one tile,
// AB-joins (no exclusion zone, negative diagonals), constant plateaus,
// windows on either side of the constant-window threshold and exact ties.
// The row re-seed kernel, which shares the tile's cell math, is held to the
// same scalar formulas on the same kinds of rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/match_order.h"
#include "common/parallel.h"
#include "core/lower_bound.h"
#include "core/partial_profile.h"
#include "mass/mass.h"
#include "mp/ab_join.h"
#include "mp/diagonal.h"
#include "mp/stomp.h"
#include "series/generators.h"
#include "series/znorm.h"
#include "simd/dispatch.h"

namespace valmod::mp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kP = 5;

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

struct Minima {
  explicit Minima(std::size_t count)
      : distances(count, kInf), indices(count, -1) {}
  std::vector<double> distances;
  std::vector<std::int64_t> indices;

  void Update(std::size_t row, double distance, std::size_t match) {
    const auto m = static_cast<std::int64_t>(match);
    if (MatchPrecedes(distance, m, distances[row], indices[row], row)) {
      distances[row] = distance;
      indices[row] = m;
    }
  }
};

void SortByBaseLb(std::size_t row, std::vector<core::Entry>* entries) {
  std::sort(entries->begin(), entries->end(),
            [row](const core::Entry& x, const core::Entry& y) {
              return MatchPrecedes(x.base_lb, x.match, y.base_lb, y.match,
                                   row);
            });
}

/// The reference: every diagonal on its own, from a direct dot product at
/// its first cell, in the textbook order. `candidates[r]` holds every
/// candidate of a non-constant row r in MatchPrecedes order on base LB
/// (self-joins); a partial profile keeps the first p of them.
struct Reference {
  Minima minima;
  std::vector<std::vector<core::Entry>> candidates;
};

Reference ReferenceWalk(const DiagonalScan& scan) {
  const simd::WindowArrays& a = scan.a;
  const simd::WindowArrays& b = scan.self_join ? scan.a : scan.b;
  const std::size_t l = scan.length;
  Reference ref{Minima(a.count), std::vector<std::vector<core::Entry>>(
                                     scan.self_join ? a.count : 0)};
  const long first = scan.self_join ? static_cast<long>(scan.exclusion)
                                    : 1 - static_cast<long>(a.count);
  for (long d = first; d < static_cast<long>(b.count); ++d) {
    const std::size_t i0 = d >= 0 ? 0 : static_cast<std::size_t>(-d);
    const std::size_t j0 = d >= 0 ? static_cast<std::size_t>(d) : 0;
    if (i0 >= a.count) continue;
    double qt = series::DotProduct(a.values + i0, b.values + j0, l);
    for (std::size_t i = i0, j = j0; i < a.count && j < b.count; ++i, ++j) {
      if (i > i0) {
        qt += a.values[i + l - 1] * b.values[j + l - 1] -
              a.values[i - 1] * b.values[j - 1];
      }
      const bool const_i = a.is_const[i] != 0;
      const bool const_j = b.is_const[j] != 0;
      const double distance =
          series::PairDistanceFromDot(qt, a.means[i], b.means[j], a.stds[i],
                                      b.stds[j], l, const_i, const_j);
      ref.minima.Update(i, distance, j);
      if (!scan.self_join) continue;
      ref.minima.Update(j, distance, i);
      const double rho =
          const_i || const_j
              ? 0.0
              : series::CorrelationFromDot(qt, a.means[i], b.means[j],
                                           a.stds[i], b.stds[j], l);
      const double base_lb = core::BaseLowerBound(rho, l);
      if (!const_i) {
        ref.candidates[i].push_back(
            {static_cast<std::int64_t>(j), qt, base_lb});
      }
      if (!const_j) {
        ref.candidates[j].push_back(
            {static_cast<std::int64_t>(i), qt, base_lb});
      }
    }
  }
  for (std::size_t r = 0; r < ref.candidates.size(); ++r) {
    SortByBaseLb(r, &ref.candidates[r]);
  }
  return ref;
}

struct Walked {
  Minima minima;
  std::unique_ptr<core::PartialProfileSet> partial;
};

/// The walker as VALMOD's seeding scan drives it: one partial set per
/// worker (constant rows closed), merged into the first after the walk.
Walked WalkScan(const DiagonalScan& scan, int threads) {
  const std::size_t count = scan.a.count;
  const std::size_t workers = DiagonalWorkers(scan, threads);
  std::vector<std::unique_ptr<core::PartialProfileSet>> sets;
  std::vector<simd::OfferSink> sinks;
  if (scan.self_join) {
    for (std::size_t w = 0; w < workers; ++w) {
      sets.push_back(
          std::make_unique<core::PartialProfileSet>(count, kP, scan.length));
      for (std::size_t r = 0; r < count; ++r) {
        if (scan.a.is_const[r] != 0) sets.back()->Close(r);
      }
      sinks.push_back(sets.back()->Sink());
    }
  }
  Walked out{Minima(count), nullptr};
  EXPECT_TRUE(WalkDiagonals(scan, workers, Deadline(), sinks,
                            out.minima.distances.data(),
                            out.minima.indices.data()));
  if (!scan.self_join) return out;
  for (std::size_t w = 1; w < workers; ++w) {
    for (std::size_t r = 0; r < count; ++r) {
      for (const core::Entry& e : sets[w]->Row(r)) {
        sets[0]->Offer(r, e.match, e.dot, e.base_lb);
      }
    }
  }
  for (std::size_t r = 0; r < count; ++r) {
    if (sets[0]->seeded(r)) sets[0]->FinishSeeding(r);
  }
  out.partial = std::move(sets[0]);
  return out;
}

void ExpectSameMinima(const Minima& got, const Minima& want,
                      const std::string& where) {
  ASSERT_EQ(got.distances.size(), want.distances.size()) << where;
  for (std::size_t i = 0; i < want.distances.size(); ++i) {
    EXPECT_EQ(Bits(got.distances[i]), Bits(want.distances[i]))
        << where << " row " << i << ": " << got.distances[i] << " vs "
        << want.distances[i];
    EXPECT_EQ(got.indices[i], want.indices[i]) << where << " row " << i;
  }
}

void ExpectSamePartial(const core::PartialProfileSet& got,
                       const Reference& want, const simd::WindowArrays& a,
                       const std::string& where) {
  for (std::size_t r = 0; r < a.count; ++r) {
    if (a.is_const[r] != 0) {
      EXPECT_FALSE(got.seeded(r)) << where << " row " << r;
      continue;
    }
    const auto row = got.Row(r);
    const auto& all = want.candidates[r];
    const std::vector<core::Entry> expected(
        all.begin(), all.begin() + std::min(all.size(), kP));
    ASSERT_EQ(row.size(), expected.size()) << where << " row " << r;
    for (std::size_t e = 0; e < row.size(); ++e) {
      EXPECT_EQ(row[e].match, expected[e].match) << where << " row " << r;
      EXPECT_EQ(Bits(row[e].dot), Bits(expected[e].dot))
          << where << " row " << r;
      EXPECT_EQ(Bits(row[e].base_lb), Bits(expected[e].base_lb))
          << where << " row " << r;
    }
    const double bound =
        expected.size() == kP ? expected.back().base_lb : kInf;
    EXPECT_EQ(Bits(got.max_base_lb(r)), Bits(bound)) << where << " row " << r;
  }
}

/// Records every offer a worker's tiles make.
struct OfferLog {
  std::vector<std::vector<core::Entry>> rows;

  static void Record(void* log, std::size_t row, std::int64_t match,
                     double dot, double base_lb) {
    static_cast<OfferLog*>(log)->rows[row].push_back(
        {match, dot, base_lb});
  }
};

/// The gate contract on its own: with admit[r] held at the p-th base LB of
/// row r — a value some candidates equal exactly — the tiles must offer
/// exactly the candidates with base_lb <= admit[r], bit for bit.
void ExpectGateContract(const DiagonalScan& scan, const Reference& want,
                        int threads, const std::string& where) {
  const std::size_t count = scan.a.count;
  std::vector<double> admit(count, -kInf);
  for (std::size_t r = 0; r < count; ++r) {
    const auto& all = want.candidates[r];
    if (scan.a.is_const[r] == 0 && !all.empty()) {
      admit[r] = all[std::min(all.size(), kP) - 1].base_lb;
    }
  }
  const std::size_t workers = DiagonalWorkers(scan, threads);
  std::vector<OfferLog> logs(workers);
  std::vector<simd::OfferSink> sinks;
  for (OfferLog& log : logs) {
    log.rows.resize(count);
    sinks.push_back({admit.data(), &OfferLog::Record, &log});
  }
  Minima minima(count);
  ASSERT_TRUE(WalkDiagonals(scan, workers, Deadline(), sinks,
                            minima.distances.data(), minima.indices.data()));
  for (std::size_t r = 0; r < count; ++r) {
    std::vector<core::Entry> offered;
    for (const OfferLog& log : logs) {
      offered.insert(offered.end(), log.rows[r].begin(), log.rows[r].end());
    }
    SortByBaseLb(r, &offered);
    std::vector<core::Entry> expected;
    for (const core::Entry& e : want.candidates[r]) {
      if (e.base_lb <= admit[r]) expected.push_back(e);
    }
    ASSERT_EQ(offered.size(), expected.size()) << where << " gate row " << r;
    for (std::size_t e = 0; e < expected.size(); ++e) {
      EXPECT_EQ(offered[e].match, expected[e].match) << where << " row " << r;
      EXPECT_EQ(Bits(offered[e].dot), Bits(expected[e].dot))
          << where << " row " << r;
      EXPECT_EQ(Bits(offered[e].base_lb), Bits(expected[e].base_lb))
          << where << " row " << r;
    }
  }
}

series::DataSeries RandomWalk(std::size_t n, std::uint64_t seed) {
  auto series = synth::ByName("random_walk", n, seed);
  EXPECT_TRUE(series.ok());
  return std::move(*series);
}

series::DataSeries FromValues(std::vector<double> values) {
  auto series = series::DataSeries::Create(std::move(values));
  EXPECT_TRUE(series.ok());
  return std::move(*series);
}

std::vector<double> ValuesOf(const series::DataSeries& series) {
  return {series.values().begin(), series.values().end()};
}

/// A random walk with two plateaus at the same level: constant windows at
/// distance 0 from each other (exact ties) next to ordinary ones.
series::DataSeries Plateaus(std::size_t n, std::uint64_t seed) {
  std::vector<double> v = ValuesOf(RandomWalk(n, seed));
  std::fill(v.begin() + n / 6, v.begin() + n / 6 + n / 8, v[n / 6]);
  std::fill(v.begin() + 2 * n / 3, v.begin() + 2 * n / 3 + n / 9, v[n / 6]);
  return FromValues(std::move(v));
}

/// A random walk with two quiet stretches whose alternating wiggle puts
/// their window standard deviations at half and at twice the series'
/// constant-window threshold.
series::DataSeries NearThreshold(std::size_t n, std::uint64_t seed) {
  std::vector<double> v = ValuesOf(RandomWalk(n, seed));
  const double threshold =
      FromValues(v).stats().constant_std_threshold();
  const auto wiggle = [&](std::size_t from, std::size_t to, double amp) {
    const double level = v[from];
    for (std::size_t i = from; i < to; ++i) {
      v[i] = level + (i % 2 == 0 ? amp : -amp);
    }
  };
  wiggle(n / 5, n / 5 + n / 6, 0.5 * threshold);
  wiggle(3 * n / 5, 3 * n / 5 + n / 6, 2.0 * threshold);
  return FromValues(std::move(v));
}

/// Runs one scan against the reference on every target and worker count.
void CheckScan(const DiagonalScan& scan, const std::string& name) {
  const Reference want = ReferenceWalk(scan);
  const simd::Target original = simd::ActiveTarget();
  for (const simd::Target target : simd::SupportedTargets()) {
    ASSERT_TRUE(simd::SetTarget(target).ok());
    for (int threads = 1; threads <= 4; ++threads) {
      const std::string where = name + " target=" +
                                simd::TargetName(target) +
                                " threads=" + std::to_string(threads);
      const Walked got = WalkScan(scan, threads);
      ExpectSameMinima(got.minima, want.minima, where);
      if (scan.self_join) ExpectSamePartial(*got.partial, want, scan.a, where);

      if (scan.self_join) ExpectGateContract(scan, want, threads, where);

      // Outputs pre-filled with each row's minimum distance but a farther
      // match: every cell that ties the minimum must reach the exact
      // tie-break (the vector compare is <=, not <), so the nearest match
      // replaces the farther one.
      Minima tied = want.minima;
      for (std::size_t i = 0; i < tied.indices.size(); ++i) {
        if (tied.indices[i] >= 0) {
          tied.indices[i] =
              static_cast<std::int64_t>(i + scan.a.count + scan.b.count);
        }
      }
      EXPECT_TRUE(WalkDiagonals(scan, DiagonalWorkers(scan, threads),
                                Deadline(), {}, tied.distances.data(),
                                tied.indices.data()));
      ExpectSameMinima(tied, want.minima, where + " tied");
    }
  }
  ASSERT_TRUE(simd::SetTarget(original).ok());
}

void CheckSelfJoin(const series::DataSeries& series, std::size_t length,
                   double exclusion_fraction, const std::string& name) {
  WindowStats windows;
  ASSERT_TRUE(windows.Compute(series, length).ok());
  DiagonalScan scan;
  scan.a = windows.Arrays(series);
  scan.length = length;
  scan.exclusion = ExclusionZoneFor(length, exclusion_fraction);
  CheckScan(scan, name);

  // The public entry point walks the same scan.
  const Reference want = ReferenceWalk(scan);
  for (int threads : {1, 3}) {
    ProfileOptions options;
    options.exclusion_fraction = exclusion_fraction;
    options.num_threads = threads;
    auto stomp = ComputeStomp(series, length, options);
    ASSERT_TRUE(stomp.ok());
    Minima got(0);
    got.distances = stomp->distances;
    got.indices = stomp->indices;
    ExpectSameMinima(
        got, want.minima,
        name + " ComputeStomp threads=" + std::to_string(threads));
  }
}

void CheckAbJoin(const series::DataSeries& a, const series::DataSeries& b,
                 std::size_t length, const std::string& name) {
  WindowStats windows_a, windows_b;
  ASSERT_TRUE(windows_a.Compute(a, length).ok());
  ASSERT_TRUE(windows_b.Compute(b, length).ok());
  DiagonalScan scan;
  scan.a = windows_a.Arrays(a);
  scan.b = windows_b.Arrays(b);
  scan.length = length;
  scan.self_join = false;
  CheckScan(scan, name);

  const Reference want = ReferenceWalk(scan);
  for (int threads : {1, 3}) {
    ProfileOptions options;
    options.num_threads = threads;
    auto join = ComputeAbJoin(a, b, length, options);
    ASSERT_TRUE(join.ok());
    Minima got(0);
    got.distances = join->distances;
    got.indices = join->indices;
    ExpectSameMinima(
        got, want.minima,
        name + " ComputeAbJoin threads=" + std::to_string(threads));
  }
}

TEST(DiagonalKernelTest, RaggedLastTile) {
  // 185 windows, exclusion 4: 181 diagonals, one lane in the last tile.
  CheckSelfJoin(RandomWalk(200, 3), 16, 0.25, "ragged");
}

TEST(DiagonalKernelTest, FewerDiagonalsThanOneTile) {
  // 7 windows, exclusion 4: diagonals 4..6 only.
  CheckSelfJoin(RandomWalk(22, 4), 16, 0.25, "short");
}

TEST(DiagonalKernelTest, OrdinarySeries) {
  auto ecg = synth::ByName("ecg", 700, 5);
  ASSERT_TRUE(ecg.ok());
  CheckSelfJoin(*ecg, 40, 0.5, "ecg");
}

TEST(DiagonalKernelTest, ConstantPlateaus) {
  CheckSelfJoin(Plateaus(600, 6), 24, 0.5, "plateaus");
}

TEST(DiagonalKernelTest, WindowsAroundConstantThreshold) {
  const series::DataSeries series = NearThreshold(500, 7);
  const std::size_t length = 20;
  WindowStats windows;
  ASSERT_TRUE(windows.Compute(series, length).ok());
  const double threshold = series.stats().constant_std_threshold();
  std::size_t below = 0, just_above = 0;
  for (double s : windows.stds) {
    below += s <= threshold ? 1 : 0;
    just_above += s > threshold && s <= 4.0 * threshold ? 1 : 0;
  }
  ASSERT_GT(below, 0u);
  ASSERT_GT(just_above, 0u);
  CheckSelfJoin(series, length, 0.5, "near-threshold");
}

TEST(DiagonalKernelTest, ExactTiesInsideOneTile) {
  // A +-1 alternation: with an even length every window has mean 0 and
  // standard deviation 1 exactly, so windows an even gap apart correlate
  // at exactly 1 (distance 0, base LB 0). Within a tile a row meets its
  // larger-gap column candidates first, so only MatchPrecedes — not the
  // visit order — picks the nearest one.
  std::vector<double> values(96);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = i % 2 == 0 ? -1.0 : 1.0;
  }
  CheckSelfJoin(FromValues(std::move(values)), 8, 0.0, "ties");
}

TEST(DiagonalKernelTest, AbJoinWalksNegativeDiagonals) {
  // 282 x 191 windows: 191 diagonals >= 0 and 281 below, both ragged.
  CheckAbJoin(RandomWalk(301, 8), RandomWalk(210, 9), 20, "ab");
}

TEST(DiagonalKernelTest, AbJoinShortSideAndPlateaus) {
  CheckAbJoin(RandomWalk(22, 10), Plateaus(160, 11), 20, "ab-short");
  CheckAbJoin(Plateaus(240, 12), Plateaus(180, 13), 16, "ab-plateaus");
}

TEST(DiagonalKernelTest, WorkersNeverExceedPoolOrTiles) {
  auto series = synth::ByName("random_walk", 300, 14);
  ASSERT_TRUE(series.ok());
  WindowStats windows;
  ASSERT_TRUE(windows.Compute(*series, 20).ok());
  DiagonalScan scan;
  scan.a = windows.Arrays(*series);
  scan.length = 20;
  scan.exclusion = 10;
  // 281 windows, exclusion 10: 271 diagonals in 68 tiles.
  EXPECT_EQ(DiagonalWorkers(scan, 0), 1u);
  EXPECT_EQ(DiagonalWorkers(scan, 3), 3u);
  EXPECT_EQ(DiagonalWorkers(scan, 100000), ThreadPool::kMaxThreads);
  scan.exclusion = 275;  // 6 diagonals: 2 tiles
  EXPECT_EQ(DiagonalWorkers(scan, 100000), 2u);
  scan.exclusion = 281;  // nothing to walk
  EXPECT_EQ(DiagonalWorkers(scan, 4), 1u);
}

/// The row re-seed (simd::RowReseed) of `row` from its direct dot products
/// against the library's scalar formulas, on every target: the row minimum,
/// the stored candidates of a set grown to `capacity`, and the gate
/// contract. The reference is the diagonal walk's cell math, so a re-seeded
/// row holds what the seeding scan would have given it.
void CheckReseedRow(const series::DataSeries& series, std::size_t length,
                    std::size_t row, std::size_t capacity,
                    const std::string& name) {
  WindowStats windows;
  ASSERT_TRUE(windows.Compute(series, length).ok());
  const simd::WindowArrays w = windows.Arrays(series);
  const std::size_t count = w.count;
  const std::size_t exclusion = ExclusionZoneFor(length, 0.5);
  const std::vector<double> dots =
      mass::DirectSlidingDots(series.centered(), row, length, count);

  Minima want_min(count);
  std::vector<core::Entry> candidates;
  const bool const_row = w.is_const[row] != 0;
  for (std::size_t j = 0; j < count; ++j) {
    if ((j > row ? j - row : row - j) < exclusion) continue;
    const bool const_j = w.is_const[j] != 0;
    want_min.Update(row,
                    series::PairDistanceFromDot(dots[j], w.means[row],
                                                w.means[j], w.stds[row],
                                                w.stds[j], length, const_row,
                                                const_j),
                    j);
    const double rho =
        const_row || const_j
            ? 0.0
            : series::CorrelationFromDot(dots[j], w.means[row], w.means[j],
                                         w.stds[row], w.stds[j], length);
    candidates.push_back({static_cast<std::int64_t>(j), dots[j],
                          core::BaseLowerBound(rho, length)});
  }
  SortByBaseLb(row, &candidates);
  const std::size_t kept = std::min(capacity, candidates.size());

  const simd::Target original = simd::ActiveTarget();
  for (const simd::Target target : simd::SupportedTargets()) {
    ASSERT_TRUE(simd::SetTarget(target).ok());
    const std::string where = name + " row " + std::to_string(row) +
                              " target=" + simd::TargetName(target);
    simd::RowReseedScratch scratch;

    core::PartialProfileSet set(count, kP, length);
    if (capacity > kP) ASSERT_TRUE(set.Grow(row, capacity)) << where;
    double min_dist = kInf;
    std::int64_t min_idx = -1;
    const simd::OfferSink sink = set.ReseedSink();
    simd::ActiveKernels().reseed_row({w, length, row, exclusion, dots.data(),
                                      &min_dist, &min_idx, &scratch,
                                      &sink});
    set.FinishSeeding(row);
    EXPECT_EQ(Bits(min_dist), Bits(want_min.distances[row])) << where;
    EXPECT_EQ(min_idx, want_min.indices[row]) << where;
    const auto stored = set.Row(row);
    ASSERT_EQ(stored.size(), kept) << where;
    for (std::size_t e = 0; e < kept; ++e) {
      EXPECT_EQ(stored[e].match, candidates[e].match) << where;
      EXPECT_EQ(Bits(stored[e].dot), Bits(candidates[e].dot)) << where;
      EXPECT_EQ(Bits(stored[e].base_lb), Bits(candidates[e].base_lb))
          << where;
    }
    const double bound = kept == capacity ? candidates[kept - 1].base_lb
                                          : kInf;
    EXPECT_EQ(Bits(set.max_base_lb(row)), Bits(bound)) << where;

    // The gate on its own, held at a base LB some candidates equal: exactly
    // the candidates at or below it are offered.
    std::vector<double> admit(count, -kInf);
    admit[row] = candidates[kept - 1].base_lb;
    OfferLog log;
    log.rows.resize(count);
    const simd::OfferSink gate{admit.data(), &OfferLog::Record, &log};
    // A minimum pre-filled with the row's distance but a farther match:
    // the tie must reach MatchPrecedes, which picks the nearer match.
    double tied_dist = want_min.distances[row];
    std::int64_t tied_idx = static_cast<std::int64_t>(3 * count);
    simd::ActiveKernels().reseed_row({w, length, row, exclusion, dots.data(),
                                      &tied_dist, &tied_idx, &scratch,
                                      &gate});
    EXPECT_EQ(tied_idx, want_min.indices[row]) << where << " tied";
    std::vector<core::Entry> offered = log.rows[row];
    SortByBaseLb(row, &offered);
    std::vector<core::Entry> expected;
    for (const core::Entry& e : candidates) {
      if (e.base_lb <= admit[row]) expected.push_back(e);
    }
    ASSERT_EQ(offered.size(), expected.size()) << where << " gate";
    for (std::size_t e = 0; e < expected.size(); ++e) {
      EXPECT_EQ(offered[e].match, expected[e].match) << where << " gate";
      EXPECT_EQ(Bits(offered[e].base_lb), Bits(expected[e].base_lb))
          << where << " gate";
    }
  }
  ASSERT_TRUE(simd::SetTarget(original).ok());
}

TEST(RowReseedKernelTest, OrdinaryRowsAtEveryCapacity) {
  const series::DataSeries series = RandomWalk(700, 15);
  const std::size_t length = 40;
  const std::size_t last = series.NumSubsequences(length) - 1;
  for (const std::size_t row : {std::size_t{0}, std::size_t{1},
                                std::size_t{333}, last - 2, last}) {
    for (const std::size_t capacity : {kP, 2 * kP, 64 * kP}) {
      CheckReseedRow(series, length, row, capacity,
                     "random_walk cap " + std::to_string(capacity));
    }
  }
}

TEST(RowReseedKernelTest, ConstantWindowsAndTheThreshold) {
  // Plateaus(600) is flat over [100, 175) and [400, 466): rows inside,
  // at the edge and outside a plateau, so cells and rows are constant.
  const series::DataSeries plateaus = Plateaus(600, 16);
  for (const std::size_t row : {120u, 99u, 300u, 410u}) {
    CheckReseedRow(plateaus, 24, row, 2 * kP, "plateaus");
  }
  // Rows in the quiet stretches just below and just above the threshold.
  const series::DataSeries near = NearThreshold(500, 17);
  for (const std::size_t row : {110u, 150u, 310u, 350u}) {
    CheckReseedRow(near, 20, row, 2 * kP, "near-threshold");
  }
}

TEST(RowReseedKernelTest, ExactTies) {
  // Every window of a +-1 alternation at an even length has mean 0 and
  // standard deviation 1, so windows an even gap apart tie at distance 0
  // and base LB 0: only MatchPrecedes orders them.
  std::vector<double> values(96);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = i % 2 == 0 ? -1.0 : 1.0;
  }
  const series::DataSeries series = FromValues(std::move(values));
  for (const std::size_t row : {0u, 40u, 88u}) {
    CheckReseedRow(series, 8, row, kP, "ties");
  }
}

}  // namespace
}  // namespace valmod::mp
