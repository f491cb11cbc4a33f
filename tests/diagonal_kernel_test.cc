// Parity of the diagonal-tile walker (mp/diagonal.h). On every SIMD target
// this build and CPU support, and at 1-4 workers, the walker's minima and
// seeded partial profiles must equal, bit for bit, a scalar reference walk
// that visits one diagonal at a time with the library's scalar formulas
// (series::PairDistanceFromDot, core::BaseLowerBound) and the MatchPrecedes
// tie rule. The cases cover ragged tiles, scans shorter than one tile,
// constant plateaus, windows on either side of the constant-window
// threshold, exact ties and a walk long enough that the row gates tighten
// over hundreds of tiles.
// The row gates (simd::DiagonalGate) are held to the same scalar formulas:
// no correlation at or below a gate may change the row.
// The row re-seed kernel, which shares the tile's cell math, is held to the
// same scalar formulas on the same kinds of rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/match_order.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/lower_bound.h"
#include "core/partial_profile.h"
#include "mass/mass.h"
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
/// its first cell, in the textbook order. `candidates[r]` holds, in
/// MatchPrecedes order on base LB, every candidate of a non-constant row r
/// whose base LB is at most the row's p-th smallest; a partial profile
/// keeps the first p of them.
struct Reference {
  Minima minima;
  std::vector<std::vector<core::Entry>> candidates;
};

/// Drops the candidates above the p-th smallest base LB seen so far, which
/// is never below the row's final p-th smallest: they can neither be kept
/// nor pass a gate held there. Runs each time the list doubles.
void PruneCandidates(std::vector<core::Entry>* candidates,
                     std::size_t* prune_at) {
  if (candidates->size() < *prune_at) return;
  const auto by_lb = [](const core::Entry& x, const core::Entry& y) {
    return x.base_lb < y.base_lb;
  };
  std::nth_element(candidates->begin(), candidates->begin() + kP - 1,
                   candidates->end(), by_lb);
  const double pth = (*candidates)[kP - 1].base_lb;
  std::erase_if(*candidates,
                [pth](const core::Entry& e) { return e.base_lb > pth; });
  *prune_at = 2 * std::max(candidates->size(), 4 * kP);
}

Reference ReferenceWalk(const DiagonalScan& scan) {
  const simd::WindowArrays& w = scan.windows;
  const std::size_t l = scan.length;
  Reference ref{Minima(w.count),
                std::vector<std::vector<core::Entry>>(w.count)};
  std::vector<std::size_t> prune_at(w.count, 8 * kP);
  for (std::size_t d = scan.exclusion; d < w.count; ++d) {
    double qt = series::DotProduct(w.values, w.values + d, l);
    for (std::size_t i = 0, j = d; j < w.count; ++i, ++j) {
      if (i > 0) {
        qt += w.values[i + l - 1] * w.values[j + l - 1] -
              w.values[i - 1] * w.values[j - 1];
      }
      const bool const_i = w.is_const[i] != 0;
      const bool const_j = w.is_const[j] != 0;
      const double distance =
          series::PairDistanceFromDot(qt, w.means[i], w.means[j], w.stds[i],
                                      w.stds[j], l, const_i, const_j);
      ref.minima.Update(i, distance, j);
      ref.minima.Update(j, distance, i);
      const double rho =
          const_i || const_j
              ? 0.0
              : series::CorrelationFromDot(qt, w.means[i], w.means[j],
                                           w.stds[i], w.stds[j], l);
      const double base_lb = core::BaseLowerBound(rho, l);
      if (!const_i) {
        ref.candidates[i].push_back(
            {static_cast<std::int64_t>(j), qt, base_lb});
        PruneCandidates(&ref.candidates[i], &prune_at[i]);
      }
      if (!const_j) {
        ref.candidates[j].push_back(
            {static_cast<std::int64_t>(i), qt, base_lb});
        PruneCandidates(&ref.candidates[j], &prune_at[j]);
      }
    }
  }
  for (std::size_t r = 0; r < ref.candidates.size(); ++r) {
    std::vector<core::Entry>& candidates = ref.candidates[r];
    SortByBaseLb(r, &candidates);
    if (candidates.size() > kP) {
      const double pth = candidates[kP - 1].base_lb;
      std::erase_if(candidates,
                    [pth](const core::Entry& e) { return e.base_lb > pth; });
    }
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
  const std::size_t count = scan.windows.count;
  const std::size_t workers = DiagonalWorkers(scan, threads);
  std::vector<std::unique_ptr<core::PartialProfileSet>> sets;
  std::vector<simd::OfferSink> sinks;
  for (std::size_t w = 0; w < workers; ++w) {
    sets.push_back(
        std::make_unique<core::PartialProfileSet>(count, kP, scan.length));
    for (std::size_t r = 0; r < count; ++r) {
      if (scan.windows.is_const[r] != 0) sets.back()->Close(r);
    }
    sinks.push_back(sets.back()->Sink());
  }
  Walked out{Minima(count), nullptr};
  EXPECT_TRUE(WalkDiagonals(scan, workers, Deadline(), sinks,
                            out.minima.distances.data(),
                            out.minima.indices.data()));
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
                       const Reference& want, const simd::WindowArrays& w,
                       const std::string& where) {
  for (std::size_t r = 0; r < w.count; ++r) {
    if (w.is_const[r] != 0) {
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
  const std::size_t count = scan.windows.count;
  std::vector<double> admit(count, -kInf);
  for (std::size_t r = 0; r < count; ++r) {
    const auto& all = want.candidates[r];
    if (scan.windows.is_const[r] == 0 && !all.empty()) {
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
      ExpectSamePartial(*got.partial, want, scan.windows, where);
      ExpectGateContract(scan, want, threads, where);

      // Outputs pre-filled with each row's minimum distance but a farther
      // match: every cell that ties the minimum must reach the exact
      // tie-break (the vector compare is <=, not <), so the nearest match
      // replaces the farther one.
      Minima tied = want.minima;
      for (std::size_t i = 0; i < tied.indices.size(); ++i) {
        if (tied.indices[i] >= 0) {
          tied.indices[i] =
              static_cast<std::int64_t>(i + scan.windows.count);
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
  scan.windows = windows.Arrays(series);
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

TEST(DiagonalKernelTest, LongSeededWalk) {
  // 1937 windows, exclusion 32: 1905 diagonals in 477 tiles, so rows fill,
  // their minima and admission gates fall and their correlation gates
  // tighten across many tiles of every worker.
  auto ecg = synth::ByName("ecg", 2000, 21);
  ASSERT_TRUE(ecg.ok());
  CheckSelfJoin(*ecg, 64, 0.5, "ecg long");
}

TEST(DiagonalKernelTest, LongWalkExchangesGates) {
  // A random walk with long windows, whose best matches lie on no
  // particular diagonals: 2001 windows, exclusion 200, so 1801 diagonals
  // in 451 tiles. At 4 workers each walks about 400k cells and trades its
  // row gates with the others some 25 times (every 2 * kDiagonalLanes
  // cells per window).
  CheckSelfJoin(RandomWalk(2400, 8), 400, 0.5, "random walk long");
}

TEST(DiagonalKernelTest, EveryTileCount) {
  // The scattered claim order for every tile count 1-70, a prime (127), a
  // power of two (128) and 144, whose golden-ratio seed stride (88) shares
  // the factor 8 with it and must be raised to a coprime one. Tile counts
  // not divisible by 4 end in a ragged tile.
  std::vector<std::size_t> tile_counts(70);
  std::iota(tile_counts.begin(), tile_counts.end(), std::size_t{1});
  tile_counts.insert(tile_counts.end(), {127, 128, 144});
  constexpr std::size_t kLength = 16;
  constexpr std::size_t kExclusion = 4;
  for (const std::size_t tiles : tile_counts) {
    const std::size_t diagonals = 4 * tiles - tiles % 4;
    const series::DataSeries series =
        RandomWalk(kExclusion + diagonals + kLength - 1, 100 + tiles);
    WindowStats windows;
    ASSERT_TRUE(windows.Compute(series, kLength).ok());
    DiagonalScan scan;
    scan.windows = windows.Arrays(series);
    scan.length = kLength;
    scan.exclusion = kExclusion;
    ASSERT_EQ(DiagonalWorkers(scan, 100000),
              std::min(tiles, ThreadPool::kMaxThreads));
    CheckScan(scan, "tiles=" + std::to_string(tiles));
  }
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

TEST(DiagonalKernelTest, WorkersNeverExceedPoolOrTiles) {
  auto series = synth::ByName("random_walk", 300, 14);
  ASSERT_TRUE(series.ok());
  WindowStats windows;
  ASSERT_TRUE(windows.Compute(*series, 20).ok());
  DiagonalScan scan;
  scan.windows = windows.Arrays(*series);
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

/// Whether a cell of correlation `rho` can change a row with minimum `dist`
/// and admission gate `admit`, by the library's scalar formulas.
bool CellCanChange(double rho, double dist, double admit,
                   std::size_t length) {
  return series::DistanceFromCorrelation(rho, length) <= dist ||
         core::BaseLowerBound(rho, length) <= admit;
}

/// Checks one gate: neither it nor its predecessor can change the row, and
/// both formulas are non-increasing over the 64 doubles on either side of
/// it, so nothing below it can either.
void CheckGate(double dist, double admit, std::size_t length,
               const std::string& where) {
  const double gate = simd::DiagonalGate(dist, admit, length);
  if (std::isinf(gate)) {
    // -inf: every cell is let through, which is always safe. +inf: no
    // cell is, so even a perfect correlation must change nothing.
    if (gate > 0) EXPECT_FALSE(CellCanChange(1.0, dist, admit, length));
    return;
  }
  ASSERT_GE(gate, -1.0) << where;
  ASSERT_LE(gate, 1.0) << where;
  EXPECT_FALSE(CellCanChange(gate, dist, admit, length))
      << where << " gate " << gate;
  EXPECT_FALSE(
      CellCanChange(std::nextafter(gate, -kInf), dist, admit, length))
      << where << " gate " << gate;
  EXPECT_FALSE(CellCanChange(-1.0, dist, admit, length)) << where;
  double rho = gate;
  for (int step = 0; step < 64 && rho > -1.0; ++step) {
    rho = std::nextafter(rho, -kInf);
  }
  for (int step = 0; step < 128 && rho < 1.0; ++step) {
    const double next = std::nextafter(rho, kInf);
    EXPECT_LE(series::DistanceFromCorrelation(next, length),
              series::DistanceFromCorrelation(rho, length))
        << where << " rho " << rho;
    EXPECT_LE(core::BaseLowerBound(next, length),
              core::BaseLowerBound(rho, length))
        << where << " rho " << rho;
    rho = next;
  }
}

TEST(DiagonalGateTest, NoCorrelationBelowTheGateChangesTheRow) {
  Rng rng(28);
  for (const std::size_t length : {2u, 3u, 16u, 128u, 1152u, 4096u}) {
    const double l = static_cast<double>(length);
    const double sqrt_l = std::sqrt(l);
    const double dists[] = {0.0,
                            std::numeric_limits<double>::denorm_min(),
                            1e-300,
                            0.25 * sqrt_l,
                            std::sqrt(2.0 * l),
                            kInf};
    const double admits[] = {-kInf, 0.0, 0.5 * sqrt_l, sqrt_l, kInf};
    for (const double dist : dists) {
      for (const double admit : admits) {
        CheckGate(dist, admit, length,
                  "l=" + std::to_string(length) +
                      " dist=" + std::to_string(dist) +
                      " admit=" + std::to_string(admit));
      }
    }
    for (int draw = 0; draw < 200; ++draw) {
      const double dist = rng.Uniform(0.0, 2.0 * sqrt_l);
      const double admit = rng.Uniform(0.0, sqrt_l);
      const std::string where = "l=" + std::to_string(length) +
                                " draw " + std::to_string(draw);
      CheckGate(dist, admit, length, where);
      CheckGate(dist, -kInf, length, where + " closed");
      // The gate is useful, not just safe: it sits within 2^-24 of the
      // smallest correlation that changes the row.
      const double gate = simd::DiagonalGate(dist, admit, length);
      const double above = std::max(gate, -1.0) + 0x1p-24;
      if (above <= 1.0) {
        EXPECT_TRUE(CellCanChange(above, dist, admit, length))
            << where << " gate " << gate;
      }
    }
    // An open row, a row with no minimum yet and an admission gate no base
    // LB exceeds let every cell through.
    EXPECT_EQ(simd::DiagonalGate(kInf, 0.0, length), -kInf);
    EXPECT_EQ(simd::DiagonalGate(1.0, kInf, length), -kInf);
    EXPECT_EQ(simd::DiagonalGate(0.0, sqrt_l, length), -kInf);
    // A closed row admits nothing: its gate is its minimum's alone, and
    // with no minimum to beat either no cell passes.
    for (const double dist : dists) {
      EXPECT_EQ(Bits(simd::DiagonalGate(dist, -kInf, length)),
                Bits(simd::DiagonalGate(dist, -1.0, length)))
          << "l=" << length << " dist=" << dist;
    }
    EXPECT_EQ(simd::DiagonalGate(-1.0, -kInf, length), kInf);
  }
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
      mass::DirectSlidingDots(series.centered(),
                              series.centered().subspan(row, length), count);

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
