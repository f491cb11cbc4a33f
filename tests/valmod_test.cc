// The headline correctness suite: VALMOD's per-length top-k motif pairs must
// be exact, i.e. match the naive per-length STOMP baseline, across workload
// shapes, length ranges, k, and p. Also covers VALMAP semantics, pruning
// statistics, threading, and option validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "baselines/stomp_range.h"
#include "core/valmod.h"
#include "mp/matrix_profile.h"
#include "mp/stomp.h"
#include "series/data_series.h"
#include "series/generators.h"
#include "series/znorm.h"

namespace valmod::core {
namespace {

struct ValmodCase {
  std::string generator;
  std::size_t n;
  std::size_t min_length;
  std::size_t max_length;
  std::size_t k;
  std::size_t p;
};

void ExpectSamePerLengthDistances(const std::vector<LengthMotifs>& actual,
                                  const std::vector<LengthMotifs>& expected,
                                  double tolerance) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i].length, expected[i].length);
    ASSERT_EQ(actual[i].motifs.size(), expected[i].motifs.size())
        << "length " << expected[i].length;
    for (std::size_t m = 0; m < expected[i].motifs.size(); ++m) {
      EXPECT_NEAR(actual[i].motifs[m].distance, expected[i].motifs[m].distance,
                  tolerance)
          << "length " << expected[i].length << " rank " << m;
    }
  }
}

/// Every reported pair must be genuine: recomputing its distance from the
/// definitions must agree, members must respect the exclusion zone, and
/// ranks must be ordered.
void ExpectPairsAreGenuine(const series::DataSeries& series,
                           const ValmodResult& result,
                           double exclusion_fraction) {
  for (const LengthMotifs& lm : result.per_length) {
    double previous = -1.0;
    for (const mp::MotifPair& pair : lm.motifs) {
      ASSERT_GE(pair.offset_a, 0);
      ASSERT_LT(pair.offset_a, pair.offset_b);
      const std::size_t exclusion =
          mp::ExclusionZoneFor(lm.length, exclusion_fraction);
      EXPECT_GE(static_cast<std::size_t>(pair.offset_b - pair.offset_a),
                exclusion)
          << "trivial pair at length " << lm.length;
      auto d = series::SubsequenceDistance(
          series, static_cast<std::size_t>(pair.offset_a),
          static_cast<std::size_t>(pair.offset_b), lm.length);
      ASSERT_TRUE(d.ok());
      EXPECT_NEAR(*d, pair.distance, 2e-5)
          << "claimed distance wrong at length " << lm.length;
      EXPECT_GE(pair.distance, previous - 1e-9) << "ranks out of order";
      previous = pair.distance;
    }
  }
}

class ValmodExactnessTest : public ::testing::TestWithParam<ValmodCase> {};

TEST_P(ValmodExactnessTest, MatchesStompRange) {
  const ValmodCase& c = GetParam();
  auto series = synth::ByName(c.generator, c.n, 211);
  ASSERT_TRUE(series.ok());

  ValmodOptions options;
  options.min_length = c.min_length;
  options.max_length = c.max_length;
  options.k = c.k;
  options.p = c.p;
  auto result = RunValmod(*series, options);
  ASSERT_TRUE(result.ok());

  baselines::StompRangeOptions baseline_options;
  baseline_options.min_length = c.min_length;
  baseline_options.max_length = c.max_length;
  baseline_options.k = c.k;
  auto baseline = baselines::RunStompRange(*series, baseline_options);
  ASSERT_TRUE(baseline.ok());

  ExpectSamePerLengthDistances(result->per_length, *baseline, 2e-5);
  ExpectPairsAreGenuine(*series, *result, options.exclusion_fraction);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ValmodExactnessTest,
    ::testing::Values(
        ValmodCase{"random_walk", 500, 20, 60, 1, 5},
        ValmodCase{"random_walk", 400, 16, 48, 3, 10},
        ValmodCase{"sine", 600, 40, 80, 2, 5},
        ValmodCase{"ecg", 700, 30, 90, 2, 8},
        ValmodCase{"astro", 500, 25, 55, 1, 3},
        ValmodCase{"entomology", 600, 20, 50, 2, 5},
        ValmodCase{"seismic", 600, 24, 56, 1, 10},
        // Stress: p = 1 forces heavy recomputation but must stay exact.
        ValmodCase{"random_walk", 350, 16, 40, 2, 1},
        // Degenerate range: a single length reduces to plain STOMP.
        ValmodCase{"ecg", 400, 32, 32, 3, 5}));

TEST(ValmodTest, MinLengthProfileMatchesStomp) {
  auto series = synth::ByName("ecg", 500, 17);
  ASSERT_TRUE(series.ok());
  ValmodOptions options;
  options.min_length = 25;
  options.max_length = 40;
  auto result = RunValmod(*series, options);
  ASSERT_TRUE(result.ok());

  auto stomp = mp::ComputeStomp(*series, 25, {});
  ASSERT_TRUE(stomp.ok());
  ASSERT_EQ(result->min_length_profile.size(), stomp->size());
  for (std::size_t i = 0; i < stomp->size(); ++i) {
    EXPECT_NEAR(result->min_length_profile.distances[i],
                stomp->distances[i], 2e-6);
  }
}

TEST(ValmodTest, ValmapReflectsBestNormalizedPairs) {
  auto series = synth::ByName("ecg", 600, 19);
  ASSERT_TRUE(series.ok());
  ValmodOptions options;
  options.min_length = 30;
  options.max_length = 70;
  options.k = 2;
  auto result = RunValmod(*series, options);
  ASSERT_TRUE(result.ok());
  const Valmap& valmap = result->valmap;
  ASSERT_EQ(valmap.size(), series->size() - 30 + 1);

  // Replay the definition: start from the normalized min-length profile and
  // fold in every reported pair; the result must equal the valmap.
  std::vector<double> expected(valmap.size());
  for (std::size_t i = 0; i < valmap.size(); ++i) {
    expected[i] = series::LengthNormalizedDistance(
        result->min_length_profile.distances[i], 30);
  }
  for (const LengthMotifs& lm : result->per_length) {
    if (lm.length == 30) continue;  // init state already covers min length
    for (const mp::MotifPair& pair : lm.motifs) {
      expected[pair.offset_a] =
          std::min(expected[pair.offset_a], pair.normalized_distance);
      expected[pair.offset_b] =
          std::min(expected[pair.offset_b], pair.normalized_distance);
    }
  }
  for (std::size_t i = 0; i < valmap.size(); ++i) {
    EXPECT_NEAR(valmap.normalized_profile()[i], expected[i], 1e-9) << i;
  }
}

TEST(ValmodTest, ValmapLengthProfileConsistent) {
  auto series = synth::ByName("ecg", 500, 23);
  ASSERT_TRUE(series.ok());
  ValmodOptions options;
  options.min_length = 25;
  options.max_length = 60;
  auto result = RunValmod(*series, options);
  ASSERT_TRUE(result.ok());
  const Valmap& valmap = result->valmap;
  for (std::size_t i = 0; i < valmap.size(); ++i) {
    const std::size_t l = valmap.length_profile()[i];
    EXPECT_GE(l, options.min_length);
    EXPECT_LE(l, options.max_length);
    if (valmap.index_profile()[i] >= 0) {
      // The recorded match must fit in the series at the recorded length.
      EXPECT_LE(static_cast<std::size_t>(valmap.index_profile()[i]) + l,
                series->size());
    }
  }
}

TEST(ValmodTest, RankedIsSortedAndComplete) {
  auto series = synth::ByName("astro", 500, 29);
  ASSERT_TRUE(series.ok());
  ValmodOptions options;
  options.min_length = 20;
  options.max_length = 50;
  options.k = 2;
  auto result = RunValmod(*series, options);
  ASSERT_TRUE(result.ok());

  std::size_t total = 0;
  for (const LengthMotifs& lm : result->per_length) total += lm.motifs.size();
  EXPECT_EQ(result->ranked.size(), total);
  for (std::size_t i = 1; i < result->ranked.size(); ++i) {
    EXPECT_LE(result->ranked[i - 1].normalized_distance,
              result->ranked[i].normalized_distance + 1e-12);
  }
}

TEST(ValmodTest, StatsAccountForAllRows) {
  auto series = synth::ByName("random_walk", 400, 31);
  ASSERT_TRUE(series.ok());
  ValmodOptions options;
  options.min_length = 20;
  options.max_length = 40;
  options.p = 4;
  auto result = RunValmod(*series, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->stats.size(), 20u);  // lengths 21..40
  for (const LengthStats& s : result->stats) {
    const std::size_t rows = series->size() - s.length + 1;
    EXPECT_EQ(s.valid_rows + s.invalid_rows + s.bounded_rows +
                  s.constant_rows,
              rows)
        << "length " << s.length;
    EXPECT_GE(s.passes, 1u);
    EXPECT_LE(s.recomputed_rows, rows);
  }
}

TEST(ValmodTest, LargerPReducesRecomputation) {
  auto series = synth::ByName("ecg", 800, 37);
  ASSERT_TRUE(series.ok());
  auto run_with_p = [&](std::size_t p) {
    ValmodOptions options;
    options.min_length = 40;
    options.max_length = 80;
    options.p = p;
    auto result = RunValmod(*series, options);
    EXPECT_TRUE(result.ok());
    std::size_t recomputed = 0;
    for (const LengthStats& s : result->stats) recomputed += s.recomputed_rows;
    return recomputed;
  };
  const std::size_t recomputed_small = run_with_p(1);
  const std::size_t recomputed_large = run_with_p(16);
  EXPECT_LE(recomputed_large, recomputed_small);
}

TEST(ValmodTest, ThreadedInitialScanMatchesSerial) {
  auto series = synth::ByName("ecg", 900, 41);
  ASSERT_TRUE(series.ok());
  ValmodOptions serial;
  serial.min_length = 30;
  serial.max_length = 60;
  serial.k = 2;
  ValmodOptions threaded = serial;
  threaded.num_threads = 4;

  auto a = RunValmod(*series, serial);
  auto b = RunValmod(*series, threaded);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->per_length.size(), b->per_length.size());
  for (std::size_t i = 0; i < a->per_length.size(); ++i) {
    ASSERT_EQ(a->per_length[i].motifs.size(), b->per_length[i].motifs.size());
    for (std::size_t m = 0; m < a->per_length[i].motifs.size(); ++m) {
      EXPECT_NEAR(a->per_length[i].motifs[m].distance,
                  b->per_length[i].motifs[m].distance, 1e-9);
    }
  }
}

// The certification loop routes recompute batches through the engine's
// batched entry point or derives them from cached dot rows. The batch
// composition (a fixed 16 rows), which rows find a cached base (picked in
// batch order) and the row pairing inside a batch depend only on the row
// order — never on the thread count — so the entire result must be
// bit-identical, not just close, across thread counts. The random walk at
// long lengths derives most of its thousands of recomputed rows in
// parallel.
TEST(ValmodTest, BatchedRecomputeBitIdenticalAcrossThreadCounts) {
  struct Case {
    const char* generator;
    std::uint64_t seed;
    std::size_t n, lmin, lmax, p;
  };
  for (const Case& c : {Case{"ecg", 53, 2000, 32, 72, 10},
                        Case{"random_walk", 3, 1024, 200, 215, 5}}) {
    SCOPED_TRACE(c.generator);
    auto series = synth::ByName(c.generator, c.n, c.seed);
    ASSERT_TRUE(series.ok());
    ValmodOptions base;
    base.min_length = c.lmin;
    base.max_length = c.lmax;
    base.k = 3;
    base.p = c.p;

    auto reference = RunValmod(*series, base);
    ASSERT_TRUE(reference.ok());
    for (int threads : {2, 4}) {
      ValmodOptions options = base;
      options.num_threads = threads;
      auto result = RunValmod(*series, options);
      ASSERT_TRUE(result.ok());

      ASSERT_EQ(result->per_length.size(), reference->per_length.size());
      for (std::size_t i = 0; i < reference->per_length.size(); ++i) {
        const auto& want = reference->per_length[i].motifs;
        const auto& got = result->per_length[i].motifs;
        ASSERT_EQ(got.size(), want.size()) << "threads=" << threads;
        for (std::size_t m = 0; m < want.size(); ++m) {
          EXPECT_EQ(got[m].offset_a, want[m].offset_a);
          EXPECT_EQ(got[m].offset_b, want[m].offset_b);
          EXPECT_EQ(got[m].distance, want[m].distance)
              << "threads=" << threads << " length "
              << reference->per_length[i].length << " rank " << m;
        }
      }
      ASSERT_EQ(result->min_length_profile.distances.size(),
                reference->min_length_profile.distances.size());
      for (std::size_t j = 0;
           j < reference->min_length_profile.distances.size(); ++j) {
        EXPECT_EQ(result->min_length_profile.distances[j],
                  reference->min_length_profile.distances[j])
            << "threads=" << threads << " j=" << j;
      }
    }
  }
}

/// A random walk with two 300-point constant plateaus and a 300-point
/// block repeated twice: windows inside the plateaus are at distance 0 from
/// many partners, and the repeated block puts equal distances on both
/// sides of a row. A tie-break by visit order picks differently at each
/// thread count.
series::DataSeries TieProbeSeries() {
  auto walk = synth::ByName("random_walk", 5200, 17);
  EXPECT_TRUE(walk.ok());
  std::vector<double> values(walk->values().begin(), walk->values().end());
  std::fill(values.begin() + 800, values.begin() + 1100, values[800]);
  std::fill(values.begin() + 2600, values.begin() + 2900, values[800]);
  std::copy(values.begin() + 1700, values.begin() + 2000,
            values.begin() + 4100);
  auto series = series::DataSeries::Create(std::move(values));
  EXPECT_TRUE(series.ok());
  return std::move(*series);
}

void ExpectSameProfile(const mp::MatrixProfile& got,
                       const mp::MatrixProfile& want, const char* what,
                       int threads) {
  ASSERT_EQ(got.distances.size(), want.distances.size());
  for (std::size_t i = 0; i < want.distances.size(); ++i) {
    EXPECT_EQ(got.distances[i], want.distances[i])
        << what << " threads=" << threads << " row " << i;
    EXPECT_EQ(got.indices[i], want.indices[i])
        << what << " threads=" << threads << " row " << i;
  }
}

TEST(ValmodTest, TiesBreakIdenticallyAtEveryThreadCount) {
  const series::DataSeries series = TieProbeSeries();
  ValmodOptions base;
  base.min_length = 64;
  base.max_length = 72;
  base.k = 3;

  auto reference = RunValmod(series, base);
  ASSERT_TRUE(reference.ok());
  auto reference_stomp = mp::ComputeStomp(series, base.min_length, {});
  ASSERT_TRUE(reference_stomp.ok());
  ExpectSameProfile(reference->min_length_profile, *reference_stomp,
                    "min-length profile vs STOMP", 1);

  for (int threads : {2, 3, 4, 8}) {
    ValmodOptions options = base;
    options.num_threads = threads;
    auto result = RunValmod(series, options);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->per_length.size(), reference->per_length.size());
    for (std::size_t i = 0; i < reference->per_length.size(); ++i) {
      const auto& want = reference->per_length[i].motifs;
      const auto& got = result->per_length[i].motifs;
      ASSERT_EQ(got.size(), want.size()) << "threads=" << threads;
      for (std::size_t m = 0; m < want.size(); ++m) {
        const std::size_t length = reference->per_length[i].length;
        EXPECT_EQ(got[m].offset_a, want[m].offset_a)
            << "threads=" << threads << " length " << length << " rank " << m;
        EXPECT_EQ(got[m].offset_b, want[m].offset_b)
            << "threads=" << threads << " length " << length << " rank " << m;
        EXPECT_EQ(got[m].distance, want[m].distance)
            << "threads=" << threads << " length " << length << " rank " << m;
      }
    }
    ASSERT_EQ(result->stats.size(), reference->stats.size());
    for (std::size_t i = 0; i < reference->stats.size(); ++i) {
      EXPECT_EQ(result->stats[i].valid_rows, reference->stats[i].valid_rows);
      EXPECT_EQ(result->stats[i].recomputed_rows,
                reference->stats[i].recomputed_rows);
      EXPECT_EQ(result->stats[i].passes, reference->stats[i].passes);
    }
    ExpectSameProfile(result->min_length_profile,
                      reference->min_length_profile, "min-length profile",
                      threads);

    mp::ProfileOptions stomp_options;
    stomp_options.num_threads = threads;
    auto stomp = mp::ComputeStomp(series, base.min_length, stomp_options);
    ASSERT_TRUE(stomp.ok());
    ExpectSameProfile(*stomp, *reference_stomp, "STOMP", threads);
  }
}

TEST(ValmodTest, ConstantSeriesHandled) {
  auto series = series::DataSeries::Create(std::vector<double>(200, 1.0));
  ASSERT_TRUE(series.ok());
  ValmodOptions options;
  options.min_length = 10;
  options.max_length = 20;
  auto result = RunValmod(*series, options);
  ASSERT_TRUE(result.ok());
  for (const LengthMotifs& lm : result->per_length) {
    ASSERT_EQ(lm.motifs.size(), 1u) << "length " << lm.length;
    EXPECT_DOUBLE_EQ(lm.motifs[0].distance, 0.0);
  }
}

TEST(ValmodTest, SeriesWithConstantRegionStaysExact) {
  // A flat stretch embedded in structure exercises the constant-row paths
  // and the unseeded-row recompute path at every length.
  std::vector<double> data(500);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::sin(static_cast<double>(i) * 0.15) +
              0.05 * std::sin(static_cast<double>(i) * 1.7);
  }
  for (std::size_t i = 200; i < 260; ++i) data[i] = 0.7;
  auto series = series::DataSeries::Create(std::move(data));
  ASSERT_TRUE(series.ok());

  ValmodOptions options;
  options.min_length = 20;
  options.max_length = 45;
  options.k = 2;
  auto result = RunValmod(*series, options);
  ASSERT_TRUE(result.ok());

  baselines::StompRangeOptions baseline_options;
  baseline_options.min_length = 20;
  baseline_options.max_length = 45;
  baseline_options.k = 2;
  auto baseline = baselines::RunStompRange(*series, baseline_options);
  ASSERT_TRUE(baseline.ok());
  ExpectSamePerLengthDistances(result->per_length, *baseline, 2e-5);
}

TEST(ValmodTest, StatsStayAlignedWhenRangeShrinksToNoPairs) {
  // Regression: the early-exit path for lengths whose window count cannot
  // fit a non-trivial pair used to emit empty per_length entries with no
  // matching LengthStats, silently desyncing the two vectors for consumers
  // that zip them. Skipped lengths must now carry zeroed stats entries.
  auto series = synth::ByName("random_walk", 30, 43);
  ASSERT_TRUE(series.ok());
  ValmodOptions options;
  options.min_length = 5;
  options.max_length = 29;
  auto result = RunValmod(*series, options);
  ASSERT_TRUE(result.ok());

  // per_length covers [min_length, max_length]; stats covers the update
  // lengths (min_length, max_length] — one entry per length, aligned.
  ASSERT_EQ(result->per_length.size(), 25u);
  ASSERT_EQ(result->stats.size(), result->per_length.size() - 1);
  for (std::size_t i = 0; i < result->stats.size(); ++i) {
    EXPECT_EQ(result->stats[i].length, result->per_length[i + 1].length)
        << "stats desynced at index " << i;
  }
  // The tail lengths were skipped (no possible pair): empty motifs and
  // all-zero counters.
  const LengthStats& last = result->stats.back();
  EXPECT_TRUE(result->per_length.back().motifs.empty());
  EXPECT_EQ(last.valid_rows + last.invalid_rows + last.bounded_rows +
                last.constant_rows,
            0u);
  EXPECT_EQ(last.recomputed_rows, 0u);
  EXPECT_EQ(last.passes, 0u);
  // Early lengths were processed normally and account for their rows.
  const LengthStats& first = result->stats.front();
  EXPECT_EQ(first.valid_rows + first.invalid_rows + first.bounded_rows +
                first.constant_rows,
            series->size() - first.length + 1);
}

TEST(ValmodTest, RangeShrinkingToNoPairs) {
  // With 30 points and max_length 29, long lengths leave too few windows
  // for any non-trivial pair; those lengths must report empty motif lists.
  auto series = synth::ByName("random_walk", 30, 43);
  ASSERT_TRUE(series.ok());
  ValmodOptions options;
  options.min_length = 5;
  options.max_length = 29;
  auto result = RunValmod(*series, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->per_length.size(), 25u);
  EXPECT_FALSE(result->per_length.front().motifs.empty());
  EXPECT_TRUE(result->per_length.back().motifs.empty());
}

TEST(ValmodTest, ValidatesOptions) {
  auto series = synth::ByName("random_walk", 100, 47);
  ASSERT_TRUE(series.ok());
  ValmodOptions options;

  options.min_length = 1;  // too small
  options.max_length = 20;
  EXPECT_EQ(RunValmod(*series, options).status().code(),
            StatusCode::kInvalidArgument);

  options.min_length = 30;
  options.max_length = 20;  // inverted
  EXPECT_FALSE(RunValmod(*series, options).ok());

  options.min_length = 10;
  options.max_length = 100;  // leaves < 2 windows
  EXPECT_FALSE(RunValmod(*series, options).ok());

  options.max_length = 20;
  options.k = 0;
  EXPECT_FALSE(RunValmod(*series, options).ok());

  options.k = 1;
  options.p = 0;
  EXPECT_FALSE(RunValmod(*series, options).ok());

  options.p = 5;
  options.exclusion_fraction = 1.5;
  EXPECT_FALSE(RunValmod(*series, options).ok());

  options.exclusion_fraction = 0.5;
  EXPECT_TRUE(RunValmod(*series, options).ok());
}

// p larger than the number of windows can never fill a row's partial
// profile and only inflates the per-thread n*p allocation, so it is
// rejected up front; p equal to the window count is the largest valid
// setting.
TEST(ValmodTest, RejectsPBeyondWindowCount) {
  auto series = synth::ByName("random_walk", 300, 17);
  ASSERT_TRUE(series.ok());
  ValmodOptions options;
  options.min_length = 20;
  options.max_length = 24;
  const std::size_t windows = series->NumSubsequences(options.min_length);

  options.p = windows + 1;
  EXPECT_EQ(RunValmod(*series, options).status().code(),
            StatusCode::kInvalidArgument);

  options.p = windows;
  EXPECT_TRUE(RunValmod(*series, options).ok());
}

TEST(ValmodTest, HonorsDeadline) {
  auto series = synth::ByName("random_walk", 2000, 53);
  ASSERT_TRUE(series.ok());
  ValmodOptions options;
  options.min_length = 50;
  options.max_length = 200;
  options.deadline = Deadline::After(-1.0);
  EXPECT_EQ(RunValmod(*series, options).status().code(),
            StatusCode::kDeadlineExceeded);
}

TEST(ValmodTest, AllowPartialStillErrorsWhenNothingCompleted) {
  // An already-expired deadline means not even the initial scan ran:
  // there is no exact prefix to return, so allow_partial must NOT turn
  // the failure into an empty "success".
  auto series = synth::ByName("random_walk", 2000, 53);
  ASSERT_TRUE(series.ok());
  ValmodOptions options;
  options.min_length = 50;
  options.max_length = 200;
  options.allow_partial = true;
  options.deadline = Deadline::After(-1.0);
  EXPECT_EQ(RunValmod(*series, options).status().code(),
            StatusCode::kDeadlineExceeded);
}

TEST(ValmodTest, AllowPartialPrefixIsExact) {
  auto series = synth::ByName("random_walk", 3000, 71);
  ASSERT_TRUE(series.ok());
  ValmodOptions options;
  options.min_length = 40;
  options.max_length = 160;
  options.k = 2;

  // Reference: the unconstrained run.
  const auto started = std::chrono::steady_clock::now();
  auto full = RunValmod(*series, options);
  const double full_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->partial);
  ASSERT_EQ(full->per_length.size(), 160u - 40u + 1u);

  // Rerun under a deadline sized to fire mid-way through the
  // variable-length sweep. Exact timing is machine-dependent, so every
  // legal outcome is accepted — but a partial result must be a
  // length-exact prefix of the reference, and partiality must be flagged.
  options.allow_partial = true;
  options.deadline = Deadline::After(std::max(0.6 * full_seconds, 0.005));
  auto constrained = RunValmod(*series, options);
  if (!constrained.ok()) {
    // The deadline beat the initial scan; nothing to hand back.
    EXPECT_EQ(constrained.status().code(), StatusCode::kDeadlineExceeded);
    return;
  }
  ASSERT_FALSE(constrained->per_length.empty());
  EXPECT_LE(constrained->per_length.size(), full->per_length.size());
  if (constrained->partial) {
    EXPECT_LT(constrained->per_length.size(), full->per_length.size());
  } else {
    EXPECT_EQ(constrained->per_length.size(), full->per_length.size());
  }
  // Whatever got done is the exact answer for those lengths: same lengths
  // in the same ascending order, same motif distances as the reference.
  std::vector<LengthMotifs> reference_prefix(
      full->per_length.begin(),
      full->per_length.begin() +
          static_cast<std::ptrdiff_t>(constrained->per_length.size()));
  ExpectSamePerLengthDistances(constrained->per_length, reference_prefix,
                               1e-9);
}

TEST(ValmodTest, DisablingValmapLeavesItEmpty) {
  auto series = synth::ByName("sine", 300, 59);
  ASSERT_TRUE(series.ok());
  ValmodOptions options;
  options.min_length = 20;
  options.max_length = 30;
  options.build_valmap = false;
  auto result = RunValmod(*series, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->valmap.size(), 0u);
  EXPECT_FALSE(result->per_length.empty());
}

TEST(RankingTest, OrdersByNormalizedDistance) {
  mp::MotifPair a;
  a.offset_a = 0;
  a.offset_b = 10;
  a.length = 100;
  a.distance = 10.0;
  a.normalized_distance = 1.0;
  mp::MotifPair b = a;
  b.length = 400;
  b.normalized_distance = 0.5;
  mp::MotifPair c = a;
  c.length = 25;
  c.normalized_distance = 2.0;

  auto ranked = RankByNormalizedDistance({a, b, c});
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].length, 400u);
  EXPECT_EQ(ranked[1].length, 100u);
  EXPECT_EQ(ranked[2].length, 25u);
}

}  // namespace
}  // namespace valmod::core
