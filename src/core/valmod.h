#ifndef VALMOD_CORE_VALMOD_H_
#define VALMOD_CORE_VALMOD_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "common/timer.h"
#include "core/valmap.h"
#include "mass/engine.h"
#include "mp/matrix_profile.h"
#include "mp/motif.h"
#include "series/data_series.h"

namespace valmod::core {

/// Configuration of a VALMOD run.
struct ValmodOptions {
  /// Subsequence length range [min_length, max_length], inclusive. Required:
  /// 2 <= min_length <= max_length < series size.
  std::size_t min_length = 0;
  std::size_t max_length = 0;
  /// Motif pairs reported per length, chosen by mp::SelectTopKMotifs: the
  /// k closest non-overlapping pairs, as every other motif answer.
  std::size_t k = 1;
  /// Initial candidates kept per partial distance profile (paper's p).
  /// A row that fails certification and is recomputed doubles its capacity
  /// (capped at the window count) while the partial profiles hold at most
  /// n * max(p, 32) entries in total, so p sets the memory and per-length
  /// work of rows that certify, and hard rows buy their own capacity. The
  /// paper finds small values (5-10) sufficient.
  std::size_t p = 10;
  /// Trivial-match exclusion as a fraction of the subsequence length.
  double exclusion_fraction = 0.5;
  /// Worker threads: parallelizes the initial fixed-length scan (the O(n^2)
  /// part), the per-length update sweeps, and exact-recompute batches.
  /// Results are identical to the serial run at every thread count: ties
  /// between candidates break by MatchPrecedes (distance, then gap, then
  /// offset) and the recompute batches do not scale with the count. The
  /// scan keeps per-worker state (one n*p partial-profile set each) for at
  /// most min(num_threads, ThreadPool::kMaxThreads) workers, so its memory
  /// stops growing at the pool size.
  int num_threads = 1;
  /// Whether to maintain the VALMAP meta-data (paper §2). Disabling skips
  /// the structure for callers that only want per-length motifs.
  bool build_valmap = true;
  /// Cooperative timeout; checked per length iteration.
  Deadline deadline;
  /// Graceful degradation: when the deadline fires (or the run is
  /// cancelled) after the initial scan completed, return the lengths
  /// finished so far with ValmodResult::partial set instead of a bare
  /// kDeadlineExceeded. Every returned length is still exact — the cut
  /// happens only at length granularity, mirroring the anytime contract of
  /// the MAD follow-up paper. A deadline during the initial scan still
  /// errors: there is no exact prefix to return yet.
  bool allow_partial = false;
};

/// Per-length certification statistics — the observable behaviour of the
/// pruning machinery of paper Figure 2 (valid vs non-valid partial profiles,
/// rows recomputed from scratch). Every row at the length is exactly one of
/// valid, invalid, bounded or constant.
struct LengthStats {
  std::size_t length = 0;
  /// Rows whose partial profile certified its row minimum (minDist <= maxLB).
  std::size_t valid_rows = 0;
  /// Rows whose stored entries could not certify (maxLB < minDist).
  std::size_t invalid_rows = 0;
  /// Rows still deferred when the length ends (k = 1 only): their lower
  /// bound stayed above the length's top-1 distance, so no row minimum was
  /// taken, and their dot products were left to catch up later.
  std::size_t bounded_rows = 0;
  /// Rows recomputed exactly (and re-seeded) at this length: derived from
  /// a cached dot row of a nearby recomputed row by the STOMP recurrences,
  /// or computed with MASS when no cached row is in reach. Which rows take
  /// which path is decided in batch order, never by the thread count.
  std::size_t recomputed_rows = 0;
  /// Rows handled by the constant-window fast path.
  std::size_t constant_rows = 0;
  /// Certification passes (selection/recompute rounds) until exact.
  std::size_t passes = 0;
};

/// Exact top-k motif pairs of one length.
struct LengthMotifs {
  std::size_t length = 0;
  std::vector<mp::MotifPair> motifs;  // ascending distance; may hold < k
};

/// Complete output of a VALMOD run.
struct ValmodResult {
  /// Exact top-k motif pairs for every length in the range, ascending length.
  std::vector<LengthMotifs> per_length;
  /// Every reported pair across all lengths, ranked by length-normalized
  /// distance — the cross-length motif ranking of paper §2.
  std::vector<mp::MotifPair> ranked;
  /// VALMAP meta-data (empty when options.build_valmap is false).
  Valmap valmap;
  /// The full matrix profile computed at min_length during initialization
  /// (paper Fig. 1b-c); free to expose since phase 1 materializes it.
  mp::MatrixProfile min_length_profile;
  /// Pruning statistics per length > min_length, aligned one-to-one with
  /// per_length[1..] (lengths whose window count cannot fit a non-trivial
  /// pair are skipped by the sweep and carry all-zero counters).
  std::vector<LengthStats> stats;
  /// Wall-clock split: initial scan vs the variable-length phase.
  double init_seconds = 0.0;
  double update_seconds = 0.0;
  /// True when the run was cut short by its deadline under
  /// ValmodOptions::allow_partial: per_length/stats/valmap cover only the
  /// completed prefix of the length range (each completed length exact).
  bool partial = false;
};

/// Runs VALMOD: exact top-k motif pairs for every subsequence length in
/// [options.min_length, options.max_length] plus VALMAP, in
/// O(n^2 + (lmax - lmin) * n * max(p, 32)) expected time: rows start with
/// p entries and recomputed rows grow within an n * max(p, 32) budget. The
/// worst case degrades toward one exact recompute per uncertified row, once
/// the budget is spent: a few O(n) recurrence passes from a cached nearby
/// row, or one MASS row when none is in reach.
Result<ValmodResult> RunValmod(const series::DataSeries& series,
                               const ValmodOptions& options);

/// Engine form: runs against `engine.series()` reusing the engine's cached
/// series/chunk spectra and FFT plans, so a stream of VALMOD runs against
/// one loaded series (the serving workload) pays those builds once in
/// total. The series-taking overload above constructs a throwaway engine
/// and delegates here; results are identical between the two.
Result<ValmodResult> RunValmod(mass::MassEngine& engine,
                               const ValmodOptions& options);

/// Ranks motif pairs from multiple lengths by length-normalized distance
/// (ties: shorter distance first, then offsets). Exposed separately so
/// callers can re-rank filtered subsets.
std::vector<mp::MotifPair> RankByNormalizedDistance(
    std::vector<mp::MotifPair> pairs);

}  // namespace valmod::core

#endif  // VALMOD_CORE_VALMOD_H_
