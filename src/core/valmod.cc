#include "core/valmod.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/match_order.h"
#include "common/parallel.h"
#include "common/status.h"
#include "common/trace.h"
#include "core/dot_row_cache.h"
#include "core/lower_bound.h"
#include "core/partial_profile.h"
#include "mass/engine.h"
#include "mass/mass.h"
#include "mp/diagonal.h"
#include "series/znorm.h"
#include "simd/dispatch.h"
#include "stats/moving_stats.h"

namespace valmod::core {

namespace {

using mp::kInfinity;

/// Per-row state refreshed at every length of the variable-length phase.
struct RowState {
  double min_dist = kInfinity;
  int64_t best_match = -1;
  double max_lb = 0.0;
  bool valid = false;
  bool constant = false;
};

class ValmodRunner {
 public:
  ValmodRunner(mass::MassEngine& engine, const ValmodOptions& options)
      : series_(engine.series()),
        options_(options),
        stats_(series_.stats()),
        centered_(series_.centered()),
        engine_(engine),
        dot_rows_(series_.size()) {}

  Result<ValmodResult> Run();

 private:
  Status Validate() const;
  Status InitialScan();
  Status ProcessLength(std::size_t length);
  Status RecomputeRows(std::span<const std::size_t> rows, std::size_t length,
                       std::size_t exclusion);
  void ReseedRow(std::size_t row, std::size_t length, std::size_t exclusion,
                 std::span<const double> dots,
                 simd::RowReseedScratch* scratch);
  std::vector<mp::MotifPair> SelectCertified(std::size_t length,
                                             std::size_t exclusion) const;
  Status RefreshWindowProfile(std::size_t length);
  void ConstantRowMinimum(std::size_t row, std::size_t length,
                          std::size_t exclusion, RowState* state) const;
  void EmitLength(std::size_t length, std::vector<mp::MotifPair> motifs);

  const series::DataSeries& series_;
  const ValmodOptions& options_;
  const stats::MovingStats& stats_;
  std::span<const double> centered_;
  /// Shared MASS engine: it anchors the recomputed rows that no cached dot
  /// row reaches (`dot_rows_`), through the batched entry point, and
  /// amortizes the series/chunk spectra and FFT plans across all of them
  /// while pairing batch rows to share transforms. Borrowed, not owned: the
  /// serving layer passes a registry-held engine so the spectra also
  /// amortize across *runs* (the one-shot overload constructs a local one).
  mass::MassEngine& engine_;
  /// Dot rows of recent recomputed rows: the bases the STOMP recurrences
  /// derive nearby recomputed rows from, in place of a MASS row.
  DotRowCache dot_rows_;
  /// One re-seed scratch per worker of RecomputeRows.
  std::vector<simd::RowReseedScratch> reseed_scratch_;

  // Phase-1 product; rows closed at their base length have no usable
  // partial profile.
  std::unique_ptr<PartialProfileSet> partial_;

  // Per-length working arrays (reused across lengths).
  mp::WindowStats windows_;
  std::vector<std::size_t> const_offsets_;
  std::vector<std::size_t> non_const_offsets_;
  std::vector<RowState> states_;

  ValmodResult result_;
};

Status ValmodRunner::Validate() const {
  const std::size_t n = series_.size();
  if (options_.min_length < 2) {
    return Status::InvalidArgument("min_length must be >= 2");
  }
  if (options_.min_length > options_.max_length) {
    return Status::InvalidArgument("min_length exceeds max_length");
  }
  if (options_.max_length + 1 > n) {
    return Status::InvalidArgument(
        "max_length " + std::to_string(options_.max_length) +
        " leaves fewer than 2 subsequences in a " + std::to_string(n) +
        "-point series");
  }
  if (options_.k == 0) return Status::InvalidArgument("k must be >= 1");
  if (options_.p == 0) return Status::InvalidArgument("p must be >= 1");
  // Each row keeps p partial-profile entries; more than there are windows
  // can never fill and only inflates the n*p allocation.
  const std::size_t windows = n - options_.min_length + 1;
  if (options_.p > windows) {
    return Status::InvalidArgument(
        "p " + std::to_string(options_.p) + " exceeds the " +
        std::to_string(windows) + " windows at min_length " +
        std::to_string(options_.min_length));
  }
  if (options_.exclusion_fraction < 0.0 ||
      options_.exclusion_fraction > 1.0) {
    return Status::InvalidArgument("exclusion_fraction must be in [0, 1]");
  }
  return Status::Ok();
}

Status ValmodRunner::RefreshWindowProfile(std::size_t length) {
  // The same statistics STOMP reads, so the min-length profile of the
  // initial scan equals ComputeStomp's bit for bit.
  VALMOD_RETURN_IF_ERROR(windows_.Compute(series_, length));
  const_offsets_.clear();
  non_const_offsets_.clear();
  for (std::size_t i = 0; i < windows_.is_const.size(); ++i) {
    (windows_.is_const[i] ? const_offsets_ : non_const_offsets_).push_back(i);
  }
  return Status::Ok();
}

/// Nearest offset in `sorted` at least `exclusion` away from `row`, or -1.
int64_t NearestOutsideExclusion(const std::vector<std::size_t>& sorted,
                                std::size_t row, std::size_t exclusion) {
  int64_t best = -1;
  int64_t best_gap = std::numeric_limits<int64_t>::max();
  // Left side: largest offset <= row - exclusion.
  if (row >= exclusion) {
    auto it = std::upper_bound(sorted.begin(), sorted.end(),
                               row - exclusion);
    if (it != sorted.begin()) {
      const int64_t offset = static_cast<int64_t>(*std::prev(it));
      best = offset;
      best_gap = static_cast<int64_t>(row) - offset;
    }
  }
  // Right side: smallest offset >= row + exclusion.
  auto it = std::lower_bound(sorted.begin(), sorted.end(), row + exclusion);
  if (it != sorted.end()) {
    const int64_t offset = static_cast<int64_t>(*it);
    const int64_t gap = offset - static_cast<int64_t>(row);
    if (gap < best_gap) best = offset;
  }
  return best;
}

void ValmodRunner::ConstantRowMinimum(std::size_t row, std::size_t length,
                                      std::size_t exclusion,
                                      RowState* state) const {
  // A constant window is at distance 0 from every other constant window and
  // sqrt(l) from every non-constant one (znorm.h conventions), so its exact
  // row minimum needs only the offset lists.
  const int64_t const_match =
      NearestOutsideExclusion(const_offsets_, row, exclusion);
  if (const_match >= 0) {
    state->min_dist = 0.0;
    state->best_match = const_match;
    state->valid = true;
    return;
  }
  const int64_t any_match =
      NearestOutsideExclusion(non_const_offsets_, row, exclusion);
  if (any_match >= 0) {
    state->min_dist = std::sqrt(static_cast<double>(length));
    state->best_match = any_match;
    state->valid = true;
    return;
  }
  state->min_dist = kInfinity;
  state->best_match = -1;
  state->valid = true;  // exact: no eligible match exists
}

Status ValmodRunner::InitialScan() {
  const std::size_t length = options_.min_length;
  const std::size_t count = series_.NumSubsequences(length);
  const std::size_t exclusion =
      mp::ExclusionZoneFor(length, options_.exclusion_fraction);

  VALMOD_RETURN_IF_ERROR(RefreshWindowProfile(length));

  mp::MatrixProfile& profile = result_.min_length_profile;
  profile.subsequence_length = length;
  profile.exclusion_zone = exclusion;
  profile.distances.assign(count, kInfinity);
  profile.indices.assign(count, -1);

  // Fused STOMP sweep: each computed pair updates the row minima of both
  // endpoints and is offered to both partial profiles. Every walker worker
  // seeds its own partial set; since every pair is handled by exactly one
  // worker and the sets keep a total order, merging them with Offer()
  // yields the same p entries per row at any worker count.
  mp::DiagonalScan scan;
  scan.a = windows_.Arrays(series_);
  scan.length = length;
  scan.exclusion = exclusion;
  const std::size_t workers = mp::DiagonalWorkers(scan, options_.num_threads);
  std::vector<std::unique_ptr<PartialProfileSet>> partials(workers);
  std::vector<simd::OfferSink> sinks;
  sinks.reserve(workers);
  for (auto& partial : partials) {
    partial = std::make_unique<PartialProfileSet>(count, options_.p, length);
    for (std::size_t row : const_offsets_) partial->Close(row);
    sinks.push_back(partial->Sink());
  }
  if (!mp::WalkDiagonals(scan, workers, options_.deadline, sinks,
                         profile.distances.data(), profile.indices.data())) {
    return Status::DeadlineExceeded("VALMOD initial scan timed out");
  }

  // Closed rows are empty in every set (the gate rejected all their
  // candidates), so the merge offers only to open rows.
  partial_ = std::move(partials[0]);
  for (std::size_t w = 1; w < workers; ++w) {
    for (std::size_t i = 0; i < count; ++i) {
      for (const Entry& e : partials[w]->Row(i)) {
        partial_->Offer(i, e.match, e.dot, e.base_lb);
      }
    }
    partials[w].reset();
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (partial_->seeded(i)) partial_->FinishSeeding(i);
  }

  // Constant rows the sweep already profiled are exact as-is: the scan's
  // convention distances (0 to a constant partner, sqrt(l) to anything
  // else) are the only values a constant row can take, so the offset-list
  // minimum can never improve on an observed pair. Only rows the sweep
  // never reached (no eligible partner recorded) need the explicit pass.
  for (std::size_t row : const_offsets_) {
    if (profile.indices[row] >= 0) continue;
    RowState state;
    ConstantRowMinimum(row, length, exclusion, &state);
    if (state.min_dist < profile.distances[row]) {
      profile.distances[row] = state.min_dist;
      profile.indices[row] = state.best_match;
    }
  }

  std::vector<mp::MotifPair> motifs = mp::TopKMotifs(profile, options_.k);
  if (options_.build_valmap) {
    VALMOD_ASSIGN_OR_RETURN(result_.valmap, Valmap::FromProfile(profile));
    result_.valmap.Checkpoint(length);
  }
  EmitLength(length, std::move(motifs));
  return Status::Ok();
}

Status ValmodRunner::RecomputeRows(std::span<const std::size_t> rows,
                                   std::size_t length,
                                   std::size_t exclusion) {
  // Each row's exact dots come from the nearest cached dot row by the STOMP
  // recurrences, or from MASS when none is in reach. Bases are picked
  // serially in batch order from the cache as it stood when the batch
  // started, so which rows pay for MASS never depends on the thread count.
  // A chain of derivations stops at as many steps from its MASS anchor as
  // one STOMP diagonal walks: the window count.
  const std::size_t count = series_.NumSubsequences(length);
  std::vector<const DotRow*> bases(rows.size());
  std::vector<std::size_t> anchored;
  for (std::size_t b = 0; b < rows.size(); ++b) {
    bases[b] = dot_rows_.FindBase(rows[b], length, count);
    if (bases[b] == nullptr) anchored.push_back(rows[b]);
  }
  // One batched engine call for the rest: adjacent rows share a pair-packed
  // (or overlap-save) transform, the pairing depending only on the row
  // order — never on the thread count, which only controls how pairs fan
  // out.
  std::vector<mass::RowProfile> profiles;
  if (!anchored.empty()) {
    VALMOD_ASSIGN_OR_RETURN(
        profiles,
        engine_.ComputeRowProfiles(anchored, length, options_.num_threads));
  }
  std::vector<DotRow> fresh(rows.size());
  for (std::size_t b = 0, m = 0; b < rows.size(); ++b) {
    fresh[b].offset = rows[b];
    fresh[b].length = length;
    if (bases[b] == nullptr) {
      fresh[b].dots = std::move(profiles[m++].dots);
    } else {
      fresh[b].chain =
          bases[b]->chain + DerivationSteps(*bases[b], rows[b], length);
    }
  }
  profiles.clear();  // the re-seed derives every distance from the dots
  // A recomputed row failed certification: its stored candidates did not
  // reach far enough. It reseeds with double its capacity (capped at the
  // windows at this length) while the set's budget lasts; a refused row
  // keeps its capacity and is still exact, since its recompute is. Decided
  // serially in batch order, so which rows grow never depends on the thread
  // count. Grow refuses closed rows.
  for (std::size_t row : rows) {
    partial_->Grow(row, std::min(2 * partial_->capacity(row), count));
  }
  // Deriving a row reads only its base; re-seeding touches only the row's
  // own partial-profile slice and state, so both partition cleanly. Each
  // worker claims rows in turn and reuses its own re-seed scratch.
  const std::size_t workers = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(options_.num_threads, 1)),
      rows.size());
  if (reseed_scratch_.size() < workers) reseed_scratch_.resize(workers);
  std::atomic<std::size_t> next{0};
  ParallelFor(0, workers, static_cast<int>(workers), [&](std::size_t w) {
    for (std::size_t b = next++; b < rows.size(); b = next++) {
      if (bases[b] != nullptr) {
        DeriveDotRow(centered_, *bases[b], rows[b], length, &fresh[b].dots);
      }
      ReseedRow(rows[b], length, exclusion, fresh[b].dots,
                &reseed_scratch_[w]);
    }
  });
  for (DotRow& row : fresh) dot_rows_.Insert(std::move(row));
  return Status::Ok();
}

void ValmodRunner::ReseedRow(std::size_t row, std::size_t length,
                             std::size_t exclusion,
                             std::span<const double> dots,
                             simd::RowReseedScratch* scratch) {
  partial_->Reset(row, length);
  RowState& state = states_[row];
  state.min_dist = kInfinity;
  state.best_match = -1;
  // The diagonal tile's cell math, straight from the dots: the distance and
  // the row minimum, the base LB from the correlation, the gate and the
  // offer.
  const simd::OfferSink sink = partial_->ReseedSink();
  const simd::RowReseed reseed{windows_.Arrays(series_),
                               length,
                               row,
                               exclusion,
                               dots.data(),
                               &state.min_dist,
                               &state.best_match,
                               scratch,
                               &sink};
  simd::ActiveKernels().reseed_row(reseed);
  partial_->FinishSeeding(row);
  if (windows_.is_const[row]) partial_->Close(row);
  state.valid = true;
  state.max_lb = kInfinity;  // exact now; nothing unexplored this length
}

std::vector<mp::MotifPair> ValmodRunner::SelectCertified(
    std::size_t length, std::size_t exclusion) const {
  // The rows certified so far, through the shared selection every motif
  // answer uses (its sorted-prefix shortcut keeps a pass O(n + k log k)).
  std::vector<mp::RowCandidate> candidates;
  candidates.reserve(states_.size());
  for (std::size_t row = 0; row < states_.size(); ++row) {
    const RowState& s = states_[row];
    if (!s.valid || s.best_match < 0 || s.min_dist == kInfinity) continue;
    candidates.push_back(
        mp::RowCandidate{s.min_dist, static_cast<int64_t>(row),
                         s.best_match});
  }
  return mp::SelectTopKMotifs(std::move(candidates), length, exclusion,
                              options_.k);
}

Status ValmodRunner::ProcessLength(std::size_t length) {
  const std::size_t count = series_.NumSubsequences(length);
  const std::size_t exclusion =
      mp::ExclusionZoneFor(length, options_.exclusion_fraction);
  LengthStats stats;
  stats.length = length;

  VALMOD_RETURN_IF_ERROR(RefreshWindowProfile(length));
  states_.assign(count, RowState{});

  // Sweep 1: advance every seeded row's entries by one point and evaluate
  // validity from the stored candidates. Rows are independent (each touches
  // only its own partial-profile slice and state), so the sweep partitions
  // cleanly across threads.
  ParallelFor(0, count, options_.num_threads, [&](std::size_t i) {
    RowState& state = states_[i];
    state.constant = windows_.is_const[i] != 0;

    const bool seeded = partial_->seeded(i);
    if (seeded) {
      // Candidates past the shrunken subsequence range or inside the grown
      // exclusion zone are dead for every future length too.
      partial_->CompactRow(i, [&](const Entry& e) {
        const std::size_t j = static_cast<std::size_t>(e.match);
        const std::size_t gap = j > i ? j - i : i - j;
        return j >= count || gap < exclusion;
      });
      const std::size_t tail = length - 1;
      const double ci = centered_[i + tail];
      const mp::WindowStats& w = windows_;
      for (Entry& e : partial_->MutableRow(i)) {
        const std::size_t j = static_cast<std::size_t>(e.match);
        e.dot += ci * centered_[j + tail];
        const double distance = series::PairDistanceFromDot(
            e.dot, w.means[i], w.means[j], w.stds[i], w.stds[j], length,
            state.constant, w.is_const[j] != 0);
        if (MatchPrecedes(distance, e.match, state.min_dist,
                          state.best_match, i)) {
          state.min_dist = distance;
          state.best_match = e.match;
        }
      }
    }

    if (state.constant) {
      // Exact via the constant-window conventions; the partial profile's dot
      // products were still advanced above so the row resumes LB pruning if
      // it becomes non-constant at a later length.
      ConstantRowMinimum(i, length, exclusion, &state);
      return;
    }

    if (seeded) {
      const std::size_t base = partial_->base_length(i);
      state.max_lb =
          ScaledLowerBound(partial_->max_base_lb(i), stats_.StdDev(i, base),
                           windows_.stds[i]);
      state.valid = state.min_dist <= state.max_lb;
    } else {
      // Row had no usable partial profile (constant at its base length):
      // only an exact recompute can certify it.
      state.max_lb = 0.0;
      state.valid = false;
    }
  });

  for (const RowState& s : states_) {
    if (s.constant) {
      ++stats.constant_rows;
    } else if (s.valid) {
      ++stats.valid_rows;
    } else {
      ++stats.invalid_rows;
    }
  }

  // Certification loop: select from certified rows, then exactly recompute
  // every uncertified row whose bound allows it to beat the current k-th
  // best. Rows are processed in ascending bound order and, for k = 1, the
  // threshold tightens as each exact row minimum arrives — a fresh exact
  // minimum can disqualify most of the remaining batch before it is paid
  // for. (Skipping aggressively is safe: the outer loop re-selects and
  // re-derives the batch until no uncertified row can matter.) Terminates
  // because every pass certifies at least one row.
  std::vector<mp::MotifPair> motifs;
  while (true) {
    ++stats.passes;
    motifs = SelectCertified(length, exclusion);
    double threshold =
        motifs.size() >= options_.k ? motifs.back().distance : kInfinity;
    std::vector<std::size_t> to_recompute;
    for (std::size_t i = 0; i < count; ++i) {
      if (!states_[i].valid && states_[i].max_lb < threshold) {
        to_recompute.push_back(i);
      }
    }
    if (to_recompute.empty()) break;
    std::sort(to_recompute.begin(), to_recompute.end(),
              [&](std::size_t a, std::size_t b) {
                return states_[a].max_lb < states_[b].max_lb;
              });
    // Recomputations run through the engine's batched entry point: rows in
    // a batch pair up to share transforms, and the k = 1 threshold tightens
    // between batches (smaller batches would tighten faster but batch
    // worse). The batch size is fixed, not scaled by num_threads: the
    // batch composition decides the row pairing, and with it the last ulps
    // of a recomputed distance, so a fixed size keeps results independent
    // of the thread count (16 rows are 8 pair transforms, enough to keep a
    // handful of workers busy).
    constexpr std::size_t batch_size = 16;
    std::vector<std::size_t> batch;
    std::size_t cursor = 0;
    while (cursor < to_recompute.size()) {
      if (states_[to_recompute[cursor]].max_lb >= threshold) {
        break;  // sorted by bound: every remaining row skips too
      }
      // A long recompute phase must not overshoot the deadline: STAMP
      // checks between chunks, and this loop checks between batches.
      if (options_.deadline.Expired()) {
        return Status::DeadlineExceeded(
            "VALMOD recompute timed out at length " + std::to_string(length));
      }
      std::size_t batch_end = cursor;
      while (batch_end < to_recompute.size() &&
             batch_end - cursor < batch_size &&
             states_[to_recompute[batch_end]].max_lb < threshold) {
        ++batch_end;
      }
      batch.assign(to_recompute.begin() + static_cast<std::ptrdiff_t>(cursor),
                   to_recompute.begin() +
                       static_cast<std::ptrdiff_t>(batch_end));
      VALMOD_RETURN_IF_ERROR(RecomputeRows(batch, length, exclusion));
      stats.recomputed_rows += batch_end - cursor;
      if (options_.k == 1) {
        for (std::size_t b = cursor; b < batch_end; ++b) {
          threshold =
              std::min(threshold, states_[to_recompute[b]].min_dist);
        }
      }
      cursor = batch_end;
    }
  }

  if (options_.build_valmap) {
    for (const mp::MotifPair& pair : motifs) result_.valmap.Apply(pair);
    result_.valmap.Checkpoint(length);
  }
  EmitLength(length, std::move(motifs));
  result_.stats.push_back(stats);
  return Status::Ok();
}

void ValmodRunner::EmitLength(std::size_t length,
                              std::vector<mp::MotifPair> motifs) {
  LengthMotifs entry;
  entry.length = length;
  entry.motifs = std::move(motifs);
  result_.per_length.push_back(std::move(entry));
}

Result<ValmodResult> ValmodRunner::Run() {
  VALMOD_RETURN_IF_ERROR(Validate());

  WallTimer timer;
  {
    const trace::TraceSpan span("initial_scan");
    VALMOD_RETURN_IF_ERROR(InitialScan());
  }
  result_.init_seconds = timer.ElapsedSeconds();

  timer.Restart();
  {
    const trace::TraceSpan span("length_sweep");
    // Under allow_partial a deadline after the initial scan degrades to a
    // partial result: the lengths completed so far (each exact —
    // ProcessLength emits a length only after its certification loop
    // finishes, so an interrupted length leaves no trace) instead of a bare
    // error.
    for (std::size_t length = options_.min_length + 1;
         length <= options_.max_length; ++length) {
      if (options_.deadline.Expired()) {
        if (options_.allow_partial && !result_.per_length.empty()) {
          result_.partial = true;
          break;
        }
        return Status::DeadlineExceeded("VALMOD timed out at length " +
                                        std::to_string(length));
      }
      const std::size_t count = series_.NumSubsequences(length);
      const std::size_t exclusion =
          mp::ExclusionZoneFor(length, options_.exclusion_fraction);
      if (count <= exclusion) {
        // No non-trivial pair can exist at this or any longer length. Each
        // skipped length still gets a (zeroed) stats entry so result_.stats
        // stays aligned with result_.per_length for consumers that zip them.
        for (std::size_t l = length; l <= options_.max_length; ++l) {
          EmitLength(l, {});
          LengthStats skipped;
          skipped.length = l;
          result_.stats.push_back(skipped);
          if (options_.build_valmap) result_.valmap.Checkpoint(l);
        }
        break;
      }
      if (Status status = ProcessLength(length); !status.ok()) {
        if (status.code() == StatusCode::kDeadlineExceeded &&
            options_.allow_partial && !result_.per_length.empty()) {
          result_.partial = true;
          break;
        }
        return status;
      }
    }
  }
  result_.update_seconds = timer.ElapsedSeconds();

  std::vector<mp::MotifPair> all;
  for (const LengthMotifs& lm : result_.per_length) {
    all.insert(all.end(), lm.motifs.begin(), lm.motifs.end());
  }
  result_.ranked = RankByNormalizedDistance(std::move(all));
  return std::move(result_);
}

}  // namespace

Result<ValmodResult> RunValmod(const series::DataSeries& series,
                               const ValmodOptions& options) {
  mass::MassEngine engine(series);
  return RunValmod(engine, options);
}

Result<ValmodResult> RunValmod(mass::MassEngine& engine,
                               const ValmodOptions& options) {
  const trace::TraceSpan span("valmod_run");
  ValmodRunner runner(engine, options);
  return runner.Run();
}

std::vector<mp::MotifPair> RankByNormalizedDistance(
    std::vector<mp::MotifPair> pairs) {
  std::sort(pairs.begin(), pairs.end(),
            [](const mp::MotifPair& a, const mp::MotifPair& b) {
              if (a.normalized_distance != b.normalized_distance) {
                return a.normalized_distance < b.normalized_distance;
              }
              if (a.length != b.length) return a.length < b.length;
              if (a.offset_a != b.offset_a) return a.offset_a < b.offset_a;
              return a.offset_b < b.offset_b;
            });
  return pairs;
}

}  // namespace valmod::core
