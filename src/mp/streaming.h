#ifndef VALMOD_MP_STREAMING_H_
#define VALMOD_MP_STREAMING_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "mp/matrix_profile.h"
#include "mp/motif.h"
#include "series/windowed_series.h"

namespace valmod::mp {

/// Former name of a maintained profile's motif pair; the perfbench stream
/// probes still spell it. Drop it with the next benchmark-only change.
using MotifEntry = MotifPair;

/// Configuration for StreamingProfile.
struct StreamingOptions {
  /// As in ProfileOptions: the exclusion zone is
  /// ExclusionZoneFor(length, exclusion_fraction).
  double exclusion_fraction = 0.5;

  /// Maximum points retained (the sliding window). 0 = unbounded
  /// (append-only, the historical behavior). When bounded, must be at
  /// least 2 * length so the retained window always carries enough
  /// subsequences to have non-trivial matches.
  std::size_t max_points = 0;

  /// Enables periodic re-anchoring (see class comment). On by default;
  /// tests disable it to demonstrate the drift failure mode it prevents.
  bool reanchor = true;
};

/// Incrementally maintained matrix profile for a streaming series
/// (STAMPI/STOMPI-style, the streaming variant introduced alongside the
/// Matrix Profile papers the demo builds on), with an optional sliding
/// window bounding both memory and per-append cost.
///
/// Each Append(value) admits one new subsequence and costs O(W + l) where
/// W is the retained window size (total history when unbounded): the new
/// window's dot products against all retained windows derive from the
/// previous newest window's dots via the same recurrence STOMP uses along
/// diagonals, and both the new row's minimum and all affected existing rows
/// are updated. After appending a series the profile equals the batch
/// `ComputeStomp` result on the retained window (unit-tested, including
/// across arbitrary append/evict interleavings).
///
/// Windowed mode (`max_points > 0`): once the buffer is full, each append
/// evicts the oldest point, drops the profile row whose window left the
/// buffer, and *repairs* retained rows whose recorded nearest neighbor was
/// the evicted window by rescanning their distance row — so the maintained
/// profile is always exactly the profile of the retained window, never a
/// stale superset. Amortized memory is bounded by O(max_points).
///
/// Normalization and re-anchoring: incremental statistics are kept on
/// values shifted by an anchor (z-normalized distances are shift
/// invariant). A fixed anchor degrades on long-lived drifting streams: the
/// variance of a window is computed as mean-of-squares minus square-of-mean
/// over the shifted values, which cancels catastrophically once the window
/// mean grows far past the window standard deviation (relative error
/// ~ eps * mean^2 / variance). When `reanchor` is on, the profile watches
/// that ratio and, once the retained window's mean-square exceeds ~1e6x its
/// variance, folds the current window mean into the anchor, shifts the
/// retained values in place, rebuilds the prefix sums, and recomputes the
/// O(W) dot-product carry — keeping the conditioning ratio bounded (~1e-10
/// relative error) for any drift. Re-anchors are rate-limited to one per
/// `length` appends, so their O(W l) cost amortizes to O(W) per append —
/// the same order as the regular update.
class StreamingProfile {
 public:
  /// Creates an empty streaming profile for subsequences of `length`.
  static Result<StreamingProfile> Create(std::size_t length,
                                         const StreamingOptions& options);

  /// Convenience overload: unbounded, re-anchoring on.
  static Result<StreamingProfile> Create(std::size_t length,
                                         double exclusion_fraction = 0.5);

  /// Appends one point. Fails only on non-finite input.
  Status Append(double value);

  /// True batch append: validates every value up front (so a bad value at
  /// index i rejects the whole batch instead of leaving a partial append),
  /// reserves all internal arrays once, and checks the allocation fault
  /// point once per batch instead of per point.
  Status AppendAll(std::span<const double> values);

  /// Points currently retained (== total appended when unbounded).
  std::size_t size() const { return values_.size(); }

  /// Subsequences currently retained (0 during warm-up).
  std::size_t NumSubsequences() const {
    return values_.size() >= length_ ? values_.size() - length_ + 1 : 0;
  }

  std::size_t length() const { return length_; }
  std::size_t max_points() const { return values_.max_points(); }
  /// Global stream position of the first retained point == total evicted.
  std::size_t window_start() const { return values_.start_index(); }
  std::size_t total_appended() const { return values_.total_appended(); }

  /// Materialized snapshot of the maintained profile over the retained
  /// window. O(W): distances are copied and neighbor indices rebased to be
  /// window-relative (evicted neighbors can never appear — repair removes
  /// them as part of the eviction that invalidated them). Rows without an
  /// eligible non-trivial match hold +infinity / -1.
  MatrixProfile ProfileSnapshot() const;

  /// Top-k motifs of the maintained profile, window-relative offsets:
  /// TopKMotifs over ProfileSnapshot(). The service reads the snapshot
  /// instead, so the selection runs outside its dataset lock.
  std::vector<MotifPair> TopMotifs(std::size_t k) const;

  /// The retained (anchor-shifted) values, contiguous, oldest first.
  std::span<const double> values() const { return values_.values(); }

  /// Heap footprint of all maintained state.
  std::size_t MemoryBytes() const;

 private:
  StreamingProfile(std::size_t length, std::size_t exclusion,
                   const StreamingOptions& options)
      : length_(length),
        exclusion_(exclusion),
        reanchor_(options.reanchor),
        values_(options.max_points) {}

  double Mean(std::size_t offset) const;
  double Variance(std::size_t offset) const;

  /// Append core for a validated value; shared by Append and AppendAll.
  void AppendValidated(double value);
  /// Evicts the oldest point + profile row and repairs rows orphaned by it.
  void EvictOne();
  /// Recomputes the full distance row for the retained window at local
  /// offset `row` against every other retained window (its previous
  /// nearest neighbor was just evicted, so the stored minimum is stale).
  void RepairRow(std::size_t row);
  /// Folds the current window mean into the anchor if drift crossed the
  /// conditioning threshold (see class comment).
  void MaybeReanchor();

  std::size_t length_;
  std::size_t exclusion_;
  bool reanchor_ = true;
  double anchor_ = 0.0;  // fixed shift applied to all values
  bool anchored_ = false;
  std::size_t last_reanchor_total_ = 0;  // total_appended() at last re-anchor

  /// Retained shifted values; evicts per `max_points`.
  series::WindowedSeries values_;
  /// Prefix sums of the retained shifted values (and squares): entry i is
  /// the sum of retained values [0, i), so both always hold size() + 1
  /// entries and window sums are O(1) differences. Rebuilt (rebased to 0)
  /// on re-anchor; popped in lockstep with evictions.
  series::SlidingBuffer<double> prefix_;
  series::SlidingBuffer<double> prefix_sq_;
  /// QT(j, previous newest window) for every window retained at the last
  /// append; entry 0 corresponds to global window offset last_dots_start_.
  std::vector<double> last_dots_;
  std::size_t last_dots_start_ = 0;
  /// The maintained profile rows for retained windows: distances_[w] /
  /// neighbors_[w] describe the window at local offset w. Neighbors are
  /// stored as *global* stream offsets so eviction never needs an O(W)
  /// rebase sweep; ProfileSnapshot rebases on the way out.
  series::SlidingBuffer<double> distances_;
  series::SlidingBuffer<std::int64_t> neighbors_;
};

}  // namespace valmod::mp

#endif  // VALMOD_MP_STREAMING_H_
