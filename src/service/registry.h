#ifndef VALMOD_SERVICE_REGISTRY_H_
#define VALMOD_SERVICE_REGISTRY_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "mass/engine.h"
#include "mp/matrix_profile.h"
#include "mp/streaming.h"
#include "series/data_series.h"

namespace valmod::service {

/// An immutable (series, engine) pair at one dataset generation — the unit
/// of sharing in the serving stack. Every request executing against a
/// dataset holds one of these via shared_ptr, so:
///
///  - the `MassEngine` (and with it the cached series spectra, chunk
///    spectra, and FFT plans) is built once per generation and reused by
///    every request, which is what lets the engine caches amortize across
///    a query stream instead of dying with each one-shot CLI process;
///  - `unload` (or a streaming append that supersedes this generation)
///    cannot pull the data out from under an in-flight request — the
///    snapshot stays alive until the last request drops its reference.
///
/// MassEngine is internally synchronized, so one snapshot may serve any
/// number of concurrent requests.
class DatasetSnapshot {
 public:
  DatasetSnapshot(series::DataSeries series, std::uint64_t generation)
      : series_(std::move(series)), engine_(series_), generation_(generation) {}

  DatasetSnapshot(const DatasetSnapshot&) = delete;
  DatasetSnapshot& operator=(const DatasetSnapshot&) = delete;

  const series::DataSeries& series() const { return series_; }
  /// Mutable because engine calls are non-const; the engine is safe for
  /// concurrent callers (its caches are mutex-guarded).
  mass::MassEngine& engine() const { return engine_; }
  std::uint64_t generation() const { return generation_; }

 private:
  series::DataSeries series_;
  mutable mass::MassEngine engine_;
  std::uint64_t generation_;
};

/// One named dataset held by the registry: either a static series loaded
/// once, or a streaming (append-only) series backed by an incrementally
/// maintained `mp::StreamingProfile`.
///
/// Generations: a static dataset is forever generation 1; every streaming
/// append bumps the generation. The generation is part of every result
/// cache key, so cached responses computed against an older state of the
/// data are never served after an append.
class Dataset {
 public:
  /// Registry-internal constructors; use DatasetRegistry to create these.
  static std::shared_ptr<Dataset> CreateStatic(std::string name,
                                               series::DataSeries series);
  /// `max_points == 0` means unbounded (append-only); a bound turns the
  /// dataset into a sliding window (see mp::StreamingOptions::max_points).
  static Result<std::shared_ptr<Dataset>> CreateStreaming(
      std::string name, std::size_t subsequence_length,
      double exclusion_fraction = 0.5, std::size_t max_points = 0);

  const std::string& name() const { return name_; }
  /// Process-unique id, distinct across every dataset ever created — in
  /// particular across unload/reload cycles of the same *name*. Cache keys
  /// embed it so a reloaded "ecg" (fresh data, generation restarting at 1)
  /// can never alias cached responses from the previous "ecg".
  std::uint64_t uid() const { return uid_; }
  bool streaming() const { return streaming_.has_value(); }
  std::uint64_t generation() const;
  std::size_t size() const;

  /// The streaming profile's subsequence length (0 for static datasets).
  std::size_t streaming_length() const { return streaming_length_; }

  /// The streaming window bound (0 for static or unbounded datasets).
  std::size_t max_points() const { return max_points_; }

  /// The current (series, engine) snapshot. For a static dataset this is
  /// always the same object; for a streaming dataset the snapshot is
  /// materialized lazily from the retained values at first use per
  /// generation (and reused until the next append): an O(n) copy and stats
  /// build, plus a fresh engine whose caches fill on first use. Fails for a
  /// streaming dataset with no points yet.
  ///
  /// Streaming note: the materialized series holds the values shifted by
  /// the StreamingProfile's anchor, built by the same DataSeries::Create as
  /// a static load (so centered at the window's own mean). Z-normalized
  /// distances are invariant under a global shift, so every query result is
  /// unaffected; only raw value readback would see the shift, and the
  /// service never exposes it.
  Result<std::shared_ptr<const DatasetSnapshot>> Snapshot();

  /// The dataset state one append produced, captured atomically under the
  /// dataset lock: a concurrent append can never make a response report a
  /// (points, generation) pair this append did not itself create.
  struct AppendResult {
    std::size_t points = 0;  // retained after the append
    std::size_t subsequences = 0;
    std::uint64_t generation = 0;
    /// Points evicted by this append (windowed datasets only).
    std::size_t evicted = 0;
    /// Global stream position of the first retained point.
    std::size_t window_start = 0;
    std::size_t total_appended = 0;
  };

  /// Appends points to a streaming dataset (O(m + l) each) and bumps the
  /// generation. Fails on static datasets.
  Result<AppendResult> Append(std::span<const double> values);

  /// Copy of the incrementally maintained matrix profile (streaming only),
  /// tagged with the generation it was taken at. Copied under the dataset
  /// lock so concurrent appends can neither tear the profile nor desync it
  /// from the generation — the server keys cached responses by that
  /// generation, so the pair must be atomic. The profile verb serializes
  /// the copy and the maintained motifs/discords answers run the shared
  /// top-k selection on it, both outside the lock.
  struct StreamingState {
    mp::MatrixProfile profile;
    std::uint64_t generation = 0;
    std::size_t points = 0;
    /// Global stream position of window offset 0 in `profile`.
    std::size_t window_start = 0;
  };
  Result<StreamingState> StreamingProfileSnapshot();

  /// Occupancy and footprint of the dataset, for the `stats` verb.
  struct MemoryInfo {
    std::size_t memory_bytes = 0;  // profile state + snapshot + engine caches
    std::size_t retained = 0;
    std::size_t max_points = 0;     // 0 = unbounded
    std::size_t evicted_total = 0;  // == window start
    std::size_t total_appended = 0;
  };
  MemoryInfo Memory() const;

 private:
  Dataset() = default;

  std::string name_;
  std::uint64_t uid_ = 0;
  std::size_t streaming_length_ = 0;
  std::size_t max_points_ = 0;

  mutable std::mutex mutex_;
  std::uint64_t generation_ = 1;
  std::optional<mp::StreamingProfile> streaming_;
  /// Cached snapshot; for streaming datasets its generation may trail
  /// generation_ until the next Snapshot() call re-materializes.
  std::shared_ptr<const DatasetSnapshot> snapshot_;
};

/// Named, ref-counted registry of long-lived datasets — the serving
/// stack's ownership root. Handing out shared_ptr<Dataset> (and snapshots)
/// means `Unload` only severs the name: in-flight requests against the
/// unloaded dataset finish normally on their own references.
class DatasetRegistry {
 public:
  struct Info {
    std::string name;
    std::size_t points = 0;
    std::uint64_t generation = 0;
    bool streaming = false;
    std::size_t streaming_length = 0;
    std::size_t max_points = 0;      // 0 = unbounded / static
    std::size_t evicted = 0;         // total points aged out of the window
    std::size_t total_appended = 0;  // streaming only; == points for static
    std::size_t memory_bytes = 0;    // series + profile + engine caches
  };

  /// Registers a static dataset under `name`. Fails if the name is taken
  /// (unload first — silently replacing would invalidate the generation
  /// story for requests already admitted against the old data).
  Result<std::shared_ptr<Dataset>> LoadSeries(const std::string& name,
                                              series::DataSeries series);

  /// Registers an empty streaming dataset maintaining a profile at
  /// `subsequence_length`; `max_points > 0` bounds the retained window.
  Result<std::shared_ptr<Dataset>> CreateStreaming(
      const std::string& name, std::size_t subsequence_length,
      double exclusion_fraction = 0.5, std::size_t max_points = 0);

  /// Looks up a dataset. NotFound when absent.
  Result<std::shared_ptr<Dataset>> Get(const std::string& name) const;

  Status Unload(const std::string& name);

  /// Sorted by name.
  std::vector<Info> List() const;

  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Dataset>> datasets_;
};

}  // namespace valmod::service

#endif  // VALMOD_SERVICE_REGISTRY_H_
