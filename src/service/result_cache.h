#ifndef VALMOD_SERVICE_RESULT_CACHE_H_
#define VALMOD_SERVICE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace valmod::service {

/// Bounded LRU cache of serialized response payloads, keyed by the full
/// identity of a computation:
///
///   dataset uid + dataset generation + verb + resolved request params
///
/// (the server builds the key; see CacheKey in service/server.cc). The uid,
/// not the name, identifies the data: a name can be unloaded and reused
/// for a different series. The dataset
/// *generation* changes on every streaming append, so a cached answer is
/// never served against newer data. Nothing else can change the bytes:
/// the backend kAuto picks is a pure function of the request's shape
/// (mass::ChooseConvolutionBackend over the static cost model).
///
/// The request's `threads` param is deliberately NOT part of the key: the
/// engine guarantees batched results depend only on row order, never on
/// the thread count, so responses computed at different thread counts are
/// byte-identical and may share an entry.
///
/// Values are shared_ptr<const string>: a hit hands back a reference to
/// the stored bytes with no copy, and eviction cannot race a reader.
///
/// In-flight coalescing: beyond the stored entries, the cache tracks keys
/// whose computation is *currently running* (a "flight"). The first miss
/// for a key becomes the flight's leader and computes; every identical
/// miss that arrives while the flight is open joins as a waiter instead of
/// recomputing — one computation, N responses. The flight protocol:
///
///   GetOrJoin  -> kHit (value ready) | kLeader (caller computes)
///                 | kJoined (caller's waiter callbacks were parked)
///   CompleteFlight -> leader succeeded: value is stored (unless the
///                 caller says not to cache it), and every parked waiter
///                 is returned for fan-out
///   FailFlight -> leader failed / was cancelled / returned a payload the
///                 waiters must not share (partial): the *next* waiter is
///                 popped for promotion to leader — fail-over, not a
///                 thundering error to every waiter. The flight stays
///                 open while waiters remain.
///
/// Flights work even at capacity 0 (caching disabled): coalescing
/// deduplicates concurrent work, which is independent of memoizing
/// finished work.
class ResultCache {
 public:
  struct Stats {
    std::size_t entries = 0;
    std::size_t capacity = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::size_t inflight = 0;          // open flights now
    std::uint64_t coalesced = 0;       // waiters that joined a flight, ever
    std::uint64_t failovers = 0;       // waiters promoted to leader, ever
    std::uint64_t flights_led = 0;     // GetOrJoin calls that opened a flight
    std::uint64_t waiters_served = 0;  // waiters fanned a leader's payload
  };

  /// A parked waiter: `deliver` fans out the leader's finished payload;
  /// `promote` re-executes the waiter's own computation when it becomes
  /// the new leader after a fail-over. Exactly one of the two is invoked,
  /// by the caller, outside the cache lock.
  struct InFlightWaiter {
    std::function<void(std::shared_ptr<const std::string>)> deliver;
    std::function<void()> promote;
  };

  enum class FlightState {
    kHit,     // value was cached; no flight involved
    kLeader,  // caller opened the flight and must compute
    kJoined,  // caller's waiter was parked on an open flight
  };

  struct FlightLookup {
    FlightState state = FlightState::kLeader;
    /// Set only for kHit.
    std::shared_ptr<const std::string> value;
  };

  /// `capacity` = max entries; 0 disables caching (Get always misses,
  /// Put is a no-op) so the server's --cache=0 flag and the bench's cold
  /// path share one code path.
  explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// nullptr on miss. A hit refreshes the entry's recency.
  std::shared_ptr<const std::string> Get(const std::string& key);

  /// Inserts (or refreshes) `key`, evicting the least recently used entry
  /// beyond capacity.
  void Put(const std::string& key, std::shared_ptr<const std::string> value);

  /// One atomic lookup-or-coalesce step (see class comment). The waiter is
  /// parked only when the result is kJoined; for kHit and kLeader it is
  /// discarded untouched.
  FlightLookup GetOrJoin(const std::string& key, InFlightWaiter waiter);

  /// Closes the flight for `key` after a successful computation: stores
  /// `value` (unless `cache_value` is false — e.g. the flight ran with
  /// caching disabled) and returns every parked waiter for fan-out. Safe
  /// to call when no flight exists (plain Put-like behavior, no waiters).
  std::vector<InFlightWaiter> CompleteFlight(
      const std::string& key, std::shared_ptr<const std::string> value,
      bool cache_value);

  /// Fails the current leader of `key`'s flight over to the next waiter:
  /// pops and returns it (the flight stays open; the caller must invoke
  /// `promote`), or closes the flight and returns nullopt when no waiters
  /// remain. Safe to call when no flight exists.
  std::optional<InFlightWaiter> FailFlight(const std::string& key);

  Stats stats() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const std::string> value;
  };

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  /// Most recent at the front.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  /// Open flights: key -> waiters parked behind the leader (the leader is
  /// not in the queue; it is whoever got kLeader / the last promotion).
  std::unordered_map<std::string, std::deque<InFlightWaiter>> flights_;
  Stats counters_;

  /// Lookup half of Get/GetOrJoin; requires mutex_. Counts a hit or miss.
  std::shared_ptr<const std::string> GetLocked(const std::string& key);
  /// Insert half of Put/CompleteFlight; requires mutex_.
  void PutLocked(const std::string& key,
                 std::shared_ptr<const std::string> value);
};

}  // namespace valmod::service

#endif  // VALMOD_SERVICE_RESULT_CACHE_H_
