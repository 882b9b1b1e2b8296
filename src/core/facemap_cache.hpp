// Cross-trial face-map cache.
//
// Monte-Carlo sweeps rebuild the same face maps over and over: every
// trial of a fixed-deployment configuration divides the identical field
// with the identical node set and ratio constant, and each trial pays
// two full divisions (the C-uncertainty map and the C == 1 bisector
// map). This cache keys entries by *content* — the deployment's node
// positions, the ratio constant, the field extent and the grid cell
// size, byte-serialized so two configurations share an entry exactly
// when FaceMap::build would produce bit-identical output — and hands
// out shared, immutable divisions (core/division.hpp). With the
// cache, a Table-1-style sweep builds each unique map once instead of
// once per trial.
//
// Concurrency: lookups are single-flight. The first caller for a key
// inserts a shared_future under the mutex and builds *outside* it (a
// FaceMapBuilder fan-out can therefore use the same pool as the
// callers: ThreadPool::parallel_for degrades to caller-runs, so there
// is no circular wait); concurrent callers for the same key block on
// the future and share the one build. Entries are immutable after
// construction, so concurrent readers need no further synchronization.
//
// Eviction is bounded FIFO by insertion order: when a (capacity+1)-th
// key arrives the oldest entry is dropped from the index. Trackers
// holding shared_ptrs keep their entry alive regardless — eviction only
// forgets, it never invalidates.
#pragma once

#include <cstddef>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/vec2.hpp"
#include "core/division.hpp"
#include "net/sensor.hpp"
#include "parallel/thread_pool.hpp"

namespace fttt {

class FaceMapCache {
 public:
  /// One cached division (core/division.hpp): the face map, its SoA
  /// signature table (BatchMatcher / FtttTracker adopt the table without
  /// re-transposing), the coarse descent tier over it
  /// (BatchMatcher::attach_hierarchy shares it across matchers) and the
  /// full roster as members. The tier derives deterministically from the
  /// table, so the existing content key covers it — same key, same
  /// coarse masks.
  using Entry = Division;

  struct Stats {
    std::size_t hits{0};       ///< lookups served from an existing entry
    std::size_t misses{0};     ///< lookups that triggered a build
    std::size_t builds{0};     ///< builds that completed successfully
    std::size_t evictions{0};  ///< entries dropped by the FIFO bound
    std::size_t size{0};       ///< entries currently indexed
    /// Payload bytes of the indexed entries (map + table + coarse tier +
    /// index), accumulated as builds land and released on eviction and
    /// clear(). Entries evicted mid-build never register.
    std::size_t bytes{0};
    /// hits / (hits + misses), 1.0 when no lookup has happened — the
    /// same value the facemap.cache.hit_rate_pct gauge tracks.
    double hit_rate() const {
      const std::size_t lookups = hits + misses;
      return lookups == 0 ? 1.0
                          : static_cast<double>(hits) / static_cast<double>(lookups);
    }
  };

  /// Keep at most `capacity` entries (FIFO). Throws std::invalid_argument
  /// when capacity is zero.
  explicit FaceMapCache(std::size_t capacity = kDefaultCapacity);

  FaceMapCache(const FaceMapCache&) = delete;
  FaceMapCache& operator=(const FaceMapCache&) = delete;

  /// Return the division of `field` by `nodes` with ratio constant `C`
  /// and grid cell `cell_size`, building it (once, via FaceMapBuilder on
  /// `pool`) on first use. Bit-identical to FaceMap::build by the
  /// builder's equivalence contract. A failed build is not cached; the
  /// exception propagates to every caller waiting on that key and the
  /// next lookup retries.
  Entry get_or_build(const Deployment& nodes, double C, const Aabb& field,
                     double cell_size, ThreadPool& pool = ThreadPool::global());

  Stats stats() const;

  /// Drop every entry (outstanding shared_ptrs stay valid). Stats keep
  /// accumulating across clears.
  void clear();

  std::size_t capacity() const { return capacity_; }

  /// Process-wide cache used by the Monte-Carlo driver by default.
  static FaceMapCache& global();

  static constexpr std::size_t kDefaultCapacity = 64;

 private:
  static std::string make_key(const Deployment& nodes, double C,
                              const Aabb& field, double cell_size);

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_future<Entry>> entries_;
  std::deque<std::string> order_;  ///< FIFO of live keys, oldest first
  /// Bytes of each completed entry still indexed (see Stats::bytes).
  std::unordered_map<std::string, std::size_t> entry_bytes_;
  std::size_t hits_{0};
  std::size_t misses_{0};
  std::size_t builds_{0};
  std::size_t evictions_{0};
  std::size_t bytes_{0};
};

}  // namespace fttt
