// TrackManagerFleet: the long-running multi-target serving engine.
//
// The ROADMAP north-star is a service tracking thousands of concurrent
// targets over one deployment's face division. The fleet is that serve
// mode's core: producers push roster-wide ReportFrames into a bounded
// MPMC queue (parallel/bounded_queue.hpp) from any thread; a single
// service loop calls tick(), which drains the queue, routes frames to
// N shards by track id, and resolves every shard concurrently — warm
// tracks hill-climb, the cold/fallback residue of each shard goes
// through one exhaustive BatchMatcher::match SoA pass (cross-target
// batching; see serve/shard.hpp).
//
// Overload behaviour is explicit, named, and accounted:
//   submit()       load-shed — oldest queued frame evicted when full
//                  (fresh reports outrank stale ones),
//   try_submit()   reject — producer keeps the frame, nothing evicted,
//   submit_wait()  backpressure — producer blocks until space/close().
//
// Deployment churn (net/faults.hpp fail/revive semantics) happens live,
// with tracks *held*: fail_node()/revive_node() flip the fleet's alive
// set and enqueue the division rebuild onto the pool — the service path
// returns in microseconds while the rebuild runs off-thread behind a
// double buffer. Ticks keep resolving on the old division until the new
// one is complete; the swap happens at the next tick() boundary (tracks
// never see a half-built division). The rebuild is one
// FaceMapBuilder::build_division call (core/division.hpp) and
// incremental end to end: the builder's cached planes mean a fail/revive
// re-rasterizes nothing once warm, and in hierarchical mode the coarse
// tier and its index are *patched* along the churn delta
// (HierFaceMap::patched / SignatureIndex::patched) instead of rebuilt.
// Events arriving while a rebuild is in flight coalesce into the next
// one. Track slots are never dropped; their warm starts reset when the
// new division is adopted because face ids do not survive a re-division,
// and the next tick re-acquires through the batch pass.
// flush_rebuilds() is the synchronous form: a barrier after which every
// accepted event is served (deterministic tooling, tests, drivers).
//
// Determinism: the updates of tick() depend only on the frame stream
// (per-track order) and the division schedule — never on shard count,
// batch composition, pool size, or queue timing of *accepted* frames.
// SerialReplay below is the executable specification of that claim;
// tests/serve holds the fleet to it across 1/2/8 shards, under churn.
//
// Threading contract: submit()/try_submit()/submit_wait() are safe from
// any thread, concurrently with tick(). tick(), fail_node(),
// revive_node(), flush_rebuilds() and close() belong to one service
// thread; the off-thread rebuild task is the only other participant and
// hands its product over under one small mutex (the service thread and
// the task never touch the builder or the served division concurrently).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "core/division.hpp"
#include "core/facemap_builder.hpp"
#include "core/facemap_cache.hpp"
#include "parallel/bounded_queue.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/frame.hpp"
#include "serve/shard.hpp"

namespace fttt {

class TrackManagerFleet {
 public:
  struct Config {
    std::size_t shards{1};
    /// Ingestion queue bound (frames). Producers outrunning the fleet
    /// hit the per-call policy: shed/reject/block.
    std::size_t queue_capacity{4096};
    /// Per-tick drain bound; 0 = drain everything queued.
    std::size_t max_frames_per_tick{0};
    TrackShard::Config track{};
  };

  /// Monotonic accounting. enqueued + shed + rejected + malformed
  /// reconciles with producer-side totals exactly (asserted by the
  /// stress suite).
  struct Stats {
    std::uint64_t enqueued{0};       ///< frames accepted into the queue
    std::uint64_t shed{0};           ///< oldest-first evictions (submit)
    std::uint64_t rejected{0};       ///< try_submit refusals
    /// Frames refused at ingestion, by any submit form, because their
    /// grouping sampling is not roster-wide (node_count != roster_size()),
    /// has no instants, or holds a non-finite sample.
    std::uint64_t malformed{0};
    std::uint64_t frames{0};         ///< frames resolved across all ticks
    std::uint64_t localizations{0};  ///< updates carrying an estimate
    std::uint64_t ticks{0};
    std::uint64_t rebuilds{0};       ///< divisions adopted after churn
    /// Accepted fail/revive events. Coalescing makes rebuilds <=
    /// churn_events; they are equal after flush_rebuilds() when every
    /// event got its own quiet window.
    std::uint64_t churn_events{0};
    std::size_t tracks{0};           ///< live track slots (never shrinks)
    std::size_t queue_depth{0};      ///< at the time of the stats() call
  };

  /// Build the fleet over `roster` (dense ids, all initially alive)
  /// with ratio constant `C` and preprocessing cell `cell_size`. When
  /// `cache` is non-null the initial division is fetched through it —
  /// content-keyed, so sibling fleets (and anything else on the cache)
  /// share one build; the builder's plane cache then warms on the first
  /// churn event instead. Without a cache the constructor builds via
  /// the FaceMapBuilder directly, so churn is incremental from the
  /// start. Throws std::invalid_argument on zero shards/capacity or
  /// fewer than two roster nodes.
  TrackManagerFleet(Deployment roster, double C, const Aabb& field, double cell_size,
                    Config config, ThreadPool& pool = ThreadPool::global(),
                    FaceMapCache* cache = nullptr);

  /// Waits for an in-flight off-thread rebuild to finish (the task
  /// captures `this`); pending completed divisions are simply dropped —
  /// nothing serves them anymore.
  ~TrackManagerFleet();

  // -- Ingestion (any thread) ----------------------------------------------
  //
  // Every form refuses — returns false and counts Stats::malformed — a
  // frame whose grouping sampling is not roster-wide
  // (group.node_count() != roster_size()), has zero instants, or holds a
  // NaN/inf sample in a reporting column. The shards' projection onto
  // the alive members relies on the first; the sampling-vector build
  // would silently turn the others into wrong trits.

  /// Load-shedding submit: evicts the oldest queued frame when full.
  /// False only after close() or for a malformed frame.
  bool submit(ReportFrame frame);

  /// Rejecting submit: false when the queue is full or closed, or the
  /// frame is malformed (counted as malformed, not rejected).
  bool try_submit(ReportFrame frame);

  /// Backpressure submit: blocks until space or close(); false when the
  /// fleet closed first or the frame is malformed.
  bool submit_wait(ReportFrame frame);

  /// Stop accepting frames and wake blocked producers. Queued frames
  /// remain resolvable by further tick() calls.
  void close();

  // -- Service loop (one thread) -------------------------------------------

  /// Drain up to max_frames_per_tick frames and resolve them across the
  /// shards. updates[i] corresponds to the i-th drained frame (queue
  /// order), so results are stable regardless of shard fan-out.
  std::vector<TrackUpdate> tick();

  // -- Deployment churn (service thread) ------------------------------------

  /// Node failed: drop it from the division, tracks held. The call only
  /// flips the alive set and enqueues the incremental rebuild (cached
  /// planes — a fail re-rasterizes nothing once the builder is warm;
  /// hierarchical tiers patch along the delta); ticks keep serving the
  /// old division until the new one is adopted at a tick boundary.
  /// Returns false — and changes nothing — when the node is unknown,
  /// already failed, or fewer than two alive nodes would remain (refusal
  /// is decided instantly on the fleet's alive mirror, never blocked
  /// behind a rebuild).
  bool fail_node(NodeId id);

  /// Node recovered: restore it to the division. Same return convention
  /// (false when unknown or already alive).
  bool revive_node(NodeId id);

  /// Drive pending rebuilds to completion and adopt them: waits for the
  /// in-flight task, adopts its division, and repeats until no churn
  /// event remains unadopted. After it returns, map()/table()/... serve
  /// every accepted event and stats().rebuilds has counted them. No-op
  /// when nothing is pending. Service thread only.
  void flush_rebuilds();

  // -- Introspection --------------------------------------------------------

  Stats stats() const;
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t roster_size() const { return roster_.size(); }
  std::size_t alive_count() const;

  /// The division currently served (shared across every shard).
  std::shared_ptr<const FaceMap> map() const { return division_.map; }
  std::shared_ptr<const SignatureTable> table() const { return division_.table; }
  const std::vector<NodeId>& members() const { return division_.members; }

  /// Coarse descent tier over the served division — null unless
  /// Config::track.hierarchical (one tier per division, shared across
  /// every shard; hand it to a SerialReplay to share the build).
  std::shared_ptr<const HierFaceMap> hier() const { return division_.hier; }
  std::shared_ptr<const SignatureIndex> index() const { return division_.index; }

 private:
  /// Shard routing: stable mix of the track id (dense and adversarial
  /// id patterns balance alike), invariant to everything but the id.
  std::size_t shard_of(TrackId track) const {
    return static_cast<std::size_t>(splitmix64(track) % shards_.size());
  }

  /// Ingestion guard of the submit forms: true for a roster-wide frame
  /// with at least one instant and only finite samples, otherwise counts
  /// it as malformed.
  bool admit(const ReportFrame& frame);

  /// Serve division_ on every shard.
  void hand_division_to_shards();

  /// One churn event accepted: queue the builder op and kick the
  /// off-thread pipeline.
  void on_churn(NodeId id, bool fail);

  /// Launch the off-thread rebuild for the queued ops unless one is
  /// already in flight or a finished division awaits adoption. Applies
  /// the ops to the builder first (the builder is untouched while a task
  /// runs — the alive mirror answers refusal checks meanwhile).
  void maybe_launch_rebuild();

  /// The rebuild task body: one build_division against `prev` (the
  /// division being replaced, pinned for the delta path), published for
  /// the next tick boundary. Runs on a pool worker (or inline when the
  /// pool is shut down).
  void run_rebuild(const Division& prev);

  /// Adopt a finished off-thread division, if any. Service thread only;
  /// called at every tick() boundary and by flush_rebuilds().
  bool maybe_adopt_ready();

  Config config_;
  ThreadPool* pool_;
  Deployment roster_;
  std::unique_ptr<FaceMapBuilder> builder_;
  BoundedQueue<ReportFrame> queue_;
  std::vector<std::unique_ptr<TrackShard>> shards_;

  Division division_;  ///< served; hier/index in hierarchical mode only

  // Fleet-side mirror of the builder's active set: fail/revive refusal
  // rules answer from here instantly, so churn acceptance never touches
  // the builder — which an in-flight rebuild task may own.
  std::vector<char> alive_;
  std::size_t alive_n_{0};

  // Double-buffer state. The mutex guards only the tiny hand-off
  // (inflight/ready flags + pending_*); the service thread and the single
  // rebuild task never touch the builder or the served division
  // concurrently by construction. pending_ops_ is service-thread-only.
  mutable std::mutex rebuild_mu_;
  std::condition_variable rebuild_cv_;
  bool rebuild_inflight_{false};
  bool rebuild_ready_{false};
  Division pending_;  ///< finished rebuild awaiting the next tick boundary
  std::uint64_t pending_latency_ns_{0};  ///< its build duration (obs on)
  std::vector<std::pair<NodeId, bool>> pending_ops_;  ///< (id, fail?)

  // Producer-side counters are atomic (submit races tick); the rest is
  // service-thread-only.
  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> malformed_{0};
  std::uint64_t frames_{0};
  std::uint64_t localizations_{0};
  std::uint64_t ticks_{0};
  std::uint64_t rebuilds_{0};
  std::uint64_t churn_events_{0};

  // tick() scratch, reused to keep the steady-state loop allocation-light.
  std::vector<ReportFrame> drained_;
  std::vector<std::vector<const ReportFrame*>> route_frames_;
  std::vector<std::vector<std::size_t>> route_slots_;
  std::vector<std::vector<TrackUpdate>> route_updates_;
};

/// Executable specification of the fleet's per-track semantics: one
/// shard, frames processed strictly one at a time — no cross-target
/// batching, no shard fan-out, no queue. A TrackManagerFleet fed the
/// same frame stream (per-track order preserved) under the same
/// division schedule produces bit-identical TrackUpdates at any shard
/// count; tests/serve and bench_perf_serve enforce the contract.
class SerialReplay {
 public:
  SerialReplay(TrackShard::Config config, std::shared_ptr<const FaceMap> map,
               std::shared_ptr<const SignatureTable> table,
               std::vector<NodeId> members, ThreadPool& pool = ThreadPool::global());

  /// Mirror a churn event: serve a new division (warm starts reset,
  /// tracks held — same semantics as the fleet's rebuild). `hier`/
  /// `index` optionally share the fleet's tier (TrackShard rules:
  /// both-or-neither; absent + hierarchical config → the shard builds
  /// its own, bit-identical by the tier's determinism).
  void adopt_division(std::shared_ptr<const FaceMap> map,
                      std::shared_ptr<const SignatureTable> table,
                      std::vector<NodeId> members,
                      std::shared_ptr<const HierFaceMap> hier = nullptr,
                      std::shared_ptr<const SignatureIndex> index = nullptr);

  TrackUpdate process(const ReportFrame& frame);

  std::size_t track_count() const { return shard_.track_count(); }

 private:
  TrackShard shard_;
};

}  // namespace fttt
