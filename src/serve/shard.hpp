// One fleet shard: per-track warm-start state over a shared division.
//
// A shard owns the slots of the tracks routed to it and resolves one
// tick's frames through the batch form of the localization rule
// (match_with_fallback, core/tracker.hpp) — the cross-*target* sequel
// to the epoch pipeline's cross-epoch batching:
//
//   1. warm climbs — a track that localized before hill-climbs from its
//      previous face (Algorithm 2). Most ticks, most tracks move at most
//      a face or two, so this touches a handful of signature columns per
//      track;
//   2. one exhaustive SoA pass — cold tracks and climbs below the
//      fallback floor collect into a single BatchMatcher::match call
//      that resolves the whole residue in one blocked plane-major sweep.
//
// Per-frame results are bit-identical to a serial per-track replay of
// the same stream (replay semantics in fleet.hpp): the rule's batch form
// equals its single form vector for vector, and a track's second frame
// in one tick waits for its first (the pending batch resolves before
// the track reappears), so *how* frames are sharded and batched can
// never change an estimate — the determinism suite in tests/serve holds
// the fleet to that across 1/2/8 shards.
//
// Deployment churn: the shard serves whatever division it was last
// handed via adopt_division(). Frames stay roster-wide; the shard
// projects them onto the division's member set (the alive nodes), so
// producers are insulated from fail/revive. Face ids are not stable
// across divisions, so adopting a new one cold-starts every track's
// next localization; slots — and therefore tracks — are never dropped.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/batch_matcher.hpp"
#include "core/sampling_vector.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/frame.hpp"

namespace fttt {

class TrackShard {
 public:
  struct Config {
    VectorMode mode{VectorMode::kBasic};
    double eps{1.0};                 ///< sensing resolution (dB)
    MissingPolicy missing{MissingPolicy::kMissingReadsSmaller};
    /// Resolve the exhaustive batch pass through the coarse descent tier
    /// (BatchMatcher::descend) instead of the flat SoA sweep. Argmax
    /// bit-identical either way; sublinear at large N. When
    /// adopt_division is not handed a prebuilt tier the shard derives
    /// one from the adopted table.
    bool hierarchical{false};
  };

  /// `pool` serves the exhaustive batch pass of resolve(). The shard is
  /// not usable until adopt_division() hands it a map.
  TrackShard(Config config, ThreadPool& pool);

  /// Serve `map`/`table` (a shared FaceMapCache-style entry) covering
  /// the strictly-ascending global node ids `members`. Every track's
  /// warm start resets — face ids do not survive a re-division. Throws
  /// std::invalid_argument on null map/table or unsorted members.
  ///
  /// `hier`/`index` optionally share a prebuilt coarse tier over the
  /// same table (a FaceMapCache entry, or the fleet building once for
  /// all its shards); both-or-neither, validated against the table by
  /// BatchMatcher::attach_hierarchy. With Config::hierarchical set and
  /// no tier supplied, the shard builds its own.
  void adopt_division(std::shared_ptr<const FaceMap> map,
                      std::shared_ptr<const SignatureTable> table,
                      std::vector<NodeId> members,
                      std::shared_ptr<const HierFaceMap> hier = nullptr,
                      std::shared_ptr<const SignatureIndex> index = nullptr);

  /// Resolve one tick's frames; out[i] is frames[i]'s update (frame
  /// order, so the fleet can scatter shard outputs into a stable
  /// drain-order result). Creates slots for unseen track ids. Frames
  /// with fewer than kMinReporting reporting nodes are gated out: no
  /// estimate, and the track's next localization starts cold. Contract:
  /// adopt_division() was called; every frame's grouping sampling is
  /// roster-wide (node_count > max member id).
  void resolve(std::span<const ReportFrame* const> frames, TrackUpdate* out);

  std::size_t track_count() const { return slots_.size(); }

  const std::vector<NodeId>& members() const { return members_; }

 private:
  struct TrackSlot {
    std::optional<FaceId> warm;  ///< previous face in the *current* division
    bool pending{false};         ///< has a frame in the unresolved batch
  };

  /// Find-or-create the slot index of `track` (dense slot ids, creation
  /// order; the index map is lookup-only, never iterated).
  std::size_t slot_of(TrackId track);

  Config config_;
  ThreadPool* pool_;
  std::shared_ptr<const FaceMap> map_;
  std::shared_ptr<const SignatureTable> table_;
  std::unique_ptr<BatchMatcher> matcher_;
  std::vector<NodeId> members_;  ///< global ids the division covers, ascending

  std::vector<TrackSlot> slots_;
  std::unordered_map<TrackId, std::size_t> index_;
};

}  // namespace fttt
