// Distributed (cluster-head) FTTT tracking.
//
// Sec. 4.3 provides for storing the division "in the cluster heads": a
// field-scale network partitions into geographic clusters; each head
// precomputes a *local* face map over its member nodes and territory, and
// the cluster currently hearing the target strongest serves the
// localization. Benefits measured by bench_ablation_distributed:
//   - per-head storage is O(m^4) for m member nodes instead of O(n^4),
//   - sampling vectors shrink to C(m,2) components,
//   - the price is accuracy at territory borders plus handoff churn.
//
// The tracker consumes the same global GroupingSampling as the
// centralized stack and internally routes it to the active head.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/facemap_builder.hpp"
#include "core/tracker.hpp"
#include "net/clustering.hpp"

namespace fttt {

class DistributedTracker {
 public:
  struct Config {
    std::size_t clusters{4};        ///< requested cluster count
    VectorMode mode{VectorMode::kBasic};
    double eps{1.0};
    double grid_cell{1.0};
    /// Each head's map covers the cluster's member bounding box inflated
    /// by this margin (m), clamped to the field.
    double territory_margin{25.0};
    std::uint64_t seed{1};          ///< clustering RNG seed
  };

  /// Build the cluster structure and every head's local face map.
  /// Clusters that end up with fewer than 2 members are merged into
  /// their nearest neighbor cluster (a head needs at least one pair).
  DistributedTracker(const Deployment& nodes, double C, const Aabb& field,
                     Config config, ThreadPool& pool = ThreadPool::global());

  /// Localize from a *global* grouping sampling (indexed by global node
  /// ids). Routes to the cluster with the strongest aggregate signal.
  TrackEstimate localize(const GroupingSampling& group);

  /// Cluster whose members hear `group` the strongest (mean column RSS),
  /// or nullopt when no member reports.
  std::optional<std::size_t> route(const GroupingSampling& group) const;

  // -- Deployment deltas (net/faults.hpp fail/recover semantics) -----------

  /// Node `global` failed: drop it from its owning head's division with an
  /// incremental rebuild (the head's plane cache means a fail/recover
  /// delta rasterizes nothing; only grouping is re-derived). Returns true
  /// when the head's map was rebuilt. Returns false — the head keeps
  /// serving its previous map, with the dead member's columns reading
  /// '*' — when the node is unknown, already failed, or fewer than two
  /// live members would remain.
  bool on_node_failed(NodeId global);

  /// Node `global` recovered: restore it to its head's division. Same
  /// return convention as on_node_failed (false when unknown, already
  /// live, or the head still lacks a live pair).
  bool on_node_recovered(NodeId global);

  /// Incremental head-map rebuilds performed so far (fault churn metric).
  std::size_t map_rebuilds() const { return map_rebuilds_; }

  std::size_t cluster_count() const { return heads_.size(); }
  std::size_t active_cluster() const { return active_; }
  std::size_t handoffs() const { return handoffs_; }

  /// Total faces stored across all heads (storage comparison vs a
  /// centralized map).
  std::size_t total_faces() const;
  /// Largest per-head sampling-vector dimension.
  std::size_t max_dimension() const;

  const std::vector<Cluster>& clusters() const { return clusters_; }

 private:
  struct Head {
    std::vector<NodeId> members;           ///< global ids, ascending
    std::vector<char> alive;               ///< parallel to members
    /// Global ids the *current* map covers — stays behind `alive` while a
    /// rebuild is deferred (fewer than two live members). Projection must
    /// follow the served map, not the live set.
    std::vector<NodeId> map_members;
    std::unique_ptr<FaceMapBuilder> builder;  ///< plane cache, local ids
    std::shared_ptr<const FaceMap> map;       ///< over relabeled members
    std::unique_ptr<FtttTracker> tracker;
  };

  /// Re-derive `head`'s map/tracker from its builder after a delta;
  /// deferred (returns false) below two live members.
  bool rebuild_head(Head& head);

  std::vector<Cluster> clusters_;
  std::vector<Head> heads_;
  std::size_t active_{0};
  std::size_t handoffs_{0};
  std::size_t map_rebuilds_{0};
  bool has_served_{false};
};

}  // namespace fttt
