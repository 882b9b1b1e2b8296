#include "core/distributed_tracker.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/obs.hpp"

namespace fttt {

DistributedTracker::DistributedTracker(const Deployment& nodes, double C,
                                       const Aabb& field, Config config,
                                       ThreadPool& pool) {
  if (nodes.size() < 2)
    throw std::invalid_argument("DistributedTracker: need at least two sensors");

  clusters_ = kmeans_clusters(nodes, config.clusters, RngStream(config.seed));

  // Merge undersized clusters into their nearest neighbor (of any size)
  // until every head owns at least one node pair.
  bool merged = true;
  while (merged && clusters_.size() > 1) {
    merged = false;
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
      if (clusters_[c].members.size() >= 2) continue;
      std::size_t nearest = clusters_.size();
      double nearest_d2 = std::numeric_limits<double>::max();
      for (std::size_t o = 0; o < clusters_.size(); ++o) {
        if (o == c) continue;
        const double d2 = distance2(clusters_[c].centroid, clusters_[o].centroid);
        if (d2 < nearest_d2) {
          nearest_d2 = d2;
          nearest = o;
        }
      }
      Cluster& dst = clusters_[nearest];
      dst.members.insert(dst.members.end(), clusters_[c].members.begin(),
                         clusters_[c].members.end());
      Vec2 sum{};
      for (NodeId m : dst.members) sum += nodes[m].position;
      dst.centroid = sum / static_cast<double>(dst.members.size());
      clusters_.erase(clusters_.begin() + static_cast<std::ptrdiff_t>(c));
      merged = true;
      break;
    }
  }
  if (clusters_.size() == 1 && clusters_[0].members.size() < 2)
    throw std::invalid_argument("DistributedTracker: cannot form valid clusters");
  for (std::size_t c = 0; c < clusters_.size(); ++c) clusters_[c].id = c;

  // Uniform energies: election degenerates to most-central member.
  elect_heads(clusters_, nodes, std::vector<double>(nodes.size(), 1.0));

  // Build each head's local map over its members and territory.
  heads_.reserve(clusters_.size());
  for (const Cluster& cluster : clusters_) {
    Head head;
    head.members = cluster.members;
    std::sort(head.members.begin(), head.members.end());

    Deployment local;
    local.reserve(head.members.size());
    Aabb territory{{std::numeric_limits<double>::max(), std::numeric_limits<double>::max()},
                   {-std::numeric_limits<double>::max(), -std::numeric_limits<double>::max()}};
    for (std::size_t i = 0; i < head.members.size(); ++i) {
      const Vec2 p = nodes[head.members[i]].position;
      local.push_back(SensorNode{static_cast<NodeId>(i), p});
      territory.lo.x = std::min(territory.lo.x, p.x);
      territory.lo.y = std::min(territory.lo.y, p.y);
      territory.hi.x = std::max(territory.hi.x, p.x);
      territory.hi.y = std::max(territory.hi.y, p.y);
    }
    territory.lo.x = std::max(field.lo.x, territory.lo.x - config.territory_margin);
    territory.lo.y = std::max(field.lo.y, territory.lo.y - config.territory_margin);
    territory.hi.x = std::min(field.hi.x, territory.hi.x + config.territory_margin);
    territory.hi.y = std::min(field.hi.y, territory.hi.y + config.territory_margin);

    head.alive.assign(head.members.size(), 1);
    head.map_members = head.members;
    head.builder = std::make_unique<FaceMapBuilder>(std::move(local), C, territory,
                                                    config.grid_cell, pool);
    head.map = std::make_shared<const FaceMap>(head.builder->build());
    head.tracker = std::make_unique<FtttTracker>(
        head.map, FtttTracker::Config{config.mode, config.eps});
    heads_.push_back(std::move(head));
  }
}

bool DistributedTracker::rebuild_head(Head& head) {
  if (head.builder->active_count() < 2) {
    // A head needs at least one live pair to divide its territory; keep
    // serving the previous map (dead members' columns read '*' via the
    // sampling layer) until a recovery restores a pair.
    FTTT_OBS_COUNT("distributed.rebuild_deferred", 1);
    return false;
  }
  FTTT_OBS_SPAN("distributed.head_rebuild");
  head.map = std::make_shared<const FaceMap>(head.builder->build());
  std::vector<NodeId> live;
  live.reserve(head.members.size());
  for (std::size_t i = 0; i < head.members.size(); ++i)
    if (head.alive[i]) live.push_back(head.members[i]);
  head.map_members = std::move(live);
  head.tracker =
      std::make_unique<FtttTracker>(head.map, head.tracker->config());
  ++map_rebuilds_;
  FTTT_OBS_COUNT("distributed.map_rebuilds", 1);
  return true;
}

bool DistributedTracker::on_node_failed(NodeId global) {
  for (Head& head : heads_) {
    const auto it =
        std::lower_bound(head.members.begin(), head.members.end(), global);
    if (it == head.members.end() || *it != global) continue;
    const std::size_t local =
        static_cast<std::size_t>(it - head.members.begin());
    if (!head.alive[local]) return false;
    head.alive[local] = 0;
    head.builder->deactivate(static_cast<NodeId>(local));
    return rebuild_head(head);
  }
  return false;
}

bool DistributedTracker::on_node_recovered(NodeId global) {
  for (Head& head : heads_) {
    const auto it =
        std::lower_bound(head.members.begin(), head.members.end(), global);
    if (it == head.members.end() || *it != global) continue;
    const std::size_t local =
        static_cast<std::size_t>(it - head.members.begin());
    if (head.alive[local]) return false;
    head.alive[local] = 1;
    head.builder->activate(static_cast<NodeId>(local));
    return rebuild_head(head);
  }
  return false;
}

std::optional<std::size_t> DistributedTracker::route(const GroupingSampling& group) const {
  FTTT_OBS_SPAN("distributed.route");
  // Strongest mean column RSS among reporting members wins; ties go to
  // the lowest cluster index (strict > below).
  std::size_t best = 0;
  double best_score = -std::numeric_limits<double>::max();
  bool any = false;
  for (std::size_t c = 0; c < heads_.size(); ++c) {
    double strongest = -std::numeric_limits<double>::max();
    for (NodeId m : heads_[c].members) {
      if (!group.has(m)) continue;
      double mean = 0.0;
      for (double s : group.column(m)) mean += s;
      mean /= static_cast<double>(group.instants());
      strongest = std::max(strongest, mean);
      any = true;
    }
    if (strongest > best_score) {
      best_score = strongest;
      best = c;
    }
  }
  if (!any) {
    FTTT_OBS_COUNT("distributed.route.unheard", 1);
    return std::nullopt;
  }
  return best;
}

TrackEstimate DistributedTracker::localize(const GroupingSampling& group) {
  const std::optional<std::size_t> routed = route(group);
  if (routed) {  // sticky on the previous head when nobody hears anything
    if (has_served_ && *routed != active_) {
      ++handoffs_;
      FTTT_OBS_COUNT("distributed.handoffs", 1);
    }
    active_ = *routed;
    has_served_ = true;
  }

  Head& head = heads_[active_];
  return head.tracker->localize(project_onto(group, head.map_members));
}

std::size_t DistributedTracker::total_faces() const {
  std::size_t total = 0;
  for (const Head& h : heads_) total += h.map->face_count();
  return total;
}

std::size_t DistributedTracker::max_dimension() const {
  std::size_t max_dim = 0;
  for (const Head& h : heads_) max_dim = std::max(max_dim, h.map->dimension());
  return max_dim;
}

}  // namespace fttt
