#include "serve/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace fttt {

TrackManagerFleet::TrackManagerFleet(Deployment roster, double C, const Aabb& field,
                                     double cell_size, Config config, ThreadPool& pool,
                                     FaceMapCache* cache)
    : config_(config),
      pool_(&pool),
      roster_(std::move(roster)),
      queue_(config.queue_capacity) {
  if (config_.shards == 0)
    throw std::invalid_argument("TrackManagerFleet: zero shards");
  if (roster_.size() < 2)
    throw std::invalid_argument("TrackManagerFleet: a division needs >= 2 nodes");

  builder_ = std::make_unique<FaceMapBuilder>(roster_, C, field, cell_size, pool);
  if (cache) {
    division_ = cache->get_or_build(roster_, C, field, cell_size, pool);
    // The cache entry always carries the coarse tier; flat fleets drop it
    // to keep the flat SoA sweep.
    if (!config_.track.hierarchical) {
      division_.hier.reset();
      division_.index.reset();
    }
  } else {
    division_ = builder_->build_division(config_.track.hierarchical);
  }
  alive_.assign(roster_.size(), 1);
  alive_n_ = roster_.size();

  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s)
    shards_.push_back(std::make_unique<TrackShard>(config_.track, pool));
  hand_division_to_shards();
  route_frames_.resize(config_.shards);
  route_slots_.resize(config_.shards);
  route_updates_.resize(config_.shards);
}

TrackManagerFleet::~TrackManagerFleet() {
  std::unique_lock<std::mutex> lk(rebuild_mu_);
  rebuild_cv_.wait(lk, [&] { return !rebuild_inflight_; });
}

bool TrackManagerFleet::admit(const ReportFrame& frame) {
  // Absent columns read as zeros, so one pass over the raw storage finds
  // any non-finite sample of a reporting column.
  const GroupingSampling& group = frame.group;
  const std::span<const double> raw = group.raw();
  if (group.node_count() == roster_.size() && group.instants() > 0 &&
      std::all_of(raw.begin(), raw.end(), [](double x) { return std::isfinite(x); }))
    return true;
  malformed_.fetch_add(1, std::memory_order_relaxed);
  FTTT_OBS_COUNT("serve.malformed", 1);
  return false;
}

bool TrackManagerFleet::submit(ReportFrame frame) {
  if (!admit(frame)) return false;
  const BoundedQueue<ReportFrame>::PushResult r =
      queue_.push_shed_oldest(std::move(frame));
  if (r.accepted) {
    enqueued_.fetch_add(1, std::memory_order_relaxed);
    FTTT_OBS_COUNT("serve.enqueued", 1);
  }
  if (r.shed > 0) {
    shed_.fetch_add(r.shed, std::memory_order_relaxed);
    FTTT_OBS_COUNT("serve.shed", r.shed);
  }
  return r.accepted;
}

bool TrackManagerFleet::try_submit(ReportFrame frame) {
  if (!admit(frame)) return false;
  if (queue_.try_push(std::move(frame))) {
    enqueued_.fetch_add(1, std::memory_order_relaxed);
    FTTT_OBS_COUNT("serve.enqueued", 1);
    return true;
  }
  rejected_.fetch_add(1, std::memory_order_relaxed);
  FTTT_OBS_COUNT("serve.rejected", 1);
  return false;
}

bool TrackManagerFleet::submit_wait(ReportFrame frame) {
  if (!admit(frame)) return false;
  if (queue_.push_wait(std::move(frame))) {
    enqueued_.fetch_add(1, std::memory_order_relaxed);
    FTTT_OBS_COUNT("serve.enqueued", 1);
    return true;
  }
  return false;
}

void TrackManagerFleet::close() { queue_.close(); }

std::vector<TrackUpdate> TrackManagerFleet::tick() {
  FTTT_OBS_SPAN("serve.tick");
  // Tick boundary: swap in a finished off-thread division before any
  // frame of this tick resolves, then kick the rebuild for whatever
  // churn events coalesced while the last one was in flight.
  maybe_adopt_ready();
  maybe_launch_rebuild();
  drained_.clear();
  queue_.drain(drained_, config_.max_frames_per_tick);
  ++ticks_;
  FTTT_OBS_GAUGE_SET("serve.queue.depth", queue_.size());

  std::vector<TrackUpdate> updates(drained_.size());
  if (drained_.empty()) return updates;

  // Route each drained frame to its track's shard, remembering the
  // drain-order slot so shard outputs scatter back stably.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    route_frames_[s].clear();
    route_slots_[s].clear();
  }
  for (std::size_t i = 0; i < drained_.size(); ++i) {
    const std::size_t s = shard_of(drained_[i].track);
    route_frames_[s].push_back(&drained_[i]);
    route_slots_[s].push_back(i);
  }

  // One task per shard. Shards share nothing mutable (the division is
  // immutable and each writes its own update scratch), and the inner
  // exhaustive pass nests safely on the same pool.
  parallel_for(
      0, shards_.size(),
      [&](std::size_t s) {
        if (route_frames_[s].empty()) return;
        route_updates_[s].resize(route_frames_[s].size());
        shards_[s]->resolve(std::span<const ReportFrame* const>(route_frames_[s]),
                            route_updates_[s].data());
      },
      *pool_);

  std::uint64_t localized = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    for (std::size_t k = 0; k < route_slots_[s].size(); ++k) {
      if (route_updates_[s][k].estimate) ++localized;
      updates[route_slots_[s][k]] = std::move(route_updates_[s][k]);
    }
  }
  frames_ += drained_.size();
  localizations_ += localized;
  FTTT_OBS_COUNT("serve.localizations", localized);
  FTTT_OBS_HIST("serve.tick.frames", "frames", drained_.size());
  return updates;
}

void TrackManagerFleet::hand_division_to_shards() {
  for (const std::unique_ptr<TrackShard>& shard : shards_)
    shard->adopt_division(division_.map, division_.table, division_.members,
                          division_.hier, division_.index);
}

void TrackManagerFleet::on_churn(NodeId id, bool fail) {
  ++churn_events_;
  FTTT_OBS_COUNT("serve.churn_events", 1);
  pending_ops_.emplace_back(id, fail);
  maybe_launch_rebuild();
}

void TrackManagerFleet::maybe_launch_rebuild() {
  if (pending_ops_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(rebuild_mu_);
    // One task at a time; a finished-but-unadopted division also blocks
    // the launch so adoption order matches event order.
    if (rebuild_inflight_ || rebuild_ready_) return;
  }
  for (const auto& [id, fail] : pending_ops_) {
    if (fail)
      builder_->deactivate(id);
    else
      builder_->activate(id);
  }
  pending_ops_.clear();
  {
    std::lock_guard<std::mutex> lk(rebuild_mu_);
    rebuild_inflight_ = true;
  }
  // Pin the served division for the delta/patch path: the task must not
  // read the fleet's division_, which the service thread may swap.
  if (!pool_->submit([this, prev = division_] { run_rebuild(prev); })) {
    // Pool already shut down: run inline so the division still lands.
    run_rebuild(division_);
  }
}

void TrackManagerFleet::run_rebuild(const Division& prev) {
  const std::uint64_t t0 = FTTT_OBS_NOW_NS();
  Division next = builder_->build_division(config_.track.hierarchical, &prev);
  const std::uint64_t t1 = FTTT_OBS_NOW_NS();
  {
    // Notify under the lock: the destructor's wait may wake, return and
    // destroy the condition variable the instant `rebuild_inflight_`
    // flips, so the broadcast must happen-before that wake-up.
    std::lock_guard<std::mutex> lk(rebuild_mu_);
    pending_ = std::move(next);
    pending_latency_ns_ = t1 > t0 ? t1 - t0 : 0;
    rebuild_inflight_ = false;
    rebuild_ready_ = true;
    rebuild_cv_.notify_all();
  }
}

bool TrackManagerFleet::maybe_adopt_ready() {
  Division next;
  std::uint64_t latency_ns = 0;
  {
    std::lock_guard<std::mutex> lk(rebuild_mu_);
    if (!rebuild_ready_) return false;
    next = std::exchange(pending_, Division{});
    latency_ns = pending_latency_ns_;
    rebuild_ready_ = false;
  }
  division_ = std::move(next);
  hand_division_to_shards();
  ++rebuilds_;
  FTTT_OBS_COUNT("serve.rebuilds", 1);
  if (latency_ns > 0)
    FTTT_OBS_HIST("serve.rebuild.latency", "us", static_cast<double>(latency_ns) / 1000.0);
  return true;
}

void TrackManagerFleet::flush_rebuilds() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(rebuild_mu_);
      rebuild_cv_.wait(lk, [&] { return !rebuild_inflight_; });
    }
    const bool adopted = maybe_adopt_ready();
    if (!pending_ops_.empty()) {
      maybe_launch_rebuild();
      continue;
    }
    if (!adopted) return;
  }
}

bool TrackManagerFleet::fail_node(NodeId id) {
  if (id >= roster_.size() || !alive_[id]) return false;
  // DistributedTracker's refusal rule: a division needs two live nodes.
  if (alive_n_ <= 2) return false;
  alive_[id] = 0;
  --alive_n_;
  on_churn(id, /*fail=*/true);
  return true;
}

bool TrackManagerFleet::revive_node(NodeId id) {
  if (id >= roster_.size() || alive_[id]) return false;
  alive_[id] = 1;
  ++alive_n_;
  on_churn(id, /*fail=*/false);
  return true;
}

TrackManagerFleet::Stats TrackManagerFleet::stats() const {
  Stats s;
  s.enqueued = enqueued_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.malformed = malformed_.load(std::memory_order_relaxed);
  s.frames = frames_;
  s.localizations = localizations_;
  s.ticks = ticks_;
  s.rebuilds = rebuilds_;
  s.churn_events = churn_events_;
  for (const std::unique_ptr<TrackShard>& shard : shards_)
    s.tracks += shard->track_count();
  s.queue_depth = queue_.size();
  return s;
}

std::size_t TrackManagerFleet::alive_count() const { return alive_n_; }

SerialReplay::SerialReplay(TrackShard::Config config,
                           std::shared_ptr<const FaceMap> map,
                           std::shared_ptr<const SignatureTable> table,
                           std::vector<NodeId> members, ThreadPool& pool)
    : shard_(config, pool) {
  shard_.adopt_division(std::move(map), std::move(table), std::move(members));
}

void SerialReplay::adopt_division(std::shared_ptr<const FaceMap> map,
                                  std::shared_ptr<const SignatureTable> table,
                                  std::vector<NodeId> members,
                                  std::shared_ptr<const HierFaceMap> hier,
                                  std::shared_ptr<const SignatureIndex> index) {
  shard_.adopt_division(std::move(map), std::move(table), std::move(members),
                        std::move(hier), std::move(index));
}

TrackUpdate SerialReplay::process(const ReportFrame& frame) {
  const ReportFrame* p = &frame;
  TrackUpdate update;
  shard_.resolve(std::span<const ReportFrame* const>(&p, 1), &update);
  return update;
}

}  // namespace fttt
