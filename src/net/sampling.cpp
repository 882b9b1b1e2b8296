#include "net/sampling.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "obs/obs.hpp"

namespace fttt {

void GroupingSampling::resize(std::size_t nodes, std::size_t instants) {
  node_count_ = nodes;
  instants_ = instants;
  data_.assign(nodes * instants, 0.0);
  present_.assign((nodes + 63) / 64, 0);
}

void GroupingSampling::set_column(std::size_t node, std::span<const double> samples) {
  if (samples.size() != instants_)
    throw std::invalid_argument("GroupingSampling::set_column: sample count != instants");
  std::span<double> dst = set_column(node);
  std::copy(samples.begin(), samples.end(), dst.begin());
}

void GroupingSampling::clear_column(std::size_t node) {
  FTTT_DCHECK(node < node_count_, "GroupingSampling::clear_column: node ", node,
              " out of ", node_count_);
  present_[node >> 6] &= ~(std::uint64_t{1} << (node & 63));
  std::fill_n(data_.begin() + static_cast<std::ptrdiff_t>(node * instants_),
              instants_, 0.0);
}

std::size_t GroupingSampling::reporting_count() const {
  std::size_t n = 0;
  for (std::uint64_t word : present_) n += static_cast<std::size_t>(std::popcount(word));
  return n;
}

GroupingSampling project_onto(const GroupingSampling& group,
                              std::span<const NodeId> members) {
  GroupingSampling projected(members.size(), group.instants());
  for (std::size_t local = 0; local < members.size(); ++local) {
    const NodeId global = members[local];
    FTTT_DCHECK(global < group.node_count(), "project_onto: member ", global,
                " outside roster of ", group.node_count());
    if (group.has(global)) projected.set_column(local, group.column(global));
  }
  return projected;
}

GroupingSampling collect_group(const Deployment& nodes, const SamplingConfig& cfg,
                               const FaultModel& faults, std::uint64_t epoch, double t0,
                               const std::function<Vec2(double)>& target_at,
                               const RngStream& epoch_stream) {
  FTTT_OBS_SPAN("net.collect_group");
  GroupingSampling group(nodes.size(), cfg.samples_per_group);

  // Local tallies, flushed as single counter adds below: collect_group is
  // per-epoch hot, so one atomic round-trip per outcome, not per node.
  std::uint64_t dropped_fault = 0;
  std::uint64_t dropped_range = 0;
  std::uint64_t samples_taken = 0;

  const Vec2 target_at_start = target_at(t0);
  for (const SensorNode& node : nodes) {
    if (!faults.reports(node.id, epoch)) {
      ++dropped_fault;
      continue;
    }
    if (distance(node.position, target_at_start) > cfg.sensing_range) {
      ++dropped_range;
      continue;
    }

    // Per-node clock skew: derived once per (epoch, node) so a node's
    // instants are coherently shifted, as real crystal offsets are.
    double skew = 0.0;
    if (cfg.clock_skew > 0.0) {
      RngStream skew_stream = epoch_stream.substream(node.id, 0xC10CULL);
      skew = skew_stream.uniform(-cfg.clock_skew, cfg.clock_skew);
    }

    std::span<double> samples = group.set_column(node.id);
    for (std::size_t t = 0; t < cfg.samples_per_group; ++t) {
      const double when = t0 + static_cast<double>(t) * cfg.sample_period + skew;
      const Vec2 where =
          cfg.freeze_target_during_group ? target_at_start : target_at(when);
      const double d = distance(node.position, where);
      RngStream noise = epoch_stream.substream(node.id, t + 1);
      samples[t] = cfg.model.sample_rss(d, noise);
    }
    samples_taken += cfg.samples_per_group;
  }
  FTTT_OBS_COUNT("net.dropped.fault", dropped_fault);
  FTTT_OBS_COUNT("net.dropped.range", dropped_range);
  FTTT_OBS_COUNT("net.samples.taken", samples_taken);
  return group;
}

}  // namespace fttt
