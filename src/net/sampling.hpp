// Grouping sampling (paper Def. 3).
//
// One *localization epoch* = one grouping sampling: every reporting sensor
// takes k RSS samples at consecutive instants spaced by the sampling
// period, near-synchronously across nodes. The result is the k x n matrix
// of Def. 3, stored flat: one contiguous buffer of n node-major k-sample
// columns plus a presence bitmask marking which nodes reported (the
// cleared bits are the set N̄_r of Sec. 4.4(3)). The SoA layout costs two
// allocations per epoch instead of one per reporting node, and hands
// consumers contiguous columns to stream.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/random.hpp"
#include "common/vec2.hpp"
#include "net/faults.hpp"
#include "net/sensor.hpp"
#include "rf/pathloss.hpp"

namespace fttt {

/// One grouping sampling in flat SoA form. Columns are created absent;
/// `set_column` marks a node reporting, `column` reads its k samples.
/// Absent columns keep zeroed storage and are only distinguishable
/// through the presence bitmask.
class GroupingSampling {
 public:
  GroupingSampling() = default;
  GroupingSampling(std::size_t nodes, std::size_t instants) { resize(nodes, instants); }

  std::size_t node_count() const { return node_count_; }  ///< n
  std::size_t instants() const { return instants_; }      ///< k

  /// Reshape to n nodes x k instants. Every column becomes absent and
  /// sample storage is zeroed.
  void resize(std::size_t nodes, std::size_t instants);

  /// Whether `node` reported this epoch (node in N_r).
  bool has(std::size_t node) const {
    FTTT_DCHECK(node < node_count_, "GroupingSampling::has: node ", node,
                " out of ", node_count_);
    return ((present_[node >> 6] >> (node & 63)) & 1u) != 0;
  }

  /// The node's k samples in instant order (contract: has(node)).
  std::span<const double> column(std::size_t node) const {
    FTTT_DCHECK(has(node), "GroupingSampling::column: node ", node, " absent");
    return {data_.data() + node * instants_, instants_};
  }

  /// Mark `node` reporting and return its writable k-sample column.
  std::span<double> set_column(std::size_t node) {
    FTTT_DCHECK(node < node_count_, "GroupingSampling::set_column: node ", node,
                " out of ", node_count_);
    present_[node >> 6] |= std::uint64_t{1} << (node & 63);
    return {data_.data() + node * instants_, instants_};
  }

  /// Mark `node` reporting and copy `samples` into its column.
  /// Throws std::invalid_argument when samples.size() != instants().
  void set_column(std::size_t node, std::span<const double> samples);

  /// Drop `node` into N̄_r: clears presence and zeroes its storage so a
  /// stale column can never leak back through a later read.
  void clear_column(std::size_t node);

  /// Number of reporting nodes |N_r| (presence-bitmask popcount).
  std::size_t reporting_count() const;

  /// Raw node-major sample storage: column i occupies
  /// [i*instants(), (i+1)*instants()); absent columns read as zeros.
  std::span<const double> raw() const { return data_; }

 private:
  std::size_t node_count_{0};
  std::size_t instants_{0};
  std::vector<double> data_;            ///< n * k doubles, node-major
  std::vector<std::uint64_t> present_;  ///< bit i set iff node i reported
};

/// `group` restricted to the strictly ascending node ids `members`, with
/// member i relabeled to local node i (a division or cluster over a
/// subset of the roster). Contract: every member < group.node_count().
GroupingSampling project_onto(const GroupingSampling& group,
                              std::span<const NodeId> members);

/// Static sampling parameters.
struct SamplingConfig {
  PathLossModel model;            ///< propagation + noise model (Eq. 1)
  double sensing_range{40.0};     ///< R: max detection distance (m)
  double sample_period{0.1};      ///< seconds between instants (1/rate)
  std::size_t samples_per_group{5};  ///< k
  /// Per-node sampling clock skew bound (s): instant t of node i fires at
  /// t0 + t*period + skew_i with |skew_i| <= clock_skew. 0 = ideal sync.
  double clock_skew{0.0};
  /// The paper's Def. 3 treats the target as "relatively stationary"
  /// within one grouping sampling. true (default) collects every instant
  /// at the epoch-start position (per-instant noise still varies);
  /// false lets the target move between instants — an honesty knob whose
  /// cost bench_ablation_grouping measures.
  bool freeze_target_during_group{true};
};

/// Collect one grouping sampling at epoch start time `t0`.
///
/// The target moves during the group (`target_at(t)` gives its true
/// position) — the "relatively stationary" assumption of the paper is an
/// approximation the simulator honours but does not enforce. A node
/// reports iff it is within `sensing_range` of the target at t0 *and* the
/// fault model lets it report this epoch. Noise draws use substreams keyed
/// by (node, instant), so results do not depend on node iteration order.
GroupingSampling collect_group(const Deployment& nodes, const SamplingConfig& cfg,
                               const FaultModel& faults, std::uint64_t epoch, double t0,
                               const std::function<Vec2(double)>& target_at,
                               const RngStream& epoch_stream);

}  // namespace fttt
