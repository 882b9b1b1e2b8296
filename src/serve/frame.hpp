// Wire types of the serve layer: ingestion frames and tick updates.
//
// A production tracking service consumes a stream of *sensor-report
// frames*: each frame is one track's grouping sampling for one epoch,
// indexed by the full deployment roster (absent columns mark the nodes
// that did not report — net/sampling.hpp semantics). Frames enter
// through the fleet's bounded queue; every tick the fleet resolves the
// drained frames and emits one TrackUpdate per frame, in frame order.
#pragma once

#include <cstdint>
#include <optional>

#include "core/tracker.hpp"
#include "net/sampling.hpp"

namespace fttt {

/// Stable application-level track identity (not a shard-local index).
using TrackId = std::uint64_t;

/// One track's sensor reports for one localization epoch. The grouping
/// sampling is always roster-wide (node_count == deployment size); the
/// serving side projects it onto the currently-alive node set, so a
/// producer never needs to know about deployment churn.
struct ReportFrame {
  TrackId track{0};
  std::uint64_t epoch{0};
  GroupingSampling group;
};

/// Outcome of one frame's resolution.
struct TrackUpdate {
  TrackId track{0};
  std::uint64_t epoch{0};
  /// Absent when the frame failed the coverage gate (too few reporting
  /// nodes to carry information — the track is held, not dropped).
  std::optional<TrackEstimate> estimate;
  /// True when the warm-start climb (Algorithm 2) cleared the fallback
  /// floor, so the exhaustive batch pass did not run for this frame.
  bool warm{false};
};

}  // namespace fttt
