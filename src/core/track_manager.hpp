// Track lifecycle management.
//
// A deployed tracker must know when it is *not* tracking: the target left
// the field, every nearby node died, or the vector matching collapsed
// into noise. TrackManager wraps an FtttTracker with:
//   - track state (kAcquiring / kTracking / kLost),
//   - a similarity-collapse detector (median similarity over a window
//     below a threshold => the matches are noise, declare lost),
//   - a coverage gate (too few reporting nodes => no information),
//   - automatic reacquisition (tracker reset + cold start) on loss,
//   - velocity estimation over confirmed track segments.
#pragma once

#include <deque>
#include <memory>
#include <optional>

#include "core/tracker.hpp"
#include "core/velocity.hpp"

namespace fttt {

enum class TrackState { kAcquiring, kTracking, kLost };

/// Human-readable state name.
const char* track_state_name(TrackState s);

class TrackManager {
 public:
  struct Config {
    /// Localizations needed to confirm a track after (re)acquisition.
    std::size_t confirm_count{3};
    /// Window for the similarity-collapse detector.
    std::size_t similarity_window{6};
    /// Median similarity below this declares the track lost.
    double min_similarity{0.35};
    /// Velocity smoothing config.
    VelocityEstimator::Config velocity{};
  };

  /// One managed localization outcome.
  struct Update {
    TrackState state{TrackState::kAcquiring};
    std::optional<TrackEstimate> estimate;  ///< absent while kLost w/o info
    std::optional<Vec2> velocity;           ///< absent until confirmed
  };

  TrackManager(std::shared_ptr<FtttTracker> tracker, Config config);

  /// Process one grouping sampling at time `t`. Epochs with fewer than
  /// kMinReporting reporting nodes declare the track lost.
  Update process(const GroupingSampling& group, double t);

  TrackState state() const { return state_; }
  std::size_t losses() const { return losses_; }
  const VelocityEstimator& velocity_estimator() const { return velocity_; }

 private:
  void transition_to(TrackState next);

  std::shared_ptr<FtttTracker> tracker_;
  Config config_;
  TrackState state_{TrackState::kAcquiring};
  std::deque<double> recent_similarity_;
  std::size_t confirmations_{0};
  std::size_t losses_{0};
  VelocityEstimator velocity_;
};

}  // namespace fttt
