#include "core/track_manager.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace fttt {

const char* track_state_name(TrackState s) {
  switch (s) {
    case TrackState::kAcquiring: return "acquiring";
    case TrackState::kTracking: return "tracking";
    case TrackState::kLost: return "lost";
  }
  return "?";
}

TrackManager::TrackManager(std::shared_ptr<FtttTracker> tracker, Config config)
    : tracker_(std::move(tracker)), config_(config), velocity_(config_.velocity) {
  if (!tracker_) throw std::invalid_argument("TrackManager: null tracker");
  if (config_.confirm_count == 0 || config_.similarity_window == 0)
    throw std::invalid_argument("TrackManager: zero confirm/window");
}

void TrackManager::transition_to(TrackState next) {
  if (state_ == next) return;
  if (next == TrackState::kLost) {
    ++losses_;
    tracker_->reset();  // cold-start the matcher on reacquisition
    velocity_.reset();
    recent_similarity_.clear();
    confirmations_ = 0;
  }
  if (next == TrackState::kAcquiring) confirmations_ = 0;
  state_ = next;
}

TrackManager::Update TrackManager::process(const GroupingSampling& group, double t) {
  Update update;
  // Coverage gate: with almost nobody reporting there is no information;
  // do not feed the matcher noise.
  if (group.reporting_count() < kMinReporting) {
    transition_to(TrackState::kLost);
    update.state = state_;
    return update;
  }
  if (state_ == TrackState::kLost) transition_to(TrackState::kAcquiring);

  const TrackEstimate estimate = tracker_->localize(group);
  update.estimate = estimate;

  // Similarity-collapse detector over a sliding window. Exact matches
  // have infinite similarity; cap them so the median stays finite.
  recent_similarity_.push_back(std::min(estimate.similarity, 1e6));
  if (recent_similarity_.size() > config_.similarity_window)
    recent_similarity_.pop_front();
  std::vector<double> sorted(recent_similarity_.begin(), recent_similarity_.end());
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(sorted.size() / 2),
                   sorted.end());
  const double median = sorted[sorted.size() / 2];

  if (recent_similarity_.size() >= config_.similarity_window &&
      median < config_.min_similarity) {
    transition_to(TrackState::kLost);
    update.state = state_;
    update.estimate.reset();  // the collapsed match is noise, not a fix
    return update;
  }

  if (state_ == TrackState::kAcquiring) {
    if (++confirmations_ >= config_.confirm_count) transition_to(TrackState::kTracking);
  }

  if (state_ == TrackState::kTracking) {
    velocity_.update(estimate.position, t);
    update.velocity = velocity_.velocity();
  }
  update.state = state_;
  return update;
}

}  // namespace fttt
