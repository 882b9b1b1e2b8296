#include "serve/shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"
#include "obs/obs.hpp"

namespace fttt {

TrackShard::TrackShard(Config config, ThreadPool& pool)
    : config_(config), pool_(&pool) {}

void TrackShard::adopt_division(std::shared_ptr<const FaceMap> map,
                                std::shared_ptr<const SignatureTable> table,
                                std::vector<NodeId> members,
                                std::shared_ptr<const HierFaceMap> hier,
                                std::shared_ptr<const SignatureIndex> index) {
  if (!map || !table)
    throw std::invalid_argument("TrackShard::adopt_division: null map/table");
  if (static_cast<bool>(hier) != static_cast<bool>(index))
    throw std::invalid_argument(
        "TrackShard::adopt_division: hier/index must come together");
  if (members.size() != map->nodes().size())
    throw std::invalid_argument(
        "TrackShard::adopt_division: member count != division deployment");
  if (!std::is_sorted(members.begin(), members.end()) ||
      std::adjacent_find(members.begin(), members.end()) != members.end())
    throw std::invalid_argument(
        "TrackShard::adopt_division: members must be strictly ascending");
  map_ = std::move(map);
  table_ = std::move(table);
  members_ = std::move(members);
  matcher_ = std::make_unique<BatchMatcher>(map_, table_, BatchMatcher::Config{}, *pool_);
  if (hier)
    matcher_->attach_hierarchy(std::move(hier), std::move(index));
  else if (config_.hierarchical)
    matcher_->build_hierarchy();
  // Face ids are an artifact of the division: a track's previous face
  // means nothing under the new one, so every next localization starts
  // cold (through the exhaustive batch pass). Slots survive — churn holds
  // tracks, it never drops them.
  for (TrackSlot& slot : slots_) slot.warm.reset();
}

std::size_t TrackShard::slot_of(TrackId track) {
  const auto [it, inserted] = index_.try_emplace(track, slots_.size());
  if (inserted) slots_.push_back(TrackSlot{std::nullopt, false});
  return it->second;
}

void TrackShard::resolve(std::span<const ReportFrame* const> frames, TrackUpdate* out) {
  FTTT_CHECK(matcher_ != nullptr, "TrackShard::resolve before adopt_division");
  FTTT_OBS_SPAN("serve.shard.resolve");

  // The batch under construction holds at most one frame per track, so
  // every climb starts from its track's latest face.
  std::vector<std::size_t> batch_frames;
  std::vector<std::size_t> batch_slots;
  std::vector<SamplingVector> vectors;
  std::vector<std::optional<FaceId>> starts;
  const auto flush = [&] {
    if (batch_frames.empty()) return;
    const std::vector<Localized> results =
        match_with_fallback(*matcher_, std::move(vectors), starts);
    std::size_t residue = 0;
    for (std::size_t k = 0; k < results.size(); ++k) {
      const MatchResult& m = results[k].match;
      out[batch_frames[k]].estimate = TrackEstimate{m.position, m.face, m.similarity};
      out[batch_frames[k]].warm = results[k].warm;
      slots_[batch_slots[k]].warm = m.face;
      slots_[batch_slots[k]].pending = false;
      if (!results[k].warm) ++residue;
    }
    if (residue > 0) {
      FTTT_OBS_HIST("serve.shard.batch", "vectors", residue);
    }
    batch_frames.clear();
    batch_slots.clear();
    vectors.clear();
    starts.clear();
  };

  for (std::size_t i = 0; i < frames.size(); ++i) {
    const ReportFrame& frame = *frames[i];
    out[i] = TrackUpdate{frame.track, frame.epoch, std::nullopt, false};
    const std::size_t s = slot_of(frame.track);
    if (slots_[s].pending) flush();  // a track's next frame climbs from this one

    const bool identity = members_.size() == frame.group.node_count();
    const GroupingSampling projected =
        identity ? GroupingSampling{} : project_onto(frame.group, members_);
    const GroupingSampling& group = identity ? frame.group : projected;

    // Coverage gate: with almost nobody reporting there is no
    // information; do not feed the matcher noise, and cold-start the
    // next localization (the track may have moved arbitrarily meanwhile).
    if (group.reporting_count() < kMinReporting) {
      slots_[s].warm.reset();
      continue;
    }

    vectors.push_back(
        build_sampling_vector(group, config_.eps, config_.mode, config_.missing));
    starts.push_back(slots_[s].warm);
    batch_frames.push_back(i);
    batch_slots.push_back(s);
    slots_[s].pending = true;
  }
  flush();
}

}  // namespace fttt
