#include "core/tracker.hpp"

#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace fttt {

namespace {

/// Steps 1-2: climb from `start`; true when the climb clears the floor.
bool climb_clears_floor(const BatchMatcher& matcher, const SamplingVector& vd,
                        FaceId start, MatchResult& climbed) {
  FTTT_OBS_COUNT("tracker.climb.calls", 1);
  climbed = matcher.climb(vd, start);
  if (climbed.similarity >= kFallbackSimilarity) return true;
  FTTT_OBS_COUNT("tracker.fallbacks", 1);
  return false;
}

/// Step 4: the exhaustive result wins only when strictly better than the
/// climb it fell back from (absent on a cold start).
Localized settle(std::optional<MatchResult> climbed, MatchResult full) {
  const std::size_t faces =
      full.faces_examined + (climbed ? climbed->faces_examined : 0);
  Localized out{climbed && !(full.similarity > climbed->similarity)
                    ? std::move(*climbed)
                    : std::move(full),
                false};
  out.match.faces_examined = faces;
  return out;
}

}  // namespace

Localized match_with_fallback(const BatchMatcher& matcher, const SamplingVector& vd,
                              std::optional<FaceId> start) {
  std::optional<MatchResult> climbed;
  if (start) {
    climbed.emplace();
    if (climb_clears_floor(matcher, vd, *start, *climbed))
      return Localized{std::move(*climbed), true};
  }
  return settle(std::move(climbed), matcher.match_one(vd));
}

std::vector<Localized> match_with_fallback(const BatchMatcher& matcher,
                                           std::vector<SamplingVector> vectors,
                                           std::span<const std::optional<FaceId>> starts) {
  if (vectors.size() != starts.size())
    throw std::invalid_argument("match_with_fallback: vector and start counts differ");
  std::vector<Localized> out(vectors.size());

  // Residue: vectors the exhaustive pass resolves, with the climb they
  // fell back from (absent for cold starts).
  std::vector<std::size_t> residue;
  std::vector<std::optional<MatchResult>> climbs;
  std::vector<SamplingVector> batch;
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    std::optional<MatchResult> climbed;
    if (starts[i]) {
      climbed.emplace();
      if (climb_clears_floor(matcher, vectors[i], *starts[i], *climbed)) {
        out[i] = Localized{std::move(*climbed), true};
        continue;
      }
    }
    residue.push_back(i);
    climbs.push_back(std::move(climbed));
    batch.push_back(std::move(vectors[i]));
  }
  if (batch.empty()) return out;

  std::vector<MatchResult> matches = matcher.match(batch);
  for (std::size_t k = 0; k < residue.size(); ++k)
    out[residue[k]] = settle(std::move(climbs[k]), std::move(matches[k]));
  return out;
}

FtttTracker::FtttTracker(std::shared_ptr<const FaceMap> map, Config config)
    : map_(std::move(map)), config_(config), batch_(map_) {
  if (config_.hierarchical) batch_.build_hierarchy();
}

FtttTracker::FtttTracker(std::shared_ptr<const FaceMap> map, Config config,
                         std::shared_ptr<const SignatureTable> table)
    : map_(std::move(map)), config_(config), batch_(map_, std::move(table)) {
  if (config_.hierarchical) batch_.build_hierarchy();
}

TrackEstimate FtttTracker::localize(const GroupingSampling& group) {
  if (group.node_count() != map_->nodes().size())
    throw std::invalid_argument("FtttTracker: grouping sampling node count != map deployment");
  return localize(
      build_sampling_vector(group, config_.eps, config_.mode, config_.missing));
}

TrackEstimate FtttTracker::localize(const SamplingVector& vd) {
  FTTT_OBS_SPAN("tracker.localize");
  const Localized r = match_with_fallback(
      batch_, vd, previous_face_.value_or(map_->face_at(map_->grid().extent().center())));

  ++stats_.localizations;
  stats_.faces_examined += r.match.faces_examined;
  if (!r.warm) ++stats_.fallbacks;
  FTTT_OBS_COUNT("tracker.localizations", 1);
  FTTT_OBS_COUNT("tracker.faces_examined", r.match.faces_examined);
  previous_face_ = r.match.face;
  return TrackEstimate{r.match.position, r.match.face, r.match.similarity};
}

}  // namespace fttt
