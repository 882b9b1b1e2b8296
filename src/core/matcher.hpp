// Sampling-vector -> face matching (paper Sec. 4.4).
//
// ExhaustiveMatcher is the maximum-likelihood matcher of Sec. 4.4(1):
// scan every face, keep the maximum-similarity set; ties resolve to the
// mean of the tied centroids (Sec. 6 opening). O(faces) per localization.
//
// HeuristicMatcher is Algorithm 2: hill-climb over neighbor-face links
// from a start face (normally the previous localization's face),
// following the steepest similarity ascent until no neighbor improves.
// The grid approximation can introduce local maxima the exact arrangement
// lacks, so the localization rule retries exhaustively when the achieved
// similarity is poor (match_with_fallback in core/tracker.hpp).
#pragma once

#include <vector>

#include "core/facemap.hpp"
#include "core/sampling_vector.hpp"

namespace fttt {

/// Outcome of one match.
struct MatchResult {
  FaceId face{0};                  ///< a face achieving max similarity
  Vec2 position;                   ///< estimate: mean centroid of tied set
  double similarity{0.0};          ///< the achieved maximum
  std::size_t faces_examined{0};   ///< work counter (complexity claims)
  std::vector<FaceId> tied_faces;  ///< all faces at the maximum (>= 1)
};

namespace detail {

/// Shared result finalization: position = mean centroid of the tied set,
/// face = lowest tied id (Sec. 6 opening). Every matcher front-end —
/// scalar reference and SoA batch engine alike — funnels through this so
/// tie-breaking stays identical across implementations.
void finalize_match(const FaceMap& map, MatchResult& r);

}  // namespace detail

/// Full scan maximum-likelihood matcher.
class ExhaustiveMatcher {
 public:
  MatchResult match(const FaceMap& map, const SamplingVector& vd) const;
};

/// Algorithm 2: greedy ascent over neighbor-face links.
class HeuristicMatcher {
 public:
  /// `start`: initial face (previous localization, or any face for a cold
  /// start). Examines only the faces on the ascent path and their
  /// neighborhoods.
  MatchResult match(const FaceMap& map, const SamplingVector& vd, FaceId start) const;
};

}  // namespace fttt
