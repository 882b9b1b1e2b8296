// FtttTracker: the public facade of the FTTT strategy (paper Sec. 4),
// and the one localization rule every tracking path shares.
//
// The rule (match_with_fallback) is Algorithm 2's hill climb from a
// start face, plus this repo's retry: a climb that ends below
// kFallbackSimilarity reruns as the exhaustive ML match, and the
// exhaustive result wins only when strictly better. It has two forms:
// one vector (FtttTracker, and through it run_tracking, the epoch
// pipeline, DistributedTracker, the testbed and the examples) and a
// batch whose cold and below-floor residue resolves in one SoA
// BatchMatcher::match pass (TrackShard, the serve path).
//
// The tracker owns a prebuilt FaceMap, consumes one GroupingSampling per
// localization epoch, and produces position estimates. It supports
// basic / extended sampling vectors (Sec. 4.2 / Sec. 6), warm starts
// from the previous localization (Algorithm 2's consecutive-tracking
// speedup), and fault-tolerant vectors ('*' components, Sec. 4.4(3)).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/batch_matcher.hpp"
#include "core/facemap.hpp"
#include "core/matcher.hpp"

namespace fttt {

/// A climb ending below this similarity falls back to the exhaustive
/// match (grid-approximation local maxima).
inline constexpr double kFallbackSimilarity = 0.5;

/// Epochs with fewer reporting nodes carry no information (a lone
/// column orders no pair); TrackManager and TrackShard gate them out.
inline constexpr std::size_t kMinReporting = 2;

/// One vector's outcome of the localization rule.
struct Localized {
  /// The kept match. faces_examined counts the climb and the exhaustive
  /// pass once each, whichever result won.
  MatchResult match;
  /// True when the warm climb cleared the floor, so no exhaustive pass
  /// ran.
  bool warm{false};
};

/// The localization rule for one vector:
///   1. with a start face, climb from it;
///   2. keep the climb if its similarity is >= kFallbackSimilarity;
///   3. otherwise, or with no start face, run the exhaustive match;
///   4. after a fallback the exhaustive result wins only when strictly
///      better than the climb.
Localized match_with_fallback(const BatchMatcher& matcher, const SamplingVector& vd,
                              std::optional<FaceId> start);

/// The same rule for a batch: climbs every started vector, then resolves
/// the cold and below-floor residue in one BatchMatcher::match pass.
/// out[i] equals match_with_fallback(matcher, vectors[i], starts[i]) field
/// for field. Throws std::invalid_argument when the sizes differ.
std::vector<Localized> match_with_fallback(const BatchMatcher& matcher,
                                           std::vector<SamplingVector> vectors,
                                           std::span<const std::optional<FaceId>> starts);

/// One localization outcome exposed to applications.
struct TrackEstimate {
  Vec2 position;          ///< estimated target location
  FaceId face{0};         ///< matched face
  double similarity{0.0}; ///< achieved vector similarity
};

class FtttTracker {
 public:
  struct Config {
    VectorMode mode{VectorMode::kBasic};   ///< basic or extended (Sec. 6)
    double eps{1.0};                       ///< sensing resolution (dB)
    /// How pairs with one silent node are valued (Eq. 6 vs '*').
    MissingPolicy missing{MissingPolicy::kMissingReadsSmaller};
    /// Route exhaustive matching (fallbacks) through the coarse descent
    /// tier (core/hier_facemap.hpp) instead of the flat SoA sweep.
    /// Estimates are bit-identical either way; sublinear in the face
    /// count at large N.
    bool hierarchical{false};
  };

  /// Work counters for the complexity experiments.
  struct Stats {
    std::size_t localizations{0};
    std::size_t faces_examined{0};  ///< climbs + exhaustive passes
    std::size_t fallbacks{0};       ///< climbs that re-ran exhaustively
  };

  FtttTracker(std::shared_ptr<const FaceMap> map, Config config);

  /// Cache-aware construction: share a prebuilt signature table (e.g. a
  /// FaceMapCache entry) instead of transposing `map` again.
  FtttTracker(std::shared_ptr<const FaceMap> map, Config config,
              std::shared_ptr<const SignatureTable> table);

  /// Localize the target from one grouping sampling; updates the warm
  /// start for the next call.
  TrackEstimate localize(const GroupingSampling& group);

  /// Localize from an already-built sampling vector (the epoch pipeline
  /// precomputes vectors in parallel; this entry consumes them in epoch
  /// order). The rule climbs from the previous face, or from the
  /// field-centre face on a cold start (Algorithm 2's Initialization()).
  TrackEstimate localize(const SamplingVector& vd);

  /// Forget the previous face (target lost / new track).
  void reset() { previous_face_.reset(); }

  const Stats& stats() const { return stats_; }
  const FaceMap& map() const { return *map_; }
  const Config& config() const { return config_; }

  /// The batched SoA matching engine (shared signature table).
  const BatchMatcher& matcher() const { return batch_; }

 private:
  std::shared_ptr<const FaceMap> map_;
  Config config_;
  BatchMatcher batch_;
  std::optional<FaceId> previous_face_;
  Stats stats_;
};

}  // namespace fttt
