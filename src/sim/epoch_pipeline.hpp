// The trial engine: one Monte-Carlo tracking trial on the epoch pipeline.
//
// run_tracking (sim/runner.hpp) interleaves per-epoch work serially:
// sample the group, build the sampling vector(s), match, advance each
// tracker — one epoch at a time. But the *sampling* side of an epoch is
// independent of every other epoch by construction: epoch e draws all
// its randomness from root.substream(4, e) (and fault decisions are
// pure functions of (node, epoch)), so grouping samplings, truth
// positions, FTTT sampling vectors and the one-shot face scans for all
// epochs can be computed concurrently without changing a single bit of
// the result. Only the *decision* side is sequential — the FTTT
// heuristic warm-starts from the previous face and PM's window carries
// Viterbi state — and those steps consume the precomputed epochs in
// order.
//
// EpochPipeline::run therefore runs a trial in two phases:
//   1. precompute (one parallel_for over epochs, span
//      sim.pipeline.precompute): for every epoch, collect_group + truth
//      + one vector per FTTT method + one SoA scan of the one-shot
//      vector over the bisector table (BatchMatcher::similarities_into),
//      written to epoch-major buffers;
//   2. consume (sequential, span sim.pipeline.consume): FTTT trackers
//      climb epoch by epoch from the precomputed vectors, PM advances
//      its window from the score rows (localize_scored, bit-identical to
//      its scalar face loop), and Direct MLE selects its match from the
//      same rows (BatchMatcher::select_from) — one scan per epoch serves
//      both methods.
//
// Two callers, one engine:
//   - run_tracking_pipelined (below, and monte_carlo on top of it) runs
//     a fresh pipeline per trial over divisions from a FaceMapCache or
//     built per call;
//   - run_campaign (sim/campaign.hpp) keeps one pipeline per worker,
//     bound once per cell, so its buffers survive from trial to trial,
//     and feeds it divisions its pooled builders rebuild in place.
// The epoch loop is always the pool's parallel_for; issued from a pool
// worker (a campaign or monte_carlo trial) it degrades to running its
// own chunks, so there is no serial/parallel switch.
//
// Bit-equivalence contract: run_tracking_pipelined(cfg, methods, trial)
// returns a TrackingResult *bit-identical* to run_tracking with the
// same arguments, for every method, at any thread count, with or
// without the face-map cache. run_tracking stays in the tree as the
// executable specification; tests/sim/test_epoch_pipeline.cpp enforces
// the contract across channels, vector modes, missing policies and
// methods.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/division.hpp"
#include "core/facemap_cache.hpp"
#include "core/sampling_vector.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/runner.hpp"
#include "sim/scenario_build.hpp"

namespace fttt {

/// One reusable trial engine. bind() fixes the scenario and methods;
/// each run() overwrites the per-epoch truths and per-method estimates.
/// Every buffer keeps its capacity across run() and bind() calls, so a
/// pooled pipeline touches the allocator only when a trial needs more
/// room than any before it. Not thread-safe: one pipeline per worker.
class EpochPipeline {
 public:
  /// Fix the scenario and the method list (copied): the resolved
  /// channel, the sampling setup, the epoch count, which divisions run()
  /// reads and each FTTT method's vector slot. Throws
  /// std::invalid_argument when `methods` is empty.
  void bind(const ScenarioConfig& cfg, std::span<const Method> methods);

  /// Whether run() reads the uncertain division (FTTT, FTTT-ext) and the
  /// bisector division (PM, Direct MLE).
  bool needs_uncertain() const { return needs_uncertain_; }
  bool needs_bisector() const { return needs_bisector_; }
  std::span<const Method> methods() const { return methods_; }
  /// The bound scenario's resolved channel; its C keys the uncertain
  /// division.
  const ResolvedChannel& channel() const { return channel_; }

  /// Run trial `trial` of the bound scenario on deployment `nodes` (the
  /// trace, faults and samples come from the trial's substreams 2, 3 and
  /// 4). `uncertain` is the division of `nodes` at channel().C and
  /// `bisector` the one at C = 1; a division the methods do not need may
  /// be empty. Neither is referenced after run() returns.
  void run(std::uint64_t trial, const Deployment& nodes, const Division& uncertain,
           const Division& bisector, ThreadPool& pool);

  /// Results of the last run(): the target position at each epoch start,
  /// and method m's estimate per epoch (m indexes the bound list).
  std::span<const Vec2> truths() const { return truths_; }
  std::span<const Vec2> estimates(std::size_t m) const {
    return std::span<const Vec2>(estimates_).subspan(m * epochs_, epochs_);
  }

 private:
  ScenarioConfig cfg_;
  std::vector<Method> methods_;
  ResolvedChannel channel_;
  SamplingConfig sampling_;
  std::size_t epochs_ = 0;
  bool needs_uncertain_ = false;
  bool needs_bisector_ = false;
  std::vector<std::size_t> fttt_slot_;  ///< per method; FTTT methods only
  std::size_t fttt_count_ = 0;

  std::vector<Vec2> truths_;               ///< epochs
  std::vector<SamplingVector> fttt_vecs_;  ///< epochs x fttt_count, epoch-major
  std::vector<double> scores_;             ///< epochs x padded faces, epoch-major
  std::vector<Vec2> estimates_;            ///< methods x epochs, method-major
};

/// Execute one run on the epoch pipeline. Bit-identical to
/// run_tracking(cfg, methods, trial) regardless of `pool` size. When
/// `cache` is non-null, face maps are fetched through it (content-keyed,
/// so cross-trial fixed-deployment sweeps build each map once);
/// otherwise each call builds its own maps exactly like run_tracking.
TrackingResult run_tracking_pipelined(const ScenarioConfig& cfg,
                                      std::span<const Method> methods,
                                      std::uint64_t trial = 0,
                                      ThreadPool& pool = ThreadPool::global(),
                                      FaceMapCache* cache = nullptr);

}  // namespace fttt
