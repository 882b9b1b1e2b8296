// Batched SoA localization engine.
//
// The paper's matchers (core/matcher.hpp) localize one sampling vector at
// a time against row-of-structs signatures. Heavy multi-target traffic
// wants the transpose: BatchMatcher keeps the face signatures as a
// SignatureTable (one contiguous int8 plane per node pair) and localizes
// a whole batch of sampling vectors in one pass — blocked distance
// accumulation over the planes (unit-stride inner loop the compiler
// vectorizes), '*' wildcards lifted to per-plane skips, and the batch
// fanned out across the thread pool with one bulk submission and
// per-slot scratch.
//
// Equivalence contract: match()/match_one() are *bit-identical* to
// ExhaustiveMatcher::match (same floating-point accumulation order per
// face, same similarity transform, same comparison and tie-break
// sequence), and climb() is bit-identical to HeuristicMatcher::match.
// The scalar matchers remain as the executable specification;
// tests/core/test_batch_matcher.cpp enforces the contract.
//
// Large deployments add a fourth tier: build_hierarchy() attaches a
// coarse HierFaceMap pyramid plus a SignatureIndex over its tiles, and
// match()/match_one() then run descend() — best-first coarse->fine
// search that prunes whole tiles by conservative distance bounds and
// exactly rescores only the survivors. The descent keeps every argmax
// field (face, tied_faces, similarity, position) bit-identical to the
// flat scan; only faces_examined differs, honestly counting the faces
// actually rescored. docs/matching.md is the handbook;
// tests/core/test_hier_descend.cpp enforces the descent contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/matcher.hpp"
#include "core/signature_table.hpp"
#include "parallel/thread_pool.hpp"

namespace fttt {

class HierFaceMap;
class SignatureIndex;

struct BatchMatcherConfig {
  /// Accumulator columns per block: the block's doubles plus one plane
  /// segment should stay L1-resident (1024 -> 8 KiB acc + 1 KiB plane).
  std::size_t face_block{1024};
  /// Table cells (one pair's component of one face) of matching work a
  /// batch must offer each pool helper before match() wakes it; below
  /// one helper's worth the caller matches the batch alone. A batch's
  /// work is counted as its flat scan, vectors x pairs x padded faces
  /// (the descent's worst case). A woken helper costs tens of
  /// microseconds, and one preempted while it holds a claimed chunk
  /// stalls the whole batch for a scheduler slice, so each must carry
  /// well over that: 2^20 cells are ~0.4 ms of flat scan.
  std::size_t min_cells_per_helper{std::size_t{1} << 20};
};

class BatchMatcher {
 public:
  using Config = BatchMatcherConfig;

  /// Builds the SoA table from `map` (throws std::invalid_argument on
  /// null). `pool` serves every subsequent match() fan-out.
  explicit BatchMatcher(std::shared_ptr<const FaceMap> map, Config config = {},
                        ThreadPool& pool = ThreadPool::global());

  /// Adopt a prebuilt SoA table (the zero-transposition handoff from
  /// FaceMapBuilder::take_signature_table). Throws std::invalid_argument
  /// when `map` is null or `table` disagrees with it in face count or
  /// dimension.
  BatchMatcher(std::shared_ptr<const FaceMap> map, SignatureTable table,
               Config config = {}, ThreadPool& pool = ThreadPool::global());

  /// Share an already-built SoA table (e.g. a FaceMapCache entry): several
  /// matchers over the same map then pay for one transposition total.
  /// Same validation as the adopting constructor; throws on null table.
  BatchMatcher(std::shared_ptr<const FaceMap> map,
               std::shared_ptr<const SignatureTable> table, Config config = {},
               ThreadPool& pool = ThreadPool::global());

  /// Localize every vector of `batch`; results[i] is the match of
  /// batch[i], each bit-identical to ExhaustiveMatcher::match.
  std::vector<MatchResult> match(const std::vector<SamplingVector>& batch) const;

  /// Single-vector exhaustive match over the SoA table (no pool fan-out).
  MatchResult match_one(const SamplingVector& vd) const;

  /// Algorithm 2 hill climb (steepest similarity ascent over neighbor
  /// links) consulting the SoA table; bit-identical to HeuristicMatcher.
  MatchResult climb(const SamplingVector& vd, FaceId start) const;

  /// Per-face similarities of `vd` in one blocked SoA pass: `out` must
  /// hold padded_faces() doubles; entries [0, face_count()) are filled
  /// with values bit-identical to the scalar
  /// similarity(vd, face.signature) of every face (pad entries are
  /// meaningless). This is the kernel match() selects over, exposed so
  /// face-scan consumers (path matching) share it.
  void similarities_into(const SamplingVector& vd, std::span<double> out) const;

  /// Select the exhaustive match from an already-computed per-face
  /// similarity array (a similarities_into buffer): the same max scan,
  /// tie sweep and finalization match_one runs after its own scan, so
  /// when `scores` came from similarities_into(vd, ...) the result is
  /// bit-identical to match_one(vd) on the flat path. The campaign
  /// engine shares one scan between path matching and Direct MLE this
  /// way instead of issuing a second pass. `scores` must hold at least
  /// face_count() entries (throws std::invalid_argument otherwise).
  MatchResult select_from(std::span<const double> scores) const;

  /// Build the coarse descent tier (a HierFaceMap pyramid plus the
  /// SignatureIndex over its tiles) from the adopted table; every
  /// subsequent match()/match_one() routes through descend(). Idempotent.
  /// Like construction, not synchronized against concurrent matching —
  /// attach the tier before the matcher is shared.
  void build_hierarchy();

  /// Adopt prebuilt tiers (a FaceMapCache entry, or a sibling's
  /// shared_hierarchy()/shared_index()): matchers over one table then
  /// pay for one coarse build total. Throws std::invalid_argument when
  /// either pointer is null or disagrees with the table in face count,
  /// dimension, or tile count.
  void attach_hierarchy(std::shared_ptr<const HierFaceMap> hier,
                        std::shared_ptr<const SignatureIndex> index);

  bool has_hierarchy() const { return hier_ != nullptr; }

  /// Coarse->fine localization of one vector (requires a hierarchy;
  /// throws std::logic_error without one). Best-first over the pyramid:
  /// pop the node with the smallest distance bound and expand it (child
  /// bounds) until the first tile, whose exact rescore seeds the floor
  /// s0; every further tile whose similarity ceiling is not strictly
  /// below s0 is a candidate, and the candidates are rescored exactly —
  /// fanned out over the pool when the work pays (docs/perf.md). Strict,
  /// so faces tied with the maximum are never pruned. The argmax fields
  /// are bit-identical to match_one() on the flat path; faces_examined
  /// counts the faces actually rescored (seed tile plus candidates), the
  /// same at every pool size. climb() never consults the tier —
  /// Algorithm 2 is already sublinear.
  MatchResult descend(const SamplingVector& vd) const;

  const SignatureTable& table() const { return *table_; }

  /// The shared table handle (for cache-aware construction of siblings).
  std::shared_ptr<const SignatureTable> shared_table() const { return table_; }
  std::shared_ptr<const HierFaceMap> shared_hierarchy() const { return hier_; }
  std::shared_ptr<const SignatureIndex> shared_index() const { return index_; }
  const FaceMap& map() const { return *map_; }

 private:
  struct BatchState;
  struct DescentScratch;
  struct RescoreState;

  /// Accumulate distance^2 of `vd` over all face columns into `acc`
  /// (padded_faces() doubles of scratch) and select the result.
  void match_into(const SamplingVector& vd, double* acc, MatchResult& out) const;

  /// The accumulation + similarity transform shared by match_into and
  /// similarities_into (no selection, no validation).
  void similarities_unchecked(const SamplingVector& vd, double* acc) const;

  /// Similarity of one face from its contiguous FaceMap signature
  /// (hill-climb support).
  double face_similarity(const SamplingVector& vd, FaceId face) const;

  /// The descent body (validated input, caller-owned scratch so batch
  /// fan-outs reuse heaps and accumulators across vectors). The
  /// candidate rescore fans out over the pool only when `may_fan_out`:
  /// a descent that is one vector of a fanned-out batch stays serial.
  void descend_into(const SamplingVector& vd, DescentScratch& ds, MatchResult& out,
                    bool may_fan_out) const;

  /// Exact similarities of tile `tile`'s faces (descent bound `bound`)
  /// into the first lanes of `row` (kIntLanes doubles; lanes past the
  /// tile's faces are meaningless). Integral vectors pass their
  /// component codes and stage planes in `stage`; extended-mode vectors
  /// pass null codes.
  void rescore_tile(const SamplingVector& vd, const std::uint8_t* code, std::uint32_t tile,
                    double bound, DescentScratch& stage, double* row) const;

  /// Throws std::invalid_argument when vd's dimension != the table's
  /// (same failure type as the scalar vector_distance path).
  void require_dimension(const SamplingVector& vd) const;

  std::shared_ptr<const FaceMap> map_;
  Config config_;
  ThreadPool* pool_;
  std::shared_ptr<const SignatureTable> table_;
  std::shared_ptr<const HierFaceMap> hier_;      ///< set => descent routing
  std::shared_ptr<const SignatureIndex> index_;  ///< set iff hier_ is
};

namespace detail {

/// The integral descent kernels (basic-mode vectors; docs/matching.md).
/// Each adds one small-integer term per listed plane to kIntLanes lanes
/// — the faces of one level-0 tile, or the children of one pyramid node
/// — and codes[i] = v + 1 names plane i's component v in {-1, 0, +1}.
/// Every term is at most 4, so the kernels sum in 16-bit lanes and
/// flush into the 32-bit `acc` every kIntFlushPlanes planes: exact for
/// any dimension. Each planes[i] / masks[i] row must hold kIntLanes
/// readable bytes. Exposed so tests can drive the flush boundary, which
/// no deployment small enough to build in a test reaches.
inline constexpr std::size_t kIntLanes = 64;
inline constexpr std::size_t kIntFlushPlanes = 16383;  // 16383 * 4 < 2^16

/// acc[k] += (v_i - planes[i][k])^2: the exact rescore of a tile's faces
/// on its mixed planes.
void add_square_terms(const SigValue* const* planes, const std::uint8_t* codes,
                      std::size_t count, std::uint32_t* acc);

/// acc[k] += HierFaceMap::kIntMinTerm[codes[i]][masks[i][k]]: the child
/// bounds of one node on its varying planes.
void add_min_terms(const std::uint8_t* const* masks, const std::uint8_t* codes,
                   std::size_t count, std::uint32_t* acc);

}  // namespace detail

}  // namespace fttt
