// Plane-major face-map construction engine with incremental updates.
//
// FaceMap::build computes `signature_at` per cell: every cell pays a
// heap-allocated SignatureVector and C(n,2) pair_region evaluations —
// O(cells * n^2) distance math rebuilt wholesale on every deployment
// change. This engine inverts the loop order. For each node pair it
// rasterizes the pair's two Apollonius circles (Sec. 3.2, Eq. 4) — or
// the C == 1 perpendicular bisector — directly onto a row-major int8
// cell *plane* by per-row span fills: a circle meets a grid row in at
// most one x-interval, so the interior is filled by `std::fill` with no
// per-cell distance math, and only a narrow ambiguity window around each
// span edge (where floating-point could disagree with `pair_region`) is
// evaluated exactly. Face grouping is *run-compressed*: each plane keeps
// a cached bitmask of the cells whose value differs from their left
// neighbor, the active masks OR into one boundary mask per build, and
// only the run-head cells (where any component changes) are grouped —
// each head's signature trit-packs into base-3 64-bit words (an
// injective encoding, so packed-word equality *is* signature equality)
// and heads group by exact packed-key comparison — while run interiors
// inherit their head's face. The per-face signatures
// and the SignatureTable are then emitted in the table's final layout —
// BatchMatcher adopts it with zero transposition.
//
// Bit-equivalence contract: build() is *bit-identical* to
// FaceMap::build on the active deployment — same cell -> face
// assignment, same face ids (cell scan order), signatures, centroids
// (same accumulation order), adjacency, including the C == 1 degenerate
// bisector division. FaceMap::build stays in the tree as the executable
// specification; tests/core/test_facemap_builder.cpp enforces the
// contract. Interior span cells are provably on the decided side of the
// boundary (the ambiguity tolerance over-covers FP error by ~3 orders of
// magnitude); edge windows call pair_region itself; and grouping
// compares full packed signatures (the bucket hash only routes, never
// decides equality; every signature's first cell is a run head, so ids
// keep the legacy scan-order assignment), so the contract holds
// unconditionally — nothing is probabilistic.
//
// Incremental rebuild: the builder caches one plane per roster pair.
// When a deployment delta arrives — node failed or recovered
// (net/faults.hpp semantics), added, or moved — only planes involving
// changed nodes are re-rasterized (n - 1 for a moved node, none at all
// for fail/recover, whose planes stay cached). Grouping, adjacency and
// emission are always re-derived from the cached planes: O(heads * n^2)
// bytes packed plus O(faces * n^2) bytes written twice (SoA table and
// per-face signatures), with no distance math. That re-derivation is
// the whole cost of a fail/recover rebuild. At N = 64 on a 1 m grid
// nearly every cell is its own face, so it moves as many signature
// bytes as a cold build; the three byte-moving passes fan out over the
// builder's pool.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/vec2.hpp"
#include "core/division.hpp"
#include "core/division_delta.hpp"
#include "core/facemap.hpp"
#include "core/hier_facemap.hpp"
#include "core/signature_table.hpp"
#include "geometry/grid.hpp"
#include "net/sensor.hpp"
#include "parallel/thread_pool.hpp"

namespace fttt {

class FaceMapBuilder {
 public:
  /// Prepare a builder for `roster` (dense ids 0..n-1, all initially
  /// active) with ratio constant `C >= 1` over `field` cells of side
  /// `cell_size`. Validation matches FaceMap::build; rasterization, head
  /// packing and emission fan out over `pool` (grouping is serial).
  FaceMapBuilder(Deployment roster, double C, const Aabb& field, double cell_size,
                 ThreadPool& pool = ThreadPool::global());

  // -- Deployment deltas ---------------------------------------------------

  /// Node failed: drop it from subsequent builds. Its planes stay cached
  /// so a later recovery costs no rasterization at all.
  void deactivate(NodeId id);

  /// Node recovered: restore it to subsequent builds.
  void activate(NodeId id);

  /// Node repositioned: invalidates the n-1 cached planes involving it.
  void move_node(NodeId id, Vec2 position);

  /// Replace the whole roster at once (the campaign engine binds a fresh
  /// random deployment to a pooled builder before every trial). All nodes
  /// come back active. Same size: every cached plane is invalidated but
  /// the plane/mask storage and the slot index are kept, so the following
  /// build() re-rasterizes without allocating. Different size: the slot
  /// index is rebuilt from scratch (storage capacity is still reused).
  /// Validation matches the constructor.
  void reset_roster(Deployment roster);

  /// Grow the roster by a new (active) node; returns its roster id.
  NodeId add_node(Vec2 position);

  bool is_active(NodeId id) const;
  std::size_t roster_size() const { return roster_.size(); }
  std::size_t active_count() const;

  /// The active nodes re-labeled to dense ids 0..m-1 in roster order —
  /// exactly the deployment a from-scratch FaceMap::build would get.
  Deployment active_deployment() const;

  // -- Build ---------------------------------------------------------------

  /// Divide the field for the current active set. Rasterizes only planes
  /// not already cached (all of them on the first call), then re-derives
  /// grouping and adjacency. Bit-identical to
  /// FaceMap::build(active_deployment(), ...). Throws std::invalid_argument
  /// when fewer than two nodes are active.
  FaceMap build();

  /// SoA table of the faces produced by the last build(), emitted
  /// plane-major straight from the cell planes (zero transposition) —
  /// feed it to BatchMatcher's adopting constructor. Consumes the stored
  /// table; throws std::logic_error before the first build() or when
  /// called twice without an intervening build().
  SignatureTable take_signature_table();

  /// Reusable build products for the rebuild-into path: the map and table
  /// a build_into() call overwrites in place. First use starts empty;
  /// build_into() allocates both once and every later call reuses their
  /// heap blocks (faces, signatures, adjacency lists, cell table, SoA
  /// planes), so a reset_roster()/build_into() trial loop is
  /// allocation-free in the steady state.
  struct BuildProducts {
    std::shared_ptr<FaceMap> map;
    std::shared_ptr<SignatureTable> table;
  };

  /// build() + take_signature_table() fused into `out`, reusing its
  /// storage. Content is bit-identical to what the two-call form
  /// produces. The products are overwritten in place: every consumer of
  /// the previous contents (trackers, matchers) must be gone before the
  /// call — enforced by an FTTT_CHECK on the shared_ptr use counts, so
  /// a retained alias fails loudly instead of mutating under a reader.
  void build_into(BuildProducts& out);

  /// Coarse descent tier (core/hier_facemap.hpp) of the last build()'s
  /// table, derived from scratch in one streaming pass. Call before
  /// take_signature_table(); throws the same std::logic_error when no
  /// table is stored. Under churn, prefer delta_since() +
  /// patch_hierarchy(): cost proportional to what changed instead of
  /// O(dim x faces), bit-identical output.
  HierFaceMap build_hierarchy() const;

  /// Churn delta connecting the previous build()'s map `prev` to the
  /// last build()'s map `next` (core/division_delta.hpp): the pair-plane
  /// remap from the builder's own bookkeeping (planes re-rasterized by
  /// the last build are excluded — their cell data changed) plus the
  /// per-new-tile source old tiles from one O(cells) sweep over the two
  /// cell -> face tables. Returns an invalid delta (valid == false) when
  /// the builder cannot connect the maps: fewer than two builds since
  /// construction or reset_roster(), or shape mismatches that indicate
  /// the maps are not this builder's last two products.
  DivisionDelta delta_since(const FaceMap& prev, const FaceMap& next) const;

  /// HierFaceMap::patched of the last build()'s table against `prev`
  /// (the tier served before the churn event) along `delta` —
  /// bit-identical to build_hierarchy() at a fraction of the cost. Same
  /// table-lifetime rule as build_hierarchy (call before
  /// take_signature_table()); throws std::logic_error without a stored
  /// table and std::invalid_argument on a delta that does not connect.
  HierFaceMap patch_hierarchy(const HierFaceMap& prev, const DivisionDelta& delta,
                              HierPatchReport* report = nullptr) const;

  /// The servable division of the current active set in one call — the
  /// only place that sequences build(), the coarse tier and
  /// take_signature_table() (which consumes the table the tier reads).
  /// Flat (`hierarchical` false): map, table and members; hier/index
  /// stay null. Hierarchical: when `prev` carries a tier and
  /// delta_since(*prev->map, map) connects, the tier is patched along
  /// the delta — and the index too when the patch reports
  /// structure_matched; whatever was not patched is built wholesale.
  /// Bit-identical either way. Same throws as build().
  Division build_division(bool hierarchical, const Division* prev = nullptr);

  // -- Introspection (benches, tests, obs) ---------------------------------

  std::size_t build_count() const { return build_count_; }
  /// Planes rasterized by the most recent build() (cache misses only).
  std::size_t last_planes_rasterized() const { return last_rasterized_; }
  std::size_t planes_rasterized_total() const { return rasterized_total_; }

  const UniformGrid& grid() const { return grid_; }
  double ratio_constant() const { return C_; }

 private:
  /// Cells rounded up to one cache line of int8 columns: the stride
  /// between planes (SignatureTable::kBlock alignment convention).
  static constexpr std::size_t kPad = 64;

  std::size_t padded_cells() const { return (grid_.cell_count() + kPad - 1) / kPad * kPad; }

  SigValue* plane_data(std::uint32_t slot) { return planes_.data() + slot * padded_cells(); }
  const SigValue* plane_data(std::uint32_t slot) const {
    return planes_.data() + slot * padded_cells();
  }

  /// Words of the per-plane run-boundary bitmask (one bit per cell).
  std::size_t mask_words() const { return (grid_.cell_count() + 63) / 64; }
  std::uint64_t* mask_data(std::uint32_t slot) { return masks_.data() + slot * mask_words(); }
  const std::uint64_t* mask_data(std::uint32_t slot) const {
    return masks_.data() + slot * mask_words();
  }

  /// Slot of roster pair (i, j), i < j, allocating if new.
  std::uint32_t slot_of(NodeId i, NodeId j);

  /// Rasterize roster pair (i, j) onto `plane` (exact pair_region values
  /// in every cell; see the span-fill scheme in the .cpp) and derive its
  /// run-boundary bitmask into `mask`.
  void rasterize_pair(NodeId i, NodeId j, SigValue* plane, std::uint64_t* mask) const;

  void rasterize_disk(Vec2 a, Vec2 b, Vec2 center, double radius, SigValue inside,
                      SigValue* plane) const;
  void rasterize_bisector(Vec2 a, Vec2 b, SigValue* plane) const;

  /// pair_region over cells [i0, i1] of row j (the exact-evaluation
  /// window fill).
  void fill_exact(Vec2 a, Vec2 b, int j, int i0, int i1, SigValue* plane) const;

  /// Absolute FP-ambiguity tolerance on pair_region's decision
  /// quantities for pair (a, b); see the .cpp derivation.
  double decision_tolerance(Vec2 a, Vec2 b) const;

  /// First/last grid column whose cell-center x is >= / <= x: a cached
  /// 1/cell reciprocal gets within one column, then correction loops
  /// settle the answer exactly against center_x_ — no caller-side slack.
  int col_first_ge(double x) const;
  int col_last_le(double x) const;

  /// build() minus the obs span (the span name depends on build_count_).
  FaceMap build_impl();

  /// The shared build pipeline: rasterize cache misses, then assemble
  /// into `out` (reusing out's storage — build_impl hands it a fresh map,
  /// build_into a recycled one).
  void build_impl_into(FaceMap& out);

  void assemble_into(const Deployment& active,
                     const std::vector<const SigValue*>& planes,
                     const std::vector<const std::uint64_t*>& masks, FaceMap& out);

  UniformGrid grid_;
  double C_;
  double inv_cell_;              ///< 1 / grid cell size
  ThreadPool* pool_;
  Deployment roster_;            ///< full roster, ids dense 0..n-1
  std::vector<char> active_;     ///< per roster node

  std::vector<SigValue> planes_;                          ///< slots x padded_cells
  std::vector<std::uint64_t> masks_;                      ///< slots x mask_words
  std::unordered_map<std::uint64_t, std::uint32_t> slot_; ///< packed (i,j) -> slot
  std::vector<std::uint64_t> slot_key_;                   ///< slot -> packed (i,j)
  std::vector<char> slot_valid_;                          ///< per slot
  std::vector<std::uint64_t> row_start_mask_;  ///< bits at every row's first cell
  std::vector<double> center_x_;               ///< per-column cell-center x

  /// Pair-plane bookkeeping for delta_since: the packed (i, j) keys of
  /// the previous and the last build's pairs (ascending — pair order is
  /// lexicographic over ascending roster ids) and the keys the last
  /// build re-rasterized (subset of last_pairs_, ascending). Cleared by
  /// reset_roster (no delta connects across a roster swap).
  std::vector<std::uint64_t> prev_pairs_;
  std::vector<std::uint64_t> last_pairs_;
  std::vector<std::uint64_t> last_rasterized_keys_;

  std::optional<SignatureTable> table_;  ///< product of the last build()
  /// Plane storage reclaimed from a BuildProducts table, reused by the
  /// next assemble (empty when nothing has been reclaimed).
  std::vector<SigValue> table_storage_;

  /// Assembly intermediates reused across builds: every vector keeps its
  /// capacity, so steady-state rebuilds touch the allocator only when a
  /// deployment needs strictly more room than any before it.
  struct Scratch {
    std::vector<NodeId> ids;                     ///< active roster ids
    std::vector<std::uint32_t> slots;            ///< pair -> plane slot
    std::vector<std::uint32_t> missing;          ///< stale slots to rasterize
    std::vector<std::pair<NodeId, NodeId>> missing_pairs;
    std::vector<const SigValue*> planes;
    std::vector<const std::uint64_t*> masks;
    std::vector<std::uint64_t> boundary;         ///< OR of run-boundary masks
    std::vector<std::uint32_t> heads;            ///< run-head cell indices
    std::vector<std::uint64_t> keys;             ///< trit-packed head signatures
    std::vector<std::uint32_t> bucket_head;      ///< open-addressing buckets
    std::vector<std::uint32_t> bucket_id;
    std::vector<std::uint32_t> group;            ///< head -> face id
    std::vector<std::uint32_t> rep;              ///< face -> representative cell
    std::vector<Vec2> centroid_sum;
    std::vector<std::size_t> cell_count;
    std::vector<std::uint64_t> links;            ///< packed adjacency links
    facemap_detail::AdjacencyScratch adjacency;  ///< CSR buckets for the links
  };
  Scratch scratch_;

  std::size_t build_count_{0};
  std::size_t last_rasterized_{0};
  std::size_t rasterized_total_{0};
};

}  // namespace fttt
