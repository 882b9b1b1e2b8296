// Delta-patched division tier and index: bit-equivalence against the
// from-scratch builds (core/hier_patch.cpp contract) across churn
// sequences, thread counts and the fallback edges — both through the
// builder's separate calls and through FaceMapBuilder::build_division,
// patched (against the previous division) versus wholesale.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/random.hpp"
#include "core/division.hpp"
#include "core/division_delta.hpp"
#include "core/facemap.hpp"
#include "core/facemap_builder.hpp"
#include "core/hier_facemap.hpp"
#include "core/signature_index.hpp"
#include "net/deployment.hpp"
#include "parallel/thread_pool.hpp"

namespace fttt {
namespace {

const Aabb kField{{0.0, 0.0}, {40.0, 40.0}};
constexpr double kCell = 0.5;
constexpr double kC = 1.3;

/// Bit-equivalence of two coarse tiers: identical shape and identical
/// mask bytes on every level and plane.
void expect_hier_identical(const HierFaceMap& got, const HierFaceMap& want) {
  ASSERT_EQ(got.face_count(), want.face_count());
  ASSERT_EQ(got.dimension(), want.dimension());
  ASSERT_EQ(got.level_count(), want.level_count());
  ASSERT_EQ(got.bytes(), want.bytes());
  for (std::size_t l = 0; l < want.level_count(); ++l) {
    ASSERT_EQ(got.node_count(l), want.node_count(l)) << "level " << l;
    for (std::size_t c = 0; c < want.dimension(); ++c)
      for (std::size_t i = 0; i < want.node_count(l); ++i)
        ASSERT_EQ(got.mask(l, c, i), want.mask(l, c, i))
            << "level " << l << " pair " << c << " node " << i;
  }
}

/// Bit-equivalence of two indexes: identical CSR rows on every level.
void expect_index_identical(const SignatureIndex& got, const SignatureIndex& want) {
  ASSERT_EQ(got.tile_count(), want.tile_count());
  ASSERT_EQ(got.dimension(), want.dimension());
  ASSERT_EQ(got.level_count(), want.level_count());
  ASSERT_EQ(got.mixed_entries(), want.mixed_entries());
  ASSERT_EQ(got.bytes(), want.bytes());
  for (std::size_t t = 0; t < want.tile_count(); ++t) {
    const auto g = got.mixed_planes(t);
    const auto w = want.mixed_planes(t);
    ASSERT_EQ(std::vector<std::uint32_t>(g.begin(), g.end()),
              std::vector<std::uint32_t>(w.begin(), w.end()))
        << "tile " << t;
  }
  // Upper node counts follow the tier recurrence from the tile count.
  std::size_t nodes = want.tile_count();
  for (std::size_t l = 1; l < want.level_count(); ++l) {
    nodes = (nodes + HierFaceMap::kFanout - 1) / HierFaceMap::kFanout;
    for (std::size_t i = 0; i < nodes; ++i) {
      const auto g = got.varying_planes(l, i);
      const auto w = want.varying_planes(l, i);
      ASSERT_EQ(std::vector<std::uint32_t>(g.begin(), g.end()),
                std::vector<std::uint32_t>(w.begin(), w.end()))
          << "level " << l << " node " << i;
    }
  }
}

/// Bit-equivalence of two face maps: faces, adjacency, cell ownership
/// and the active node set.
void expect_map_identical(const FaceMap& got, const FaceMap& want) {
  ASSERT_EQ(got.face_count(), want.face_count());
  ASSERT_EQ(got.dimension(), want.dimension());
  ASSERT_EQ(got.nodes().size(), want.nodes().size());
  for (std::size_t i = 0; i < want.nodes().size(); ++i) {
    ASSERT_EQ(got.nodes()[i].id, want.nodes()[i].id);
    ASSERT_EQ(got.nodes()[i].position, want.nodes()[i].position);
  }
  for (const Face& w : want.faces()) {
    const Face& g = got.face(w.id);
    ASSERT_EQ(g.signature, w.signature) << "face " << w.id;
    ASSERT_EQ(g.centroid, w.centroid) << "face " << w.id;
    ASSERT_EQ(g.cell_count, w.cell_count) << "face " << w.id;
    ASSERT_EQ(got.neighbors(w.id), want.neighbors(w.id)) << "face " << w.id;
  }
  for (std::size_t flat = 0; flat < want.grid().cell_count(); ++flat)
    ASSERT_EQ(got.face_of_cell(flat), want.face_of_cell(flat)) << "cell " << flat;
}

/// Bit-equivalence of two divisions, every field.
void expect_division_identical(const Division& got, const Division& want) {
  ASSERT_TRUE(got.map && got.table && want.map && want.table);
  expect_map_identical(*got.map, *want.map);
  ASSERT_EQ(got.table->face_count(), want.table->face_count());
  ASSERT_EQ(got.table->dimension(), want.table->dimension());
  ASSERT_EQ(got.table->padded_faces(), want.table->padded_faces());
  for (std::size_t p = 0; p < want.table->dimension(); ++p)
    for (std::size_t f = 0; f < want.table->padded_faces(); ++f)
      ASSERT_EQ(got.table->plane(p)[f], want.table->plane(p)[f])
          << "plane " << p << " col " << f;
  ASSERT_EQ(static_cast<bool>(got.hier), static_cast<bool>(want.hier));
  ASSERT_EQ(static_cast<bool>(got.index), static_cast<bool>(want.index));
  if (want.hier) expect_hier_identical(*got.hier, *want.hier);
  if (want.index) expect_index_identical(*got.index, *want.index);
  ASSERT_EQ(got.members, want.members);
}

/// Apply fail -> revive -> fail churn steps to `builder`, and after each
/// step check that patch_hierarchy + SignatureIndex::patched are
/// bit-identical to the from-scratch builds on `pool`. Two more builders
/// take the same steps through build_division: one patching against its
/// previous division, one wholesale; their divisions must agree in every
/// field, and with the separate-call products.
void run_churn_equivalence(std::size_t sensors, std::uint64_t seed,
                           ThreadPool& pool) {
  RngStream rng(seed);
  const Deployment nodes = random_deployment(kField, sensors, rng);
  FaceMapBuilder builder(nodes, kC, kField, kCell, pool);
  FaceMapBuilder patching(nodes, kC, kField, kCell, pool);
  FaceMapBuilder wholesale(nodes, kC, kField, kCell, pool);

  FaceMap prev_map = builder.build();
  HierFaceMap prev_hier = builder.build_hierarchy();
  SignatureIndex prev_index = SignatureIndex::build(prev_hier, pool);
  Division prev_division = patching.build_division(true);
  expect_division_identical(prev_division, wholesale.build_division(true));

  const NodeId victim = static_cast<NodeId>(sensors / 2);
  const NodeId victim2 = static_cast<NodeId>(sensors / 3);
  const struct {
    NodeId id;
    bool fail;
  } steps[] = {{victim, true}, {victim, false}, {victim2, true}};

  int step_no = 0;
  for (const auto& step : steps) {
    SCOPED_TRACE(testing::Message()
                 << "sensors " << sensors << " seed " << seed << " step "
                 << step_no++ << (step.fail ? " fail " : " revive ") << step.id);
    for (FaceMapBuilder* b : {&builder, &patching, &wholesale}) {
      if (step.fail)
        b->deactivate(step.id);
      else
        b->activate(step.id);
    }

    FaceMap next_map = builder.build();
    const DivisionDelta delta = builder.delta_since(prev_map, next_map);
    ASSERT_TRUE(delta.valid);

    const HierFaceMap want_hier = builder.build_hierarchy();
    HierPatchReport report;
    const HierFaceMap got_hier =
        builder.patch_hierarchy(prev_hier, delta, &report);
    expect_hier_identical(got_hier, want_hier);

    // Churn only moves boundaries near the victim: with several tiles
    // most copy. (A single tile can legitimately recompute everywhere —
    // its one new tile draws faces from more than one old tile.)
    if (want_hier.node_count(0) > 1) EXPECT_GT(report.copied_tiles, 0u);
    EXPECT_EQ(report.copied_tiles + report.recomputed_tiles,
              want_hier.dimension() * want_hier.node_count(0));

    const SignatureIndex want_index = SignatureIndex::build(want_hier, pool);
    if (report.structure_matched) {
      const SignatureIndex got_index =
          SignatureIndex::patched(got_hier, prev_index, delta, report, pool);
      expect_index_identical(got_index, want_index);
      prev_index = got_index;
    } else {
      prev_index = want_index;
    }

    Division got = patching.build_division(true, &prev_division);
    const Division want = wholesale.build_division(true);
    expect_division_identical(got, want);
    expect_map_identical(*got.map, next_map);
    expect_hier_identical(*got.hier, want_hier);
    expect_index_identical(*got.index, want_index);

    prev_map = std::move(next_map);
    prev_hier = got_hier;
    prev_division = std::move(got);
  }
}

TEST(HierPatch, FailReviveFailBitIdenticalMultiTile) {
  // 14 sensors on a 80x80-cell field: enough faces for several level-0
  // tiles, so cross-tile copies and the upper levels are all exercised.
  ThreadPool pool(4);
  RngStream probe(21);
  const Deployment nodes = random_deployment(kField, 14, probe);
  FaceMapBuilder b(nodes, kC, kField, kCell, pool);
  b.build();
  const HierFaceMap h = b.build_hierarchy();
  ASSERT_GT(h.face_count(), HierFaceMap::kTileFaces);  // multi-tile fixture
  run_churn_equivalence(14, 21, pool);
}

TEST(HierPatch, SingleTileSmallFixture) {
  // 4 sensors: few faces, a single level, the degenerate shallow shape.
  ThreadPool pool(2);
  run_churn_equivalence(4, 5, pool);
}

TEST(HierPatch, BitIdenticalAcrossThreadCounts) {
  for (const std::size_t threads : {1u, 4u, 8u}) {
    ThreadPool pool(threads);
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    run_churn_equivalence(11, 33, pool);
  }
}

TEST(HierPatch, MoveNodePatchesAddedPlanes) {
  // move_node re-rasterizes the moved node's planes: delta_since must
  // exclude them from the survivor remap (their cell data changed) and
  // the patch must recompute every tile they cover.
  for (const std::size_t threads : {1u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    ThreadPool pool(threads);
    RngStream rng(9);
    const Deployment nodes = random_deployment(kField, 10, rng);
    FaceMapBuilder builder(nodes, kC, kField, kCell, pool);
    FaceMap prev_map = builder.build();
    HierFaceMap prev_hier = builder.build_hierarchy();
    SignatureIndex prev_index = SignatureIndex::build(prev_hier, pool);

    builder.move_node(3, {11.0, 27.0});
    FaceMap next_map = builder.build();
    const DivisionDelta delta = builder.delta_since(prev_map, next_map);
    ASSERT_TRUE(delta.valid);
    // The moved node's n-1 planes count as added (no old plane to reuse).
    std::size_t added = 0;
    for (const std::uint32_t po : delta.plane_to_old)
      if (po == DivisionDelta::kNone) ++added;
    EXPECT_EQ(added, nodes.size() - 1);

    const HierFaceMap want = builder.build_hierarchy();
    HierPatchReport report;
    const HierFaceMap got = builder.patch_hierarchy(prev_hier, delta, &report);
    expect_hier_identical(got, want);
    if (report.structure_matched) {
      expect_index_identical(
          SignatureIndex::patched(got, prev_index, delta, report, pool),
          SignatureIndex::build(want, pool));
    }

    // The same move through build_division: patched against the previous
    // division versus wholesale.
    FaceMapBuilder patching(nodes, kC, kField, kCell, pool);
    FaceMapBuilder wholesale(nodes, kC, kField, kCell, pool);
    const Division prev_division = patching.build_division(true);
    (void)wholesale.build_division(true);
    patching.move_node(3, {11.0, 27.0});
    wholesale.move_node(3, {11.0, 27.0});
    const Division patched = patching.build_division(true, &prev_division);
    expect_division_identical(patched, wholesale.build_division(true));
    expect_hier_identical(*patched.hier, want);
  }
}

TEST(HierPatch, FlatDivisionCarriesNoTierAndIgnoresPrev) {
  ThreadPool pool(2);
  RngStream rng(17);
  const Deployment nodes = random_deployment(kField, 6, rng);
  FaceMapBuilder builder(nodes, kC, kField, kCell, pool);
  FaceMapBuilder reference(nodes, kC, kField, kCell, pool);

  const Division flat = builder.build_division(false);
  EXPECT_FALSE(flat.hier);
  EXPECT_FALSE(flat.index);
  EXPECT_EQ(flat.members, (std::vector<NodeId>{0, 1, 2, 3, 4, 5}));
  expect_map_identical(*flat.map, reference.build());

  // A flat `prev` carries no tier to patch from: a hierarchical division
  // against it is built wholesale, and a flat one ignores it entirely.
  builder.deactivate(2);
  reference.deactivate(2);
  const Division tiered = builder.build_division(true, &flat);
  const Division want = reference.build_division(true);
  expect_division_identical(tiered, want);
  EXPECT_EQ(tiered.members, (std::vector<NodeId>{0, 1, 3, 4, 5}));
  builder.activate(2);
  reference.activate(2);
  const Division again = builder.build_division(false, &tiered);
  EXPECT_FALSE(again.hier);
  expect_map_identical(*again.map, reference.build());
  EXPECT_EQ(again.members, flat.members);
}

TEST(HierPatch, DeltaInvalidOnFirstBuildAndAfterReset) {
  ThreadPool pool(2);
  RngStream rng(13);
  const Deployment nodes = random_deployment(kField, 6, rng);
  FaceMapBuilder builder(nodes, kC, kField, kCell, pool);

  // Fewer than two builds: nothing to connect.
  FaceMap first = builder.build();
  EXPECT_FALSE(builder.delta_since(first, first).valid);

  builder.deactivate(1);
  FaceMap second = builder.build();
  EXPECT_TRUE(builder.delta_since(first, second).valid);

  // reset_roster clears the pair bookkeeping: the next delta cannot
  // connect until two fresh builds exist.
  builder.reset_roster(nodes);
  FaceMap third = builder.build();
  EXPECT_FALSE(builder.delta_since(second, third).valid);

  // And an invalid delta is rejected by the patch, not silently used.
  const HierFaceMap hier = builder.build_hierarchy();
  EXPECT_THROW(builder.patch_hierarchy(hier, DivisionDelta{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace fttt
