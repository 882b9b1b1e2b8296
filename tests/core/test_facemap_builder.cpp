#include "core/facemap_builder.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/check.hpp"
#include "common/random.hpp"
#include "core/batch_matcher.hpp"
#include "core/division.hpp"
#include "core/pairs.hpp"
#include "core/signature_table.hpp"
#include "net/deployment.hpp"

namespace fttt {
namespace {

const Aabb kField{{0.0, 0.0}, {20.0, 20.0}};
constexpr double kCell = 0.5;

/// The bit-equivalence contract, in full: same ids, signatures, centroids
/// (exact doubles — the builder accumulates in the same order), cell
/// ownership, cell counts, adjacency and node roster as the legacy build.
void expect_identical(const FaceMap& got, const FaceMap& want) {
  ASSERT_EQ(got.face_count(), want.face_count());
  ASSERT_EQ(got.dimension(), want.dimension());
  ASSERT_EQ(got.nodes().size(), want.nodes().size());
  for (std::size_t i = 0; i < want.nodes().size(); ++i) {
    EXPECT_EQ(got.nodes()[i].id, want.nodes()[i].id);
    EXPECT_EQ(got.nodes()[i].position, want.nodes()[i].position);
  }
  for (const Face& w : want.faces()) {
    const Face& g = got.face(w.id);
    EXPECT_EQ(g.id, w.id);
    EXPECT_EQ(g.signature, w.signature) << "face " << w.id;
    EXPECT_EQ(g.centroid, w.centroid) << "face " << w.id;  // exact, not near
    EXPECT_EQ(g.cell_count, w.cell_count) << "face " << w.id;
    EXPECT_EQ(got.neighbors(w.id), want.neighbors(w.id)) << "face " << w.id;
  }
  const std::size_t cells = want.grid().cell_count();
  for (std::size_t flat = 0; flat < cells; ++flat)
    ASSERT_EQ(got.face_of_cell(flat), want.face_of_cell(flat)) << "cell " << flat;
}

TEST(FaceMapBuilder, FullBuildBitIdenticalToLegacy) {
  RngStream rng(2026);
  const double ratios[] = {1.0, 1.2, 2.0, 5.0};
  for (std::size_t n : {2u, 3u, 5u, 8u}) {
    for (double C : ratios) {
      RngStream sub = rng.substream(n, static_cast<std::uint64_t>(C * 16));
      const Deployment nodes = random_deployment(kField, n, sub);
      const FaceMap want = FaceMap::build(nodes, C, kField, kCell);
      FaceMapBuilder builder(nodes, C, kField, kCell);
      const FaceMap got = builder.build();
      SCOPED_TRACE(testing::Message() << "n=" << n << " C=" << C);
      expect_identical(got, want);
      EXPECT_EQ(builder.last_planes_rasterized(), pair_count(n));
    }
  }
}

TEST(FaceMapBuilder, GridDeploymentAndAxisAlignedPairs) {
  // Lattice deployments put many node pairs exactly on shared x or y
  // coordinates — the bisector gx == 0 row-uniform path and near-vertical
  // Apollonius axes all get exercised.
  for (double C : {1.0, 1.5, 4.0}) {
    const Deployment nodes = grid_deployment(kField, 9);
    const FaceMap want = FaceMap::build(nodes, C, kField, kCell);
    FaceMapBuilder builder(nodes, C, kField, kCell);
    SCOPED_TRACE(testing::Message() << "C=" << C);
    expect_identical(builder.build(), want);
  }
}

TEST(FaceMapBuilder, CoincidentNodesDegenerateToExactEvaluation) {
  Deployment nodes{{0, {5.0, 5.0}}, {1, {5.0, 5.0}}, {2, {15.0, 12.0}}};
  for (double C : {1.0, 3.0}) {
    const FaceMap want = FaceMap::build(nodes, C, kField, kCell);
    FaceMapBuilder builder(nodes, C, kField, kCell);
    SCOPED_TRACE(testing::Message() << "C=" << C);
    expect_identical(builder.build(), want);
  }
}

TEST(FaceMapBuilder, ValidationMatchesLegacyBuild) {
  EXPECT_THROW(FaceMapBuilder({{0, {1.0, 1.0}}}, 1.2, kField, kCell),
               std::invalid_argument);
  Deployment bad{{0, {1.0, 1.0}}, {7, {2.0, 2.0}}};  // non-dense ids
  EXPECT_THROW(FaceMapBuilder(bad, 1.2, kField, kCell), std::invalid_argument);
  Deployment two{{0, {1.0, 1.0}}, {1, {2.0, 2.0}}};
  EXPECT_THROW(FaceMapBuilder(two, 0.9, kField, kCell), std::invalid_argument);

  // Fewer than two *active* nodes: the build (not the ctor) throws.
  FaceMapBuilder builder(two, 1.2, kField, kCell);
  builder.deactivate(1);
  EXPECT_THROW(builder.build(), std::invalid_argument);
  builder.activate(1);
  EXPECT_NO_THROW(builder.build());
}

TEST(FaceMapBuilder, IncrementalKillReviveSequenceBitIdentical) {
  // Property: after ANY single-node kill/revive sequence, the incremental
  // rebuild equals a from-scratch legacy build of the surviving
  // deployment — and pure kill/revive deltas rasterize nothing (every
  // plane of the full roster is already cached).
  RngStream rng(7);
  for (double C : {1.0, 2.0, 4.0}) {
    RngStream sub = rng.substream(static_cast<std::uint64_t>(C * 8));
    const std::size_t n = 7;
    const Deployment nodes = random_deployment(kField, n, sub);
    FaceMapBuilder builder(nodes, C, kField, kCell);
    builder.build();
    std::vector<char> alive(n, 1);
    std::size_t live = n;
    for (int step = 0; step < 12; ++step) {
      const NodeId id = static_cast<NodeId>(sub.next_u64() % n);
      if (alive[id] && live > 2) {
        builder.deactivate(id);
        alive[id] = 0;
        --live;
      } else if (!alive[id]) {
        builder.activate(id);
        alive[id] = 1;
        ++live;
      } else {
        continue;
      }
      const FaceMap got = builder.build();
      EXPECT_EQ(builder.last_planes_rasterized(), 0u) << "step " << step;
      const FaceMap want =
          FaceMap::build(builder.active_deployment(), C, kField, kCell);
      SCOPED_TRACE(testing::Message() << "C=" << C << " step " << step);
      expect_identical(got, want);
    }
  }
}

TEST(FaceMapBuilder, MoveAndAddRasterizeOnlyTouchedPlanes) {
  RngStream rng(11);
  const std::size_t n = 6;
  const Deployment nodes = random_deployment(kField, n, rng);
  const double C = 3.0;
  FaceMapBuilder builder(nodes, C, kField, kCell);
  builder.build();

  builder.move_node(2, {3.25, 17.5});
  FaceMap got = builder.build();
  EXPECT_EQ(builder.last_planes_rasterized(), n - 1);
  expect_identical(got, FaceMap::build(builder.active_deployment(), C, kField, kCell));

  const NodeId added = builder.add_node({10.0, 2.5});
  EXPECT_EQ(added, n);
  got = builder.build();
  EXPECT_EQ(builder.last_planes_rasterized(), n);  // the new node's pairs
  expect_identical(got, FaceMap::build(builder.active_deployment(), C, kField, kCell));

  // A dead node's planes are not rebuilt when a *different* node moves.
  builder.deactivate(0);
  builder.move_node(4, {18.0, 18.0});
  got = builder.build();
  EXPECT_EQ(builder.last_planes_rasterized(), builder.active_count() - 1);
  expect_identical(got, FaceMap::build(builder.active_deployment(), C, kField, kCell));
}

TEST(FaceMapBuilder, SignatureTableMatchesLegacyTransposition) {
  RngStream rng(23);
  const Deployment nodes = random_deployment(kField, 6, rng);
  FaceMapBuilder builder(nodes, 4.0, kField, kCell);
  const FaceMap map = builder.build();
  const SignatureTable got = builder.take_signature_table();
  const SignatureTable want(map);
  ASSERT_EQ(got.face_count(), want.face_count());
  ASSERT_EQ(got.dimension(), want.dimension());
  ASSERT_EQ(got.padded_faces(), want.padded_faces());
  for (std::size_t p = 0; p < want.dimension(); ++p)
    for (std::size_t f = 0; f < want.padded_faces(); ++f)
      ASSERT_EQ(got.plane(p)[f], want.plane(p)[f]) << "plane " << p << " col " << f;
}

TEST(FaceMapBuilder, TakeSignatureTableConsumes) {
  Deployment two{{0, {4.0, 4.0}}, {1, {16.0, 16.0}}};
  FaceMapBuilder builder(two, 2.0, kField, kCell);
  EXPECT_THROW(builder.take_signature_table(), std::logic_error);
  builder.build();
  EXPECT_NO_THROW(builder.take_signature_table());
  EXPECT_THROW(builder.take_signature_table(), std::logic_error);
  builder.build();  // a fresh build re-stocks the table
  EXPECT_NO_THROW(builder.take_signature_table());
}

TEST(FaceMapBuilder, BatchMatcherAdoptsTableZeroTransposition) {
  RngStream rng(31);
  const Deployment nodes = random_deployment(kField, 5, rng);
  FaceMapBuilder builder(nodes, 4.0, kField, kCell);
  auto map = std::make_shared<const FaceMap>(builder.build());
  const BatchMatcher adopted(map, builder.take_signature_table());
  const BatchMatcher rebuilt(map);

  SamplingVector vd;
  vd.value.assign(map->dimension(), 0.0);
  vd.known.assign(map->dimension(), true);
  for (std::size_t c = 0; c < vd.dimension(); ++c) {
    vd.known[c] = (c % 3) != 0;
    vd.value[c] = (c % 2 == 0) ? 1.0 : -1.0;
  }
  const MatchResult a = adopted.match_one(vd);
  const MatchResult b = rebuilt.match_one(vd);
  EXPECT_EQ(a.face, b.face);
  EXPECT_EQ(a.similarity, b.similarity);
  EXPECT_EQ(a.tied_faces, b.tied_faces);

  // A table that disagrees with the map is rejected.
  FaceMapBuilder other(random_deployment(kField, 7, rng), 4.0, kField, kCell);
  other.build();
  EXPECT_THROW(BatchMatcher(map, other.take_signature_table()),
               std::invalid_argument);
}

TEST(FaceMapBuilder, FaceAtOutsideFieldThrows) {
  // Regression for the hardened FaceMap::face_at contract: in-field and
  // boundary points resolve (boundary clamps to the adjacent cell),
  // strictly-outside points throw instead of silently aliasing to an
  // edge cell.
  Deployment two{{0, {4.0, 4.0}}, {1, {16.0, 16.0}}};
  FaceMapBuilder builder(two, 2.0, kField, kCell);
  const FaceMap map = builder.build();
  EXPECT_NO_THROW(map.face_at({10.0, 10.0}));
  EXPECT_NO_THROW(map.face_at({0.0, 0.0}));
  EXPECT_NO_THROW(map.face_at({20.0, 20.0}));  // far corner, clamps inward
  EXPECT_THROW(map.face_at({-0.001, 10.0}), std::out_of_range);
  EXPECT_THROW(map.face_at({10.0, 20.001}), std::out_of_range);
  EXPECT_THROW(map.face_at({25.0, -3.0}), std::out_of_range);
}

TEST(FaceMapBuilder, BuildIntoBitIdenticalAcrossRosterResets) {
  // The campaign trial loop: one pooled builder, a fresh random roster
  // per trial, products rebuilt in place. Every rebuild must match a
  // cold FaceMap::build + SignatureTable of that roster exactly, and the
  // product objects themselves must be reused, not reallocated.
  RngStream rng(407);
  FaceMapBuilder::BuildProducts products;
  std::optional<FaceMapBuilder> builder;
  const FaceMap* first_map = nullptr;
  const SignatureTable* first_table = nullptr;
  for (int trial = 0; trial < 4; ++trial) {
    const Deployment nodes = random_deployment(kField, 6, rng);
    if (builder) builder->reset_roster(nodes);
    else builder.emplace(nodes, 2.0, kField, kCell);
    builder->build_into(products);
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    expect_identical(*products.map, FaceMap::build(nodes, 2.0, kField, kCell));
    const SignatureTable want(*products.map);
    ASSERT_EQ(products.table->face_count(), want.face_count());
    ASSERT_EQ(products.table->padded_faces(), want.padded_faces());
    for (std::size_t p = 0; p < want.dimension(); ++p)
      for (std::size_t f = 0; f < want.padded_faces(); ++f)
        ASSERT_EQ(products.table->plane(p)[f], want.plane(p)[f])
            << "plane " << p << " col " << f;
    if (trial == 0) {
      first_map = products.map.get();
      first_table = products.table.get();
    } else {
      EXPECT_EQ(products.map.get(), first_map);      // recycled, not reallocated
      EXPECT_EQ(products.table.get(), first_table);
    }
  }
}

void expect_table_matches(const SignatureTable& got, const FaceMap& map) {
  const SignatureTable want(map);
  ASSERT_EQ(got.face_count(), want.face_count());
  ASSERT_EQ(got.dimension(), want.dimension());
  ASSERT_EQ(got.padded_faces(), want.padded_faces());
  for (std::size_t p = 0; p < want.dimension(); ++p)
    for (std::size_t f = 0; f < want.padded_faces(); ++f)
      ASSERT_EQ(got.plane(p)[f], want.plane(p)[f]) << "plane " << p << " col " << f;
}

/// What a fixture exercises in the assembly kernels, read off the legacy
/// map: a cell heads a run iff it starts a row or its face differs from
/// its left neighbor's, and the packing stage works in blocks of 1024
/// heads that read planes contiguously when the block's heads are
/// consecutive cells.
struct KernelEdges {
  bool multi_block = false;       ///< more than one 1024-head block
  bool contiguous_block = false;  ///< some block's heads are consecutive cells
  bool gapped_block = false;      ///< some block skips a run interior
  bool ragged_faces = false;      ///< face count not a multiple of 8 (nor 64)
};

KernelEdges kernel_edges(const FaceMap& map) {
  constexpr std::size_t kHeadBlock = 1024;
  const UniformGrid& grid = map.grid();
  const std::size_t cols = static_cast<std::size_t>(grid.cols());
  std::vector<std::size_t> heads;
  for (std::size_t c = 0; c < grid.cell_count(); ++c)
    if (c % cols == 0 || map.face_of_cell(c) != map.face_of_cell(c - 1)) heads.push_back(c);
  KernelEdges e;
  e.multi_block = heads.size() > kHeadBlock;
  for (std::size_t h0 = 0; h0 < heads.size(); h0 += kHeadBlock) {
    const std::size_t h1 = std::min(heads.size(), h0 + kHeadBlock);
    if (heads[h1 - 1] - heads[h0] == h1 - 1 - h0) e.contiguous_block = true;
    else e.gapped_block = true;
  }
  e.ragged_faces = map.face_count() % 8 != 0;
  return e;
}

TEST(FaceMapBuilder, AssemblyKernelEdgesBitIdenticalAtAnyPoolSize) {
  // The other fixtures here stop at n = 8 (dim 28): one key word, dim a
  // multiple of 4, one head block. n = 9/10/13/16 gives dim 36/45/78/120
  // — multi-word keys, partial last words and 8-plane tile tails — and
  // the fine grid spreads heads over several gapped blocks while the
  // coarse grid makes every cell a head. Every entry point must match
  // the legacy build through a fail/revive sequence on 1 and 4 threads.
  struct Grid {
    const char* name;
    double cell;
  };
  const Grid grids[] = {{"fine", 0.25}, {"coarse", 2.0}};
  KernelEdges seen;
  bool ragged_dim = false;
  ThreadPool solo(1);
  ThreadPool quad(4);
  for (const Grid& g : grids) {
    for (std::size_t n : {9u, 10u, 13u, 16u}) {
      ragged_dim = ragged_dim || pair_count(n) % 8 != 0;
      for (double C : {1.0, 2.0, 4.0}) {
        RngStream rng = RngStream(4242).substream(n, static_cast<std::uint64_t>(C));
        const Deployment nodes = random_deployment(kField, n, rng);
        // Fail two nodes, then revive them: four rebuilds from the cache.
        const NodeId a = static_cast<NodeId>(rng.uniform_index(n));
        const NodeId b = static_cast<NodeId>((a + 1 + rng.uniform_index(n - 1)) % n);
        const std::pair<NodeId, bool> steps[] = {{a, false}, {b, false}, {a, true}, {b, true}};
        std::vector<FaceMap> want;
        {
          FaceMapBuilder spec(nodes, C, kField, g.cell, solo);
          want.push_back(FaceMap::build(nodes, C, kField, g.cell, solo));
          for (const auto& [id, up] : steps) {
            if (up) spec.activate(id);
            else spec.deactivate(id);
            want.push_back(FaceMap::build(spec.active_deployment(), C, kField, g.cell, solo));
          }
        }
        const KernelEdges e = kernel_edges(want.front());
        seen.multi_block = seen.multi_block || e.multi_block;
        seen.contiguous_block = seen.contiguous_block || e.contiguous_block;
        seen.gapped_block = seen.gapped_block || e.gapped_block;
        seen.ragged_faces = seen.ragged_faces || e.ragged_faces;

        for (ThreadPool* pool : {&solo, &quad}) {
          FaceMapBuilder plain(nodes, C, kField, g.cell, *pool);
          FaceMapBuilder into(nodes, C, kField, g.cell, *pool);
          FaceMapBuilder division(nodes, C, kField, g.cell, *pool);
          FaceMapBuilder::BuildProducts products;
          Division served;
          for (std::size_t s = 0; s < want.size(); ++s) {
            if (s > 0) {
              const auto& [id, up] = steps[s - 1];
              for (FaceMapBuilder* bld : {&plain, &into, &division}) {
                if (up) bld->activate(id);
                else bld->deactivate(id);
              }
            }
            SCOPED_TRACE(testing::Message() << g.name << " n=" << n << " C=" << C << " threads="
                                            << pool->thread_count() << " step " << s);
            const FaceMap got = plain.build();
            expect_identical(got, want[s]);
            expect_table_matches(plain.take_signature_table(), want[s]);
            into.build_into(products);
            expect_identical(*products.map, want[s]);
            expect_table_matches(*products.table, want[s]);
            served = division.build_division(true, s > 0 ? &served : nullptr);
            expect_identical(*served.map, want[s]);
            expect_table_matches(*served.table, want[s]);
            if (s > 0) EXPECT_EQ(division.last_planes_rasterized(), 0u);
          }
        }
      }
    }
  }
  // The fixtures must actually reach every kernel edge they exist for.
  EXPECT_TRUE(seen.multi_block);
  EXPECT_TRUE(seen.contiguous_block);
  EXPECT_TRUE(seen.gapped_block);
  EXPECT_TRUE(seen.ragged_faces);
  EXPECT_TRUE(ragged_dim);
}

TEST(FaceMapBuilder, BuildIntoRefusesRetainedAliases) {
  // Overwriting products under a live reader would mutate shared state;
  // the use-count contract fails loudly instead.
  RngStream rng(409);
  const Deployment nodes = random_deployment(kField, 5, rng);
  FaceMapBuilder builder(nodes, 2.0, kField, kCell);
  FaceMapBuilder::BuildProducts products;
  builder.build_into(products);
  const ScopedContractHandler guard(throwing_contract_handler);
  {
    const std::shared_ptr<FaceMap> alias = products.map;
    EXPECT_THROW(builder.build_into(products), ContractError);
  }
  {
    const std::shared_ptr<SignatureTable> alias = products.table;
    EXPECT_THROW(builder.build_into(products), ContractError);
  }
  EXPECT_NO_THROW(builder.build_into(products));  // aliases gone: fine again
}

}  // namespace
}  // namespace fttt
