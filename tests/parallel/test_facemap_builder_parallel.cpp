// Concurrency coverage of the plane-major face-map engine: plane
// rasterization and the three assembly passes (trit-packing the run
// heads, emitting the SoA table rows, transposing the per-face
// signatures) all fan out over the builder's pool, so a data race would
// surface here under TSan (the tsan preset runs the tests_parallel
// label).
#include "core/facemap_builder.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/random.hpp"
#include "core/signature_table.hpp"
#include "net/deployment.hpp"

namespace fttt {
namespace {

const Aabb kField{{0.0, 0.0}, {20.0, 20.0}};
constexpr double kCell = 0.5;

void expect_same(const FaceMap& a, const FaceMap& b) {
  ASSERT_EQ(a.face_count(), b.face_count());
  for (const Face& f : b.faces()) {
    EXPECT_EQ(a.face(f.id).signature, f.signature);
    EXPECT_EQ(a.face(f.id).centroid, f.centroid);
    EXPECT_EQ(a.neighbors(f.id), b.neighbors(f.id));
  }
  for (std::size_t c = 0; c < b.grid().cell_count(); ++c)
    ASSERT_EQ(a.face_of_cell(c), b.face_of_cell(c));
}

TEST(FaceMapBuilderParallel, BitReproducibleAtAnyThreadCount) {
  RngStream rng(97);
  const Deployment nodes = random_deployment(kField, 8, rng);
  ThreadPool solo(1);
  FaceMapBuilder reference(nodes, 4.0, kField, kCell, solo);
  const FaceMap want = reference.build();
  for (std::size_t threads : {2u, 5u, 8u}) {
    ThreadPool pool(threads);
    FaceMapBuilder builder(nodes, 4.0, kField, kCell, pool);
    SCOPED_TRACE(testing::Message() << threads << " threads");
    expect_same(builder.build(), want);
  }
}

TEST(FaceMapBuilderParallel, AssemblyFanOutsBitReproducibleAtAnyThreadCount) {
  // n = 16 on a 0.25 m grid: 120 planes (three key words) and several
  // thousand run heads, so the pack, table and signature passes each
  // split into many blocks and every one of them runs on the pool. A
  // fail/revive rebuild and a build_into race the same fan-outs.
  RngStream rng(4243);
  const Deployment nodes = random_deployment(kField, 16, rng);
  constexpr double kFine = 0.25;
  constexpr NodeId kVictim = 5;
  ThreadPool solo(1);
  FaceMapBuilder reference(nodes, 2.0, kField, kFine, solo);
  const FaceMap full = reference.build();
  reference.deactivate(kVictim);
  const FaceMap degraded = reference.build();
  for (std::size_t threads : {2u, 5u, 8u}) {
    ThreadPool pool(threads);
    SCOPED_TRACE(testing::Message() << threads << " threads");
    FaceMapBuilder builder(nodes, 2.0, kField, kFine, pool);
    expect_same(builder.build(), full);
    builder.deactivate(kVictim);
    expect_same(builder.build(), degraded);
    builder.activate(kVictim);
    FaceMapBuilder::BuildProducts products;
    builder.build_into(products);
    expect_same(*products.map, full);
    const SignatureTable want(full);
    ASSERT_EQ(products.table->padded_faces(), want.padded_faces());
    for (std::size_t p = 0; p < want.dimension(); ++p)
      for (std::size_t f = 0; f < want.padded_faces(); ++f)
        ASSERT_EQ(products.table->plane(p)[f], want.plane(p)[f]) << "plane " << p << " col " << f;
  }
}

TEST(FaceMapBuilderParallel, ConcurrentBuildersShareThePool) {
  // Several builders (one per thread, each its own state) race their
  // full build + incremental rebuild on the same pool.
  RngStream rng(131);
  const Deployment nodes = random_deployment(kField, 7, rng);
  const FaceMap full = FaceMap::build(nodes, 2.0, kField, kCell);
  FaceMapBuilder degraded_ref(nodes, 2.0, kField, kCell);
  degraded_ref.deactivate(3);
  const FaceMap degraded = degraded_ref.build();

  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      FaceMapBuilder builder(nodes, 2.0, kField, kCell);
      expect_same(builder.build(), full);
      builder.deactivate(3);
      expect_same(builder.build(), degraded);
      builder.activate(3);
      expect_same(builder.build(), full);
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace
}  // namespace fttt
