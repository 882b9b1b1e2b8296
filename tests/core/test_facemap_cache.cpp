#include "core/facemap_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "core/facemap.hpp"
#include "core/signature_table.hpp"
#include "net/deployment.hpp"

namespace fttt {
namespace {

const Aabb kField{{0.0, 0.0}, {20.0, 20.0}};

Deployment four_nodes() {
  return Deployment{{0, {5.0, 5.0}}, {1, {15.0, 5.0}}, {2, {5.0, 15.0}}, {3, {15.0, 15.0}}};
}

TEST(FaceMapCache, HitSharesTheEntry) {
  FaceMapCache cache;
  const FaceMapCache::Entry a = cache.get_or_build(four_nodes(), 1.2, kField, 1.0);
  const FaceMapCache::Entry b = cache.get_or_build(four_nodes(), 1.2, kField, 1.0);
  EXPECT_EQ(a.map.get(), b.map.get());
  EXPECT_EQ(a.table.get(), b.table.get());
  const FaceMapCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(FaceMapCache, EntryMatchesDirectBuild) {
  FaceMapCache cache;
  const FaceMapCache::Entry e = cache.get_or_build(four_nodes(), 1.2, kField, 1.0);
  const FaceMap direct = FaceMap::build(four_nodes(), 1.2, kField, 1.0);
  ASSERT_TRUE(e.map);
  ASSERT_TRUE(e.table);
  EXPECT_EQ(e.map->face_count(), direct.face_count());
  EXPECT_EQ(e.table->face_count(), direct.face_count());
  for (std::size_t f = 0; f < direct.face_count(); ++f) {
    EXPECT_EQ(e.map->face(static_cast<FaceId>(f)).centroid.x,
              direct.face(static_cast<FaceId>(f)).centroid.x);
    EXPECT_EQ(e.map->face(static_cast<FaceId>(f)).centroid.y,
              direct.face(static_cast<FaceId>(f)).centroid.y);
  }
}

TEST(FaceMapCache, ContentKeyDiscriminates) {
  FaceMapCache cache;
  const FaceMapCache::Entry a = cache.get_or_build(four_nodes(), 1.2, kField, 1.0);
  // Different C.
  const FaceMapCache::Entry b = cache.get_or_build(four_nodes(), 1.0, kField, 1.0);
  // Different grid cell.
  const FaceMapCache::Entry c = cache.get_or_build(four_nodes(), 1.2, kField, 2.0);
  // One node moved.
  Deployment moved = four_nodes();
  moved[0].position.x += 0.5;
  const FaceMapCache::Entry d = cache.get_or_build(moved, 1.2, kField, 1.0);
  EXPECT_NE(a.map.get(), b.map.get());
  EXPECT_NE(a.map.get(), c.map.get());
  EXPECT_NE(a.map.get(), d.map.get());
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(FaceMapCache, FifoEvictionIsBounded) {
  FaceMapCache cache(2);
  const FaceMapCache::Entry a = cache.get_or_build(four_nodes(), 1.1, kField, 1.0);
  cache.get_or_build(four_nodes(), 1.2, kField, 1.0);
  cache.get_or_build(four_nodes(), 1.3, kField, 1.0);  // evicts the 1.1 entry
  FaceMapCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  // The evicted shared_ptr stays valid; re-requesting the key rebuilds.
  EXPECT_GT(a.map->face_count(), 0u);
  cache.get_or_build(four_nodes(), 1.1, kField, 1.0);
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(FaceMapCache, ClearForgetsButKeepsSharedPtrsAlive) {
  FaceMapCache cache;
  const FaceMapCache::Entry a = cache.get_or_build(four_nodes(), 1.2, kField, 1.0);
  cache.clear();
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_GT(a.map->face_count(), 0u);
  const FaceMapCache::Entry b = cache.get_or_build(four_nodes(), 1.2, kField, 1.0);
  EXPECT_NE(a.map.get(), b.map.get());
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(FaceMapCache, FailedBuildIsNotCached) {
  FaceMapCache cache;
  const Deployment lone{{0, {5.0, 5.0}}};  // < 2 nodes: FaceMap::build rejects
  EXPECT_THROW(cache.get_or_build(lone, 1.2, kField, 1.0), std::invalid_argument);
  EXPECT_THROW(cache.get_or_build(lone, 1.2, kField, 1.0), std::invalid_argument);
  const FaceMapCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);  // second lookup retried, no poisoned hit
  EXPECT_EQ(stats.builds, 0u);
  EXPECT_EQ(stats.size, 0u);
}

TEST(FaceMapCache, BytesTrackResidentEntries) {
  FaceMapCache cache(2);
  const FaceMapCache::Entry a = cache.get_or_build(four_nodes(), 1.1, kField, 1.0);
  const std::size_t one_entry = cache.stats().bytes;
  const std::size_t expected = a.map->bytes() + a.table->bytes() + a.hier->bytes() +
                               a.index->bytes();
  EXPECT_EQ(one_entry, expected);
  EXPECT_GT(one_entry, 0u);
  // The table's bytes are its int8 planes plus its bit planes.
  const SignatureTable& t = *a.table;
  EXPECT_EQ(t.bytes(), t.dimension() * t.padded_faces() * sizeof(SigValue) +
                           t.face_count() * 2 * t.plane_words() * sizeof(std::uint64_t));
  EXPECT_EQ(t.plane_words(), SignatureTable::words_for(t.dimension()));

  // A hit adds nothing; a second entry adds its own payload.
  cache.get_or_build(four_nodes(), 1.1, kField, 1.0);
  EXPECT_EQ(cache.stats().bytes, one_entry);
  cache.get_or_build(four_nodes(), 1.2, kField, 1.0);
  const std::size_t two_entries = cache.stats().bytes;
  EXPECT_GT(two_entries, one_entry);

  // FIFO eviction releases the oldest entry's bytes even while the
  // caller's shared_ptrs keep it alive, and clear() releases the rest.
  const FaceMapCache::Entry c = cache.get_or_build(four_nodes(), 1.3, kField, 1.0);
  const std::size_t c_bytes = c.map->bytes() + c.table->bytes() + c.hier->bytes() +
                              c.index->bytes();
  const FaceMapCache::Stats evicted = cache.stats();
  EXPECT_EQ(evicted.evictions, 1u);
  EXPECT_EQ(evicted.bytes, two_entries - one_entry + c_bytes);
  EXPECT_GT(a.map->face_count(), 0u);
  cache.clear();
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(FaceMapCache, HitRateGaugeValue) {
  FaceMapCache cache;
  EXPECT_EQ(cache.stats().hit_rate(), 1.0);  // no lookups yet
  cache.get_or_build(four_nodes(), 1.2, kField, 1.0);
  EXPECT_EQ(cache.stats().hit_rate(), 0.0);  // 0 hits / 1 lookup
  cache.get_or_build(four_nodes(), 1.2, kField, 1.0);
  EXPECT_EQ(cache.stats().hit_rate(), 0.5);  // 1 hit / 2 lookups
  cache.get_or_build(four_nodes(), 1.2, kField, 1.0);
  cache.get_or_build(four_nodes(), 1.2, kField, 1.0);
  EXPECT_EQ(cache.stats().hit_rate(), 0.75);
}

TEST(FaceMapCache, ZeroCapacityThrows) {
  EXPECT_THROW(FaceMapCache(0), std::invalid_argument);
}

TEST(FaceMapCache, GlobalIsOneInstance) {
  EXPECT_EQ(&FaceMapCache::global(), &FaceMapCache::global());
}

}  // namespace
}  // namespace fttt
