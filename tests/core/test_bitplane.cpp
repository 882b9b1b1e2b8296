// The bit-plane kernel contract (docs/matching.md, "The bit-plane
// kernel"): the table's bit planes are the signatures bit-sliced, the
// builder emits exactly the planes SignatureTable derives from the spec
// map, and every basic-mode entry point — match(), match_one(),
// similarities_into(), climb() — equals ExhaustiveMatcher /
// HeuristicMatcher on every argmax field, at dimensions around a word
// boundary and on the edge vectors (all '*', all 0, a face's own
// signature). Extended-mode vectors keep the int8 kernels and, with a
// tier, the descent.
#include "core/batch_matcher.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/random.hpp"
#include "core/facemap_builder.hpp"
#include "core/matcher.hpp"
#include "core/pairs.hpp"
#include "core/similarity.hpp"
#include "net/deployment.hpp"
#include "rf/uncertainty.hpp"

namespace fttt {
namespace {

const Aabb kField{{0.0, 0.0}, {40.0, 40.0}};
const double kC = uncertainty_constant(1.0, 4.0, 6.0);

/// A face's signature with `flips` components redrawn from {-1, 0, +1}
/// and each component '*' with probability `unknown`.
SamplingVector basic_vector(const FaceMap& map, RngStream& rng, int flips, double unknown) {
  const Face& f = map.faces()[rng.uniform_index(map.face_count())];
  SamplingVector vd;
  vd.known.assign(map.dimension(), true);
  for (SigValue v : f.signature) vd.value.push_back(static_cast<double>(v));
  for (int i = 0; i < flips; ++i)
    vd.value[rng.uniform_index(vd.dimension())] =
        static_cast<double>(static_cast<int>(rng.uniform_index(3)) - 1);
  for (std::size_t c = 0; c < vd.dimension(); ++c)
    if (rng.bernoulli(unknown)) vd.known[c] = false;
  return vd;
}

SamplingVector constant_vector(const FaceMap& map, double value, bool known) {
  SamplingVector vd;
  vd.value.assign(map.dimension(), value);
  vd.known.assign(map.dimension(), known);
  return vd;
}

/// Every argmax field; faces_examined is checked by the callers that
/// know which path ran.
void expect_argmax(const MatchResult& want, const MatchResult& got, const char* what) {
  EXPECT_EQ(want.face, got.face) << what;
  EXPECT_EQ(want.similarity, got.similarity) << what;
  EXPECT_EQ(want.tied_faces, got.tied_faces) << what;
  EXPECT_EQ(want.position.x, got.position.x) << what;
  EXPECT_EQ(want.position.y, got.position.y) << what;
}

/// The vectors every map is checked on: noisy signatures (with and
/// without '*'), heavy flips, the edges, and a face's own signature with
/// and without unknowns.
std::vector<SamplingVector> contract_vectors(const FaceMap& map, std::uint64_t seed) {
  RngStream rng(seed);
  std::vector<SamplingVector> out;
  for (int i = 0; i < 6; ++i) out.push_back(basic_vector(map, rng, 3, 0.2));
  for (int i = 0; i < 3; ++i) out.push_back(basic_vector(map, rng, 0, 0.0));
  for (int i = 0; i < 3; ++i) out.push_back(basic_vector(map, rng, 0, 0.6));
  for (int i = 0; i < 3; ++i) out.push_back(basic_vector(map, rng, 40, 0.0));
  out.push_back(constant_vector(map, 0.0, false));  // all '*'
  out.push_back(constant_vector(map, 0.0, true));   // all 0
  out.push_back(constant_vector(map, 1.0, true));
  out.push_back(constant_vector(map, -1.0, true));
  return out;
}

void expect_matches_spec(const FaceMap& map, const BatchMatcher& matcher,
                         const std::vector<SamplingVector>& vectors) {
  const ExhaustiveMatcher spec;
  const HeuristicMatcher heuristic;
  const std::vector<MatchResult> batch = matcher.match(vectors);
  std::vector<double> sims(matcher.table().padded_faces());
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "vector " << i);
    const MatchResult want = spec.match(map, vectors[i]);
    const MatchResult one = matcher.match_one(vectors[i]);
    expect_argmax(want, one, "match_one");
    EXPECT_EQ(one.faces_examined, map.face_count());
    expect_argmax(want, batch[i], "match");
    EXPECT_EQ(batch[i].faces_examined, map.face_count());
    matcher.similarities_into(vectors[i], sims);
    for (const Face& f : map.faces())
      ASSERT_EQ(sims[f.id], similarity(vectors[i], f.signature)) << "face " << f.id;
    for (const FaceId start : {FaceId{0}, static_cast<FaceId>(map.face_count() / 2),
                               static_cast<FaceId>(map.face_count() - 1)}) {
      const MatchResult h = heuristic.match(map, vectors[i], start);
      const MatchResult c = matcher.climb(vectors[i], start);
      expect_argmax(h, c, "climb");
      EXPECT_EQ(h.faces_examined, c.faces_examined) << "climb from " << start;
    }
  }
}

TEST(BitPlanes, TableBitSlicesEverySignature) {
  RngStream rng(5);
  for (const std::size_t n : {11u, 12u}) {
    const FaceMap map = FaceMap::build(random_deployment(kField, n, rng), kC, kField, 1.0);
    const SignatureTable table(map);
    ASSERT_EQ(table.plane_words(), (pair_count(n) + 63) / 64);
    for (const Face& f : map.faces()) {
      const std::uint64_t* pos = table.face_bits(f.id);
      const std::uint64_t* neg = pos + table.plane_words();
      for (std::size_t c = 0; c < 64 * table.plane_words(); ++c) {
        const bool p = (pos[c / 64] >> (c % 64)) & 1;
        const bool m = (neg[c / 64] >> (c % 64)) & 1;
        const SigValue v = c < map.dimension() ? f.signature[c] : SigValue{0};
        ASSERT_EQ(p, v > 0) << "face " << f.id << " pair " << c;
        ASSERT_EQ(m, v < 0) << "face " << f.id << " pair " << c;
      }
    }
  }
}

TEST(BitPlanes, BuilderPlanesEqualDerivedOnEveryGeometry) {
  // Random, lattice and degenerate (coincident-heavy cross) rosters,
  // through a fail/revive sequence and the rebuild-into path: the
  // builder's copied key records are the planes the spec map derives.
  RngStream rng(17);
  struct Shape {
    const char* name;
    Deployment nodes;
  };
  const Shape shapes[] = {{"random", random_deployment(kField, 13, rng)},
                          {"lattice", grid_deployment(kField, 16)},
                          {"cross", cross_deployment(kField.center(), 6.0)}};
  for (const Shape& s : shapes) {
    SCOPED_TRACE(s.name);
    FaceMapBuilder builder(s.nodes, kC, kField, 1.0);
    FaceMapBuilder into(s.nodes, kC, kField, 1.0);
    FaceMapBuilder::BuildProducts products;
    const auto check = [&](const SignatureTable& got) {
      const SignatureTable want(FaceMap::build(builder.active_deployment(), kC, kField, 1.0));
      ASSERT_EQ(got.face_count(), want.face_count());
      ASSERT_EQ(got.plane_words(), want.plane_words());
      for (std::size_t f = 0; f < want.face_count(); ++f)
        for (std::size_t w = 0; w < 2 * want.plane_words(); ++w)
          ASSERT_EQ(got.face_bits(static_cast<FaceId>(f))[w],
                    want.face_bits(static_cast<FaceId>(f))[w])
              << "face " << f << " word " << w;
    };
    for (int step = 0; step < 4; ++step) {
      if (step == 1 || step == 2) {
        builder.deactivate(static_cast<NodeId>(step));
        into.deactivate(static_cast<NodeId>(step));
      } else if (step == 3) {
        builder.activate(1);
        into.activate(1);
      }
      builder.build();
      check(builder.take_signature_table());
      into.build_into(products);
      check(*products.table);
    }
  }
}

TEST(BitPlanes, MatchersEqualSpecAroundWordBoundaries) {
  // n = 11, 12, 64, 65: 55 and 66 pairs straddle the first word
  // boundary, 2016 = 31.5 words and 2080 = 32.5 words the 32nd. The big
  // rosters use a coarse grid so the spec map stays cheap to build.
  RngStream rng(29);
  struct Case {
    std::size_t n;
    double cell;
  };
  for (const Case k : {Case{11, 1.0}, Case{12, 1.0}, Case{64, 4.0}, Case{65, 4.0}}) {
    SCOPED_TRACE(testing::Message() << "n=" << k.n);
    FaceMapBuilder builder(random_deployment(kField, k.n, rng), kC, kField, k.cell);
    const auto map = std::make_shared<const FaceMap>(builder.build());
    const BatchMatcher matcher(map, builder.take_signature_table());
    ASSERT_EQ(matcher.table().dimension(), pair_count(k.n));
    expect_matches_spec(*map, matcher, contract_vectors(*map, 100 + k.n));
  }
}

TEST(BitPlanes, OwnSignatureIsDistanceZeroAndStarsTieAtInfinity) {
  RngStream rng(31);
  const auto map =
      std::make_shared<const FaceMap>(FaceMap::build(random_deployment(kField, 12, rng), kC,
                                                     kField, 1.0));
  const BatchMatcher matcher(map);
  const Face& f = map->faces()[map->face_count() / 3];
  SamplingVector own;
  own.known.assign(map->dimension(), true);
  for (SigValue v : f.signature) own.value.push_back(static_cast<double>(v));
  const MatchResult exact = matcher.match_one(own);
  EXPECT_EQ(exact.face, f.id);
  EXPECT_EQ(exact.similarity, std::numeric_limits<double>::infinity());
  EXPECT_EQ(exact.tied_faces, std::vector<FaceId>{f.id});  // Lemma 1: signatures are unique

  // Drop most components: every face agreeing on the rest ties at +inf.
  for (std::size_t c = 0; c < own.dimension(); ++c) own.known[c] = c % 9 == 0;
  const MatchResult want = ExhaustiveMatcher{}.match(*map, own);
  const MatchResult got = matcher.match_one(own);
  expect_argmax(want, got, "own signature, mostly '*'");
  EXPECT_EQ(got.similarity, std::numeric_limits<double>::infinity());
  EXPECT_GT(got.tied_faces.size(), 1u);

  const MatchResult stars = matcher.match_one(constant_vector(*map, 0.0, false));
  EXPECT_EQ(stars.tied_faces.size(), map->face_count());
  EXPECT_EQ(stars.similarity, std::numeric_limits<double>::infinity());
}

TEST(BitPlanes, KernelCountsSpecTermsAtEveryBlockEdge) {
  // Face counts straddling a 64-face block (and the 256-face scan
  // block), dimensions straddling a word: random trit signatures and
  // vectors against the spec's double sum of (v - s)^2 over known pairs.
  RngStream rng(37);
  for (const std::size_t dim : {1u, 63u, 64u, 65u, 128u, 200u}) {
    const std::size_t words = SignatureTable::words_for(dim);
    for (const std::size_t faces : {1u, 63u, 64u, 65u, 255u, 256u, 257u}) {
      std::vector<std::vector<int>> sig(faces, std::vector<int>(dim));
      std::vector<std::uint64_t> bits(faces * 2 * words, 0);
      for (std::size_t f = 0; f < faces; ++f)
        for (std::size_t c = 0; c < dim; ++c) {
          sig[f][c] = static_cast<int>(rng.uniform_index(3)) - 1;
          const std::uint64_t bit = std::uint64_t{1} << (c % 64);
          if (sig[f][c] > 0) bits[f * 2 * words + c / 64] |= bit;
          if (sig[f][c] < 0) bits[f * 2 * words + words + c / 64] |= bit;
        }
      std::vector<int> v(dim);
      std::vector<bool> known(dim);
      std::vector<std::uint64_t> code(3 * words, 0);
      for (std::size_t c = 0; c < dim; ++c) {
        v[c] = static_cast<int>(rng.uniform_index(3)) - 1;
        known[c] = !rng.bernoulli(0.25);
        if (!known[c]) continue;
        const std::uint64_t bit = std::uint64_t{1} << (c % 64);
        if (v[c] > 0) code[c / 64] |= bit;
        if (v[c] < 0) code[words + c / 64] |= bit;
        code[2 * words + c / 64] |= bit;
      }
      std::vector<std::uint32_t> dist(faces);
      detail::bit_distances(bits.data(), words, code.data(), nullptr, 0, faces, dist.data());
      std::vector<FaceId> ids;
      for (std::size_t f = faces; f-- > 0;) ids.push_back(static_cast<FaceId>(f));
      std::vector<std::uint32_t> by_id(faces);
      detail::bit_distances(bits.data(), words, code.data(), ids.data(), 0, faces, by_id.data());
      for (std::size_t f = 0; f < faces; ++f) {
        double want = 0.0;
        for (std::size_t c = 0; c < dim; ++c)
          if (known[c]) want += static_cast<double>((v[c] - sig[f][c]) * (v[c] - sig[f][c]));
        ASSERT_EQ(static_cast<double>(dist[f]), want) << "dim " << dim << " face " << f;
        ASSERT_EQ(by_id[faces - 1 - f], dist[f]) << "dim " << dim << " face " << f;
      }
    }
  }
}

TEST(BitPlanes, TiedDistanceCeilingKeepsDoubleTies) {
  // Zero distance is +inf, tied with nothing else; small distances map
  // to distinct similarities.
  EXPECT_EQ(detail::tied_distance_ceiling(0), 0u);
  for (std::uint64_t d = 1; d < 100000; d += 997) EXPECT_EQ(detail::tied_distance_ceiling(d), d);
  // Near 2^52 neighbouring integers share a similarity double: the
  // ceiling must walk to the last of them, and no further.
  std::uint64_t d = std::uint64_t{1} << 52;
  const auto sim = [](std::uint64_t x) { return 1.0 / std::sqrt(static_cast<double>(x)); };
  while (sim(d + 1) != sim(d)) ++d;
  const std::uint64_t e = detail::tied_distance_ceiling(d);
  EXPECT_GT(e, d);
  for (std::uint64_t x = d; x <= e; ++x) EXPECT_EQ(sim(x), sim(d));
  EXPECT_NE(sim(e + 1), sim(d));
}

TEST(BitPlanes, ExtendedVectorsKeepTheInt8PathAndTheDescent) {
  RngStream rng(41);
  const auto map =
      std::make_shared<const FaceMap>(FaceMap::build(random_deployment(kField, 14, rng), kC,
                                                     kField, 0.5));
  BatchMatcher tiered(map);
  tiered.build_hierarchy();
  const BatchMatcher flat(map);
  const ExhaustiveMatcher spec;
  std::vector<SamplingVector> extended;
  std::vector<SamplingVector> basic;
  for (int i = 0; i < 8; ++i) {
    SamplingVector vd = basic_vector(*map, rng, 2, 0.1);
    basic.push_back(vd);
    const std::size_t c = rng.uniform_index(vd.dimension());
    vd.value[c] = 0.5;  // a Sec. 6 (N_ij - N_ji) / k value
    vd.known[c] = true;
    extended.push_back(vd);
  }
  const std::vector<MatchResult> batch = tiered.match(extended);
  const std::vector<MatchResult> flat_batch = flat.match(extended);
  bool pruned = false;
  for (std::size_t i = 0; i < extended.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "vector " << i);
    const MatchResult want = spec.match(*map, extended[i]);
    const MatchResult descended = tiered.descend(extended[i]);
    // With a tier, an extended vector descends: match_one and the batch
    // count exactly the faces the descent rescored.
    const MatchResult one = tiered.match_one(extended[i]);
    expect_argmax(want, one, "tiered match_one");
    EXPECT_EQ(one.faces_examined, descended.faces_examined);
    expect_argmax(want, batch[i], "tiered match");
    EXPECT_EQ(batch[i].faces_examined, descended.faces_examined);
    pruned = pruned || descended.faces_examined < map->face_count();
    // Without one it takes the int8 scan: the spec, field for field.
    EXPECT_EQ(flat.match_one(extended[i]).faces_examined, map->face_count());
    expect_argmax(want, flat_batch[i], "flat match");
    expect_argmax(want, flat.match_one(extended[i]), "flat match_one");
    // A basic-mode vector skips the tier even when one is attached.
    EXPECT_EQ(tiered.match_one(basic[i]).faces_examined, map->face_count());
    expect_argmax(spec.match(*map, basic[i]), tiered.match_one(basic[i]), "tiered basic");
  }
  EXPECT_TRUE(pruned) << "no extended vector pruned: the routing check shows nothing";
}

}  // namespace
}  // namespace fttt
