#include "core/batch_matcher.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"
#include "core/hier_facemap.hpp"
#include "core/signature_index.hpp"
#include "core/similarity.hpp"
#include "obs/obs.hpp"

namespace fttt {

namespace {

const FaceMap& require_map(const std::shared_ptr<const FaceMap>& map) {
  if (!map) throw std::invalid_argument("BatchMatcher: null face map");
  return *map;
}

// Function multi-versioning for the hot kernels. The release build targets
// baseline x86-64 (SSE2); the loader's ifunc resolver picks the widest
// clone the CPU supports. The double kernels are pure element-wise math,
// so every clone is bit-identical to the default one: IEEE subtract,
// multiply, add, sqrt and divide are correctly rounded in every lane, and
// this TU compiles with -ffp-contract=off (see core/CMakeLists.txt) so no
// clone fuses d*d + acc into an FMA. The integral descent kernels sum
// exact small integers in 8- and 16-bit lanes, which AVX-512F alone
// lacks (those ops are AVX-512BW): the wide clone is x86-64-v4 (AVX-512
// F/BW/CD/DQ/VL). The bit-plane kernel counts bits, which baseline
// x86-64 does in a dozen instructions per word: the popcnt clone gives
// pre-AVX2 hosts the one-instruction count (avx2 implies it). Integer
// counts are exact in every clone.
//
// The vector count (AVX-512 VPOPCNTDQ) cannot join the list: GCC 12's
// dispatcher rejects that ISA ("use arch= syntax"), and an arch= CPU
// name dispatches on the CPU model, which a virtualized Xeon does not
// report. So the bit kernel alone gets one more version, compiled for
// x86-64-v4 plus VPOPCNTDQ, and picked by a feature test on first use.
//
// TSan is incompatible with ifunc dispatch (the resolver runs before the
// sanitizer runtime is initialized and segfaults at load), so thread-
// sanitized builds keep the single baseline version.
#if defined(__SANITIZE_THREAD__)
#define FTTT_NO_VECTOR_CLONES 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FTTT_NO_VECTOR_CLONES 1
#endif
#endif
#if defined(__x86_64__) && defined(__gnu_linux__) && \
    defined(__has_attribute) && !defined(FTTT_NO_VECTOR_CLONES)
#if __has_attribute(target_clones)
#define FTTT_VECTOR_CLONES \
  __attribute__((target_clones("default", "popcnt", "avx2", "arch=x86-64-v4")))
#define FTTT_HAS_VECTOR_CLONES 1
#endif
#endif
#ifndef FTTT_VECTOR_CLONES
#define FTTT_VECTOR_CLONES
#define FTTT_HAS_VECTOR_CLONES 0
#endif

/// acc[f] += (v - p[f])^2 over one plane segment. `__restrict` holds by
/// construction: `acc` is per-call scratch, `p` the immutable table.
FTTT_VECTOR_CLONES
void accumulate_plane(double* __restrict acc, const SigValue* __restrict p,
                      double v, std::size_t len) {
  for (std::size_t f = 0; f < len; ++f) {
    const double d = v - static_cast<double>(p[f]);
    acc[f] += d * d;
  }
}

/// In-place acc[f] -> similarity_from_distance(sqrt(acc[f])). Bit-identical
/// to the scalar transform: acc is a sum of squares, so sqrt(acc) is +0 or
/// positive, and 1.0 / +0 == +inf is exactly what similarity_from_distance
/// returns for a zero distance; for positive distances the expressions
/// agree literally.
FTTT_VECTOR_CLONES
void similarity_in_place(double* __restrict acc, std::size_t len) {
  for (std::size_t f = 0; f < len; ++f) acc[f] = 1.0 / std::sqrt(acc[f]);
}

using detail::kIntFlushPlanes;
using detail::kIntLanes;
static_assert(HierFaceMap::kTileFaces == kIntLanes && HierFaceMap::kFanout == kIntLanes,
              "one integral kernel width serves tiles and child expansions");

/// Integral component code: v + 1 for a known v in {-1, 0, +1} (the
/// kIntMinTerm row), kUnknownCode for '*'.
constexpr std::uint8_t kUnknownCode = 3;

/// acc[f] = similarity_from_distance(sqrt(d2[f])) for exact integer
/// squared distances: the very doubles the spec's sum of 0/1/4 terms
/// reaches (similarity_in_place's argument covers the zero distance).
FTTT_VECTOR_CLONES
void similarity_from_squares(double* __restrict acc, const std::uint32_t* __restrict d2,
                             std::size_t len) {
  for (std::size_t f = 0; f < len; ++f) acc[f] = 1.0 / std::sqrt(static_cast<double>(d2[f]));
}

/// Faces per block of the bit scan: similarities_into stages one block
/// of distances at a time.
constexpr std::size_t kBitBlock = 256;

/// Exact squared distance of one face record (`fp`: words positive bit
/// words, then words negative ones) to an encoded vector: a pair adds 1
/// where the components differ and the vector's is known, and 3 more
/// where they are opposite (both known and nonzero) — the spec's 0/1/4
/// terms, with '*' pairs dropped by the known mask.
[[gnu::always_inline]] inline std::uint32_t bit_distance(const std::uint64_t* __restrict fp,
                                                         const std::uint64_t* __restrict code,
                                                         std::size_t words) {
  const std::uint64_t* fn = fp + words;
  const std::uint64_t* vp = code;
  const std::uint64_t* vn = code + words;
  const std::uint64_t* vk = code + 2 * words;
  std::uint32_t differ = 0;
  std::uint32_t opposite = 0;
  for (std::size_t w = 0; w < words; ++w) {
    differ += static_cast<std::uint32_t>(
        std::popcount(((vp[w] ^ fp[w]) | (vn[w] ^ fn[w])) & vk[w]));
    opposite += static_cast<std::uint32_t>(std::popcount((vp[w] & fn[w]) | (vn[w] & fp[w])));
  }
  return differ + 3 * opposite;
}

[[gnu::always_inline]] inline void bit_distances_body(
    const std::uint64_t* __restrict bits, std::size_t words,
    const std::uint64_t* __restrict code, const FaceId* __restrict ids, std::size_t first,
    std::size_t count, std::uint32_t* __restrict dist) {
  const std::size_t stride = 2 * words;
  if (ids) {
    for (std::size_t i = 0; i < count; ++i)
      dist[i] = bit_distance(bits + static_cast<std::size_t>(ids[i]) * stride, code, words);
    return;
  }
  for (std::size_t i = 0; i < count; ++i)
    dist[i] = bit_distance(bits + (first + i) * stride, code, words);
}

FTTT_VECTOR_CLONES
void bit_distances_cloned(const std::uint64_t* bits, std::size_t words,
                          const std::uint64_t* code, const FaceId* ids, std::size_t first,
                          std::size_t count, std::uint32_t* dist) {
  bit_distances_body(bits, words, code, ids, first, count, dist);
}

#if FTTT_HAS_VECTOR_CLONES
/// Below this many words per half the vector count loses to the scalar
/// one (its loop prologue outweighs a face's few words; measured at
/// n = 10, one word).
constexpr std::size_t kVpopcntMinWords = 4;

__attribute__((target("arch=x86-64-v4,avx512vpopcntdq")))
void bit_distances_vpopcnt(const std::uint64_t* bits, std::size_t words,
                           const std::uint64_t* code, const FaceId* ids, std::size_t first,
                           std::size_t count, std::uint32_t* dist) {
  bit_distances_body(bits, words, code, ids, first, count, dist);
}

bool has_vpopcnt() {
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512vpopcntdq") != 0;
  }();
  return yes;
}
#endif

/// Faces of level-0 tile `tile` (the last tile may be partial).
std::size_t tile_width(std::size_t faces, std::uint32_t tile) {
  const std::size_t f0 = static_cast<std::size_t>(tile) * HierFaceMap::kTileFaces;
  return std::min(faces, f0 + HierFaceMap::kTileFaces) - f0;
}

}  // namespace

namespace detail {

FTTT_VECTOR_CLONES
void add_square_terms(const SigValue* const* planes, const std::uint8_t* codes,
                      std::size_t count, std::uint32_t* __restrict acc) {
  for (std::size_t i0 = 0; i0 < count; i0 += kIntFlushPlanes) {
    const std::size_t i1 = std::min(count, i0 + kIntFlushPlanes);
    // A fixed-width local accumulator in 16-bit arithmetic: the compiler
    // keeps it in vector registers across the plane loop (nothing aliases
    // it) and multiplies in 16-bit lanes. The full unroll of the lane loop
    // keeps -O3's unroll-and-jam of the plane loop from scalarizing it.
    std::array<std::uint16_t, kIntLanes> sum{};
    for (std::size_t i = i0; i < i1; ++i) {
      const SigValue* p = planes[i];
      const auto v = static_cast<std::int16_t>(codes[i] - 1);
#pragma GCC unroll 64
      for (std::size_t k = 0; k < kIntLanes; ++k) {
        const auto d = static_cast<std::int16_t>(v - p[k]);
        sum[k] = static_cast<std::uint16_t>(sum[k] + static_cast<std::uint16_t>(d * d));
      }
    }
    for (std::size_t k = 0; k < kIntLanes; ++k) acc[k] += sum[k];
  }
}

#if defined(__GNUC__) && !defined(__clang__)
namespace {
using Bytes16 = std::uint8_t __attribute__((vector_size(16)));
using Words16 = std::uint16_t __attribute__((vector_size(32)));

/// kIntMinTerm rows as byte vectors (a term is at most 4): one in-register
/// byte shuffle looks up 16 lanes' terms at once.
const std::array<Bytes16, 3> kMinTermRows = [] {
  std::array<Bytes16, 3> rows{};
  for (std::size_t code = 0; code < rows.size(); ++code)
    for (std::size_t m = 0; m < 8; ++m)
      rows[code][m] = static_cast<std::uint8_t>(HierFaceMap::kIntMinTerm[code][m]);
  return rows;
}();
}  // namespace

FTTT_VECTOR_CLONES
void add_min_terms(const std::uint8_t* const* masks, const std::uint8_t* codes,
                   std::size_t count, std::uint32_t* __restrict acc) {
  constexpr std::size_t kQuads = kIntLanes / 16;
  for (std::size_t i0 = 0; i0 < count; i0 += kIntFlushPlanes) {
    const std::size_t i1 = std::min(count, i0 + kIntFlushPlanes);
    std::array<Words16, kQuads> sum{};
    for (std::size_t i = i0; i < i1; ++i) {
      const Bytes16 row = kMinTermRows[codes[i]];
      for (std::size_t q = 0; q < kQuads; ++q) {
        Bytes16 m;
        std::memcpy(&m, masks[i] + 16 * q, sizeof m);
        sum[q] += __builtin_convertvector(__builtin_shuffle(row, m), Words16);
      }
    }
    for (std::size_t q = 0; q < kQuads; ++q)
      for (std::size_t k = 0; k < 16; ++k) acc[16 * q + k] += sum[q][k];
  }
}
#else
void add_min_terms(const std::uint8_t* const* masks, const std::uint8_t* codes,
                   std::size_t count, std::uint32_t* __restrict acc) {
  // Portable form of the byte-shuffle kernel above: the same lookups,
  // summed straight into the 32-bit lanes.
  for (std::size_t i = 0; i < count; ++i)
    for (std::size_t k = 0; k < kIntLanes; ++k)
      acc[k] += HierFaceMap::kIntMinTerm[codes[i]][masks[i][k]];
}
#endif

std::uint64_t tied_distance_ceiling(std::uint64_t d) {
  FTTT_DCHECK(d < (std::uint64_t{1} << 53), "distance ", d, " is not exact in a double");
  const double s = 1.0 / std::sqrt(static_cast<double>(d));
  std::uint64_t e = d;
  while (1.0 / std::sqrt(static_cast<double>(e + 1)) == s) ++e;
  return e;
}

void bit_distances(const std::uint64_t* bits, std::size_t words, const std::uint64_t* code,
                   const FaceId* ids, std::size_t first, std::size_t count,
                   std::uint32_t* dist) {
#if FTTT_HAS_VECTOR_CLONES
  if (words >= kVpopcntMinWords && has_vpopcnt()) {
    bit_distances_vpopcnt(bits, words, code, ids, first, count, dist);
    return;
  }
#endif
  bit_distances_cloned(bits, words, code, ids, first, count, dist);
}

}  // namespace detail

/// Reusable per-worker state of one descent: the best-first frontier,
/// child-bound staging, the rescored tiles and their similarity rows, and
/// one expansion's integral staging. Kept out of the header so
/// HierFaceMap stays a forward declaration there.
struct BatchMatcher::DescentScratch {
  struct Node {
    double bound;         ///< conservative lower bound on distance^2
    std::uint32_t level;  ///< pyramid level (0 = tile)
    std::uint32_t id;     ///< node id within the level
  };

  std::vector<Node> heap;
  std::vector<double> bounds;  ///< child bounds of one expansion
  /// The tiles to rescore: the seed first, then the candidates in pop
  /// order. rows holds kIntLanes similarities per tile, in that order;
  /// order is the tiles' ascending-id permutation for the selection.
  std::vector<Node> tiles;
  std::vector<double> rows;
  std::vector<std::uint32_t> order;
  std::array<std::uint32_t, kIntLanes> acc32;
  /// Integral path: each component's code (v + 1, or kUnknownCode for
  /// '*'), built once per vector, and one expansion's live planes — the
  /// known planes among the node's mixed/varying ones, with their codes.
  std::vector<std::uint8_t> code;
  std::vector<const SigValue*> live_planes;
  std::vector<const std::uint8_t*> live_masks;
  std::vector<std::uint8_t> live_codes;

  /// One integral expansion of node `nd`: hand each known plane among
  /// `planes` to `live` (which stages its row for a kernel), stage its
  /// code, and return nd.bound minus those planes' node minima — the
  /// kIntMinTerm entries HierFaceMap's bound kernel summed into it. On
  /// every other plane each covered face (or child) pays exactly the
  /// node's minimum, so what remains is their exact shared base.
  template <typename Live>
  std::uint32_t collect(const HierFaceMap& hier, const std::uint8_t* codes,
                        std::span<const std::uint32_t> planes, const Node& nd,
                        Live&& live) {
    auto base = static_cast<std::uint32_t>(nd.bound);
    FTTT_DCHECK(static_cast<double>(base) == nd.bound,
                "integral node bound is not integer: ", nd.bound);
    live_codes.clear();
    for (const std::uint32_t c : planes) {
      const std::uint8_t code_c = codes[c];
      if (code_c == kUnknownCode) continue;
      base -= HierFaceMap::kIntMinTerm[code_c][hier.mask(nd.level, c, nd.id)];
      live_codes.push_back(code_c);
      live(c);
    }
    return base;
  }
};

/// Per-worker state of one localization, whichever kernel it takes: the
/// bit scan's distances, the int8 scan's accumulators, or a descent.
struct BatchMatcher::Scratch {
  std::vector<std::uint64_t> code;
  std::vector<std::uint32_t> dist;
  std::vector<double> acc;
  DescentScratch descent;
};

BatchMatcher::Scratch& BatchMatcher::thread_scratch() {
  thread_local Scratch s;
  return s;
}

namespace {

/// Chunk claims of one pool fan-out. Every participant — helper tasks
/// and the caller — claims chunk indices from `next` and counts finished
/// ones in `done`; the caller's wait() orders every claimed chunk's
/// writes before it returns. Helper tasks may outlive the call (they
/// exit as soon as every chunk is claimed), so the owning state is
/// reference-counted and touches caller-owned data only inside a claim.
struct Claims {
  std::size_t chunks{0};
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};

  template <typename Body>
  void run(Body&& body) {
    for (;;) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      body(c);
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) done.notify_all();
    }
  }

  void wait() {
    std::size_t d = done.load(std::memory_order_acquire);
    while (d < chunks) {
      done.wait(d, std::memory_order_acquire);
      d = done.load(std::memory_order_acquire);
    }
    // Each chunk is claimed once and completes once; a chunk run twice
    // would count past `chunks` before the caller got here.
    FTTT_DCHECK(d == chunks, "fan-out completed ", d, " chunk runs for ", chunks, " chunks");
  }
};

/// Submit `helpers` tasks that run state->run(slot), slot 0 .. helpers-1,
/// in one bulk submission, take part with the last slot, and wait for
/// every chunk. A rejected submission (pool concurrently shut down) is
/// harmless: the caller then claims every chunk itself.
template <typename State>
void fan_out(ThreadPool& pool, const std::shared_ptr<State>& state, std::size_t helpers) {
  (void)pool.submit_range(helpers, [state](std::size_t slot) { state->run(slot); });
  state->run(helpers);
  state->claims.wait();
}

void publish_kernel_gauges() {
  FTTT_OBS_GAUGE_SET("matcher.kernel.clones", FTTT_HAS_VECTOR_CLONES);
#if FTTT_HAS_VECTOR_CLONES
  FTTT_OBS_GAUGE_SET("matcher.kernel.vpopcnt", has_vpopcnt() ? 1 : 0);
#else
  FTTT_OBS_GAUGE_SET("matcher.kernel.vpopcnt", 0);
#endif
}

}  // namespace

BatchMatcher::BatchMatcher(std::shared_ptr<const FaceMap> map, Config config,
                           ThreadPool& pool)
    : map_(std::move(map)), config_(config), pool_(&pool),
      table_(std::make_shared<const SignatureTable>(require_map(map_))) {
  FTTT_CHECK(config_.face_block > 0 && config_.min_cells_per_helper > 0,
             "BatchMatcher: zero face_block or min_cells_per_helper");
  publish_kernel_gauges();
}

BatchMatcher::BatchMatcher(std::shared_ptr<const FaceMap> map, SignatureTable table,
                           Config config, ThreadPool& pool)
    : map_(std::move(map)), config_(config), pool_(&pool),
      table_(std::make_shared<const SignatureTable>(std::move(table))) {
  const FaceMap& m = require_map(map_);
  if (table_->face_count() != m.face_count() || table_->dimension() != m.dimension())
    throw std::invalid_argument("BatchMatcher: signature table does not match map");
  FTTT_CHECK(config_.face_block > 0 && config_.min_cells_per_helper > 0,
             "BatchMatcher: zero face_block or min_cells_per_helper");
  publish_kernel_gauges();
}

BatchMatcher::BatchMatcher(std::shared_ptr<const FaceMap> map,
                           std::shared_ptr<const SignatureTable> table, Config config,
                           ThreadPool& pool)
    : map_(std::move(map)), config_(config), pool_(&pool), table_(std::move(table)) {
  const FaceMap& m = require_map(map_);
  if (!table_) throw std::invalid_argument("BatchMatcher: null signature table");
  if (table_->face_count() != m.face_count() || table_->dimension() != m.dimension())
    throw std::invalid_argument("BatchMatcher: signature table does not match map");
  FTTT_CHECK(config_.face_block > 0 && config_.min_cells_per_helper > 0,
             "BatchMatcher: zero face_block or min_cells_per_helper");
  publish_kernel_gauges();
}

void BatchMatcher::match_into(const SamplingVector& vd, double* acc,
                              MatchResult& out) const {
  FTTT_DCHECK(vd.dimension() == table_->dimension(),
              "sampling vector dimension ", vd.dimension(),
              " != face-map dimension ", table_->dimension());
  const std::size_t faces = table_->face_count();
  similarities_unchecked(vd, acc);

  // Selection yields exactly what ExhaustiveMatcher::match's running
  // compare chain yields — the chain computes max similarity with ties in
  // ascending face order — restructured into a vectorizable transform pass
  // followed by a max scan and a tie sweep over the same values.
  double best = -1.0;
  for (std::size_t f = 0; f < faces; ++f)
    if (acc[f] > best) best = acc[f];
  out = MatchResult{};
  out.similarity = best;
  out.faces_examined = faces;
  for (std::size_t f = 0; f < faces; ++f)
    if (acc[f] == best) out.tied_faces.push_back(static_cast<FaceId>(f));
  detail::finalize_match(*map_, out);
}

void BatchMatcher::similarities_unchecked(const SamplingVector& vd, double* acc) const {
  const std::size_t padded = table_->padded_faces();
  const std::size_t dim = table_->dimension();
  FTTT_OBS_COUNT("matcher.planes.skipped", vd.unknown_count());
  std::fill(acc, acc + padded, 0.0);

  // Blocked plane-major accumulation: per column block (acc slice + one
  // plane segment L1-resident), stream every known plane. Within a face,
  // squared terms add in ascending pair order — the exact floating-point
  // operation sequence of the scalar vector_distance — so the equivalence
  // contract holds to the bit. The kernel vectorizes across faces, which
  // never reassociates a single face's sum.
  for (std::size_t lo = 0; lo < padded; lo += config_.face_block) {
    const std::size_t len = std::min(config_.face_block, padded - lo);
    for (std::size_t c = 0; c < dim; ++c) {
      if (!vd.known[c]) continue;  // Eq. 7 '*': skip the whole plane
      accumulate_plane(acc + lo, table_->plane(c) + lo, vd.value[c], len);
    }
  }
  // The in-place transform covers the padded width so similarities_into
  // callers and the match selection share one kernel; pad slots transform
  // garbage accumulator values and are never read.
  similarity_in_place(acc, table_->padded_faces());
}

void BatchMatcher::similarities_into(const SamplingVector& vd, std::span<double> out) const {
  require_dimension(vd);
  if (out.size() < table_->padded_faces())
    throw std::invalid_argument("BatchMatcher::similarities_into: output too small");
  const std::size_t words = table_->plane_words();
  std::vector<std::uint64_t>& code = thread_scratch().code;
  code.resize(3 * words);
  if (!encode_bits(vd, code.data())) {
    similarities_unchecked(vd, out.data());
    return;
  }
  FTTT_OBS_COUNT("matcher.planes.skipped", vd.unknown_count());
  // One block of exact distances at a time, transformed straight into
  // the caller's row.
  const std::size_t faces = table_->face_count();
  std::array<std::uint32_t, kBitBlock> d2;
  for (std::size_t f0 = 0; f0 < faces; f0 += kBitBlock) {
    const std::size_t n = std::min(kBitBlock, faces - f0);
    detail::bit_distances(table_->face_bits(0), words, code.data(), nullptr, f0, n, d2.data());
    similarity_from_squares(out.data() + f0, d2.data(), n);
  }
}

MatchResult BatchMatcher::select_from(std::span<const double> scores) const {
  const std::size_t faces = table_->face_count();
  if (scores.size() < faces)
    throw std::invalid_argument("BatchMatcher::select_from: scores span too small");
  // The selection sequence of match_into, verbatim, over caller-supplied
  // similarities.
  double best = -1.0;
  for (std::size_t f = 0; f < faces; ++f)
    if (scores[f] > best) best = scores[f];
  MatchResult out;
  out.similarity = best;
  out.faces_examined = faces;
  for (std::size_t f = 0; f < faces; ++f)
    if (scores[f] == best) out.tied_faces.push_back(static_cast<FaceId>(f));
  detail::finalize_match(*map_, out);
  return out;
}

void BatchMatcher::require_dimension(const SamplingVector& vd) const {
  // Public-API guard kept in release builds, mirroring the scalar path
  // (vector_distance throws the same type); the per-vector hot loop in
  // match_into keeps only a DCHECK.
  if (vd.dimension() != table_->dimension())
    throw std::invalid_argument("BatchMatcher: sampling vector dimension mismatch");
}

bool BatchMatcher::encode_bits(const SamplingVector& vd, std::uint64_t* code) const {
  const std::size_t words = table_->plane_words();
  std::uint64_t* pos = code;
  std::uint64_t* neg = code + words;
  std::uint64_t* known = code + 2 * words;
  std::fill(code, code + 3 * words, std::uint64_t{0});
  for (std::size_t c = 0; c < table_->dimension(); ++c) {
    if (!vd.known[c]) continue;
    const double v = vd.value[c];
    const std::size_t w = c / SignatureTable::kPairsPerWord;
    const std::uint64_t bit = std::uint64_t{1} << (c % SignatureTable::kPairsPerWord);
    if (v == 1.0)
      pos[w] |= bit;
    else if (v == -1.0)
      neg[w] |= bit;
    else if (v != 0.0)
      return false;
    known[w] |= bit;
  }
  return true;
}

void BatchMatcher::select_bits(const std::uint32_t* dist, MatchResult& out) const {
  // The spec's chain keeps the maximum similarity and every face equal
  // to it. Similarity falls monotonically with the integer distance, so
  // the maximum is the minimum distance's, and the faces equal to it are
  // exactly those whose distance lies in [min, tied_distance_ceiling(min)].
  const std::size_t faces = table_->face_count();
  std::uint32_t least = dist[0];
  for (std::size_t f = 1; f < faces; ++f) least = std::min(least, dist[f]);
  const std::uint64_t ceiling = detail::tied_distance_ceiling(least);
  out = MatchResult{};
  out.similarity = 1.0 / std::sqrt(static_cast<double>(least));
  out.faces_examined = faces;
  for (std::size_t f = 0; f < faces; ++f)
    if (dist[f] <= ceiling) out.tied_faces.push_back(static_cast<FaceId>(f));
  detail::finalize_match(*map_, out);
}

void BatchMatcher::localize_into(const SamplingVector& vd, const std::uint64_t* code,
                                 Scratch& s, MatchResult& out, bool may_fan_out) const {
  if (code) {
    FTTT_OBS_COUNT("matcher.planes.skipped", vd.unknown_count());
    s.dist.resize(table_->face_count());
    detail::bit_distances(table_->face_bits(0), table_->plane_words(), code, nullptr, 0,
                          table_->face_count(), s.dist.data());
    select_bits(s.dist.data(), out);
  } else if (hier_) {
    descend_into(vd, s.descent, out, may_fan_out);
  } else {
    s.acc.resize(table_->padded_faces());
    match_into(vd, s.acc.data(), out);
  }
}

MatchResult BatchMatcher::match_one(const SamplingVector& vd) const {
  require_dimension(vd);
  Scratch& s = thread_scratch();
  s.code.resize(3 * table_->plane_words());
  const bool basic = encode_bits(vd, s.code.data());
  if (!basic && hier_) return descend(vd);
  FTTT_OBS_SPAN("matcher.match_one");
  MatchResult r;
  localize_into(vd, basic ? s.code.data() : nullptr, s, r, /*may_fan_out=*/true);
  return r;
}

void BatchMatcher::build_hierarchy() {
  if (hier_) return;
  auto hier = std::make_shared<const HierFaceMap>(HierFaceMap::build(*table_, *pool_));
  auto index = std::make_shared<const SignatureIndex>(SignatureIndex::build(*hier, *pool_));
  hier_ = std::move(hier);
  index_ = std::move(index);
}

void BatchMatcher::attach_hierarchy(std::shared_ptr<const HierFaceMap> hier,
                                    std::shared_ptr<const SignatureIndex> index) {
  if (!hier || !index)
    throw std::invalid_argument("BatchMatcher::attach_hierarchy: null tier");
  if (hier->face_count() != table_->face_count() ||
      hier->dimension() != table_->dimension())
    throw std::invalid_argument(
        "BatchMatcher::attach_hierarchy: hierarchy does not match table");
  if (index->tile_count() != hier->node_count(0) ||
      index->dimension() != hier->dimension() ||
      index->level_count() != hier->level_count())
    throw std::invalid_argument(
        "BatchMatcher::attach_hierarchy: index does not match hierarchy");
  hier_ = std::move(hier);
  index_ = std::move(index);
}

MatchResult BatchMatcher::descend(const SamplingVector& vd) const {
  if (!hier_)
    throw std::logic_error("BatchMatcher::descend: no hierarchy — build_hierarchy() first");
  FTTT_OBS_SPAN("matcher.index.descend");
  require_dimension(vd);
  DescentScratch ds;
  MatchResult r;
  descend_into(vd, ds, r, /*may_fan_out=*/true);
  return r;
}

void BatchMatcher::rescore_tile(const SamplingVector& vd, const std::uint8_t* code,
                                std::uint32_t tile, double bound, DescentScratch& stage,
                                double* row) const {
  const std::size_t f0 = static_cast<std::size_t>(tile) * HierFaceMap::kTileFaces;
  if (code) {
    // The tile bound summed min terms over *all* known planes; pure
    // planes' minima are the exact terms every covered face pays, so
    // subtracting the mixed minima leaves the exact shared base, and
    // only the mixed planes need the per-face kernel. A tile is one
    // padding block of the table, so the kernel's 64 lanes stay inside
    // the plane even on the partial last tile (pad columns hold 0).
    stage.live_planes.clear();
    stage.acc32.fill(stage.collect(*hier_, code, index_->mixed_planes(tile),
                                   {bound, 0, tile}, [&](std::uint32_t c) {
                                     stage.live_planes.push_back(table_->plane(c) + f0);
                                   }));
    detail::add_square_terms(stage.live_planes.data(), stage.live_codes.data(),
                             stage.live_planes.size(), stage.acc32.data());
    for (std::size_t k = 0; k < kIntLanes; ++k)
      row[k] = 1.0 / std::sqrt(static_cast<double>(stage.acc32[k]));
    return;
  }
  // Extended-mode vectors: the flat segment kernels, restricted to this
  // tile — identical per-face operation sequence, so identical
  // similarities.
  const std::size_t width = tile_width(table_->face_count(), tile);
  std::fill_n(row, width, 0.0);
  for (std::size_t c = 0; c < table_->dimension(); ++c) {
    if (!vd.known[c]) continue;
    accumulate_plane(row, table_->plane(c) + f0, vd.value[c], width);
  }
  similarity_in_place(row, width);
}

/// Shared bookkeeping of one descent's candidate rescore fan-out: tile
/// i of `tiles` (1 <= i <= n; tile 0 is the seed, already rescored)
/// lands in row i of `rows`. The caller-owned pointers are dereferenced
/// only inside a claimed chunk (see Claims).
struct BatchMatcher::RescoreState {
  const BatchMatcher* matcher{nullptr};
  const SamplingVector* vd{nullptr};
  const std::uint8_t* code{nullptr};  ///< null on extended-mode vectors
  const DescentScratch::Node* tiles{nullptr};
  double* rows{nullptr};
  std::size_t n{0};
  std::size_t chunk_size{0};
  /// stage[slot] is owned by task `slot` (the caller uses the last).
  std::vector<DescentScratch> stage;
  Claims claims;

  void run(std::size_t slot) {
    claims.run([&](std::size_t c) {
      const std::size_t lo = std::min(n, c * chunk_size) + 1;
      const std::size_t hi = std::min(n, c * chunk_size + chunk_size) + 1;
      for (std::size_t i = lo; i < hi; ++i)
        matcher->rescore_tile(*vd, code, tiles[i].id, tiles[i].bound, stage[slot],
                              rows + i * kIntLanes);
    });
  }
};

void BatchMatcher::descend_into(const SamplingVector& vd, DescentScratch& ds,
                                MatchResult& out, bool may_fan_out) const {
  FTTT_DCHECK(vd.dimension() == table_->dimension(),
              "sampling vector dimension ", vd.dimension(),
              " != face-map dimension ", table_->dimension());
  const HierFaceMap& hier = *hier_;
  const SignatureIndex& index = *index_;
  const std::size_t faces = table_->face_count();
  const std::size_t dim = table_->dimension();

  // Basic-mode vectors (every known component in {-1, 0, +1}) bound and
  // rescore in exact integer arithmetic through the inverted index: every
  // term is 0, 1 or 4, so casting a final sum to double reproduces the
  // rounded accumulation bit for bit. The per-component codes are built
  // once here; the expansions below never touch vd again.
  bool integral = true;
  ds.code.resize(dim);
  for (std::size_t c = 0; c < dim; ++c) {
    if (!vd.known[c]) {
      ds.code[c] = kUnknownCode;
      continue;
    }
    const double v = vd.value[c];
    if (v != -1.0 && v != 0.0 && v != 1.0) {
      integral = false;
      break;
    }
    ds.code[c] = static_cast<std::uint8_t>(static_cast<int>(v) + 1);
  }
  const std::uint8_t* code = integral ? ds.code.data() : nullptr;

  // Min-heap on (bound, level, id): the bound orders the best-first
  // search, the (level, id) tail makes the pop sequence a total order —
  // one deterministic descent per vector at any thread count.
  const auto later = [](const DescentScratch::Node& a,
                        const DescentScratch::Node& b) {
    if (a.bound != b.bound) return a.bound > b.bound;
    if (a.level != b.level) return a.level > b.level;
    return a.id > b.id;
  };
  ds.heap.clear();
  ds.tiles.clear();

  const std::uint32_t top = static_cast<std::uint32_t>(hier.level_count() - 1);
  {
    const std::size_t n = hier.node_count(top);
    ds.bounds.resize(n);
    hier.lower_bounds_into(vd, top, 0, n, ds.bounds.data());
    for (std::size_t i = 0; i < n; ++i) {
      ds.heap.push_back({ds.bounds[i], top, static_cast<std::uint32_t>(i)});
      std::push_heap(ds.heap.begin(), ds.heap.end(), later);
    }
  }

  // Serial phase: pop best-first, expand upper nodes, and rescore the
  // first tile reached — the seed. Its best similarity s0 is one the
  // spec's scan attains, so the final maximum is at least s0, and any
  // node whose ceiling falls strictly below s0 holds no face that can
  // reach the maximum or tie it. From then on every popped tile whose
  // ceiling is not below s0 is a candidate, and the first node below s0
  // ends the search: the heap holds only nodes with larger bounds. The
  // candidate set depends on the vector alone, never on the thread count.
  double s0 = -1.0;  // the spec's chain seed (matcher.cpp)
  std::size_t pruned = 0;
  while (!ds.heap.empty()) {
    std::pop_heap(ds.heap.begin(), ds.heap.end(), later);
    const DescentScratch::Node nd = ds.heap.back();
    ds.heap.pop_back();

    // Subtree similarity ceiling: every covered face's exact distance^2
    // accumulates at or above nd.bound (monotone rounding, see
    // hier_facemap.hpp), so its similarity is at most 1/sqrt(bound).
    // Pruning compares at the *similarity* level and strictly — two
    // distinct distances can round to the equal similarity, and a face
    // tied with the maximum must never be dropped. A zero bound (all-'*'
    // vector, or a tile containing a perfect match) yields +inf, which
    // never prunes.
    const double ceiling = 1.0 / std::sqrt(nd.bound);
    if (ceiling < s0) {
      pruned = ds.heap.size() + 1;
      break;
    }

    if (nd.level > 0) {
      const std::size_t lo = static_cast<std::size_t>(nd.id) * HierFaceMap::kFanout;
      const std::size_t hi =
          std::min(hier.node_count(nd.level - 1), lo + HierFaceMap::kFanout);
      const std::size_t n = hi - lo;
      ds.bounds.resize(n);
      if (integral) {
        // Delta expansion: on every plane uniform across the children,
        // each child's mask equals the parent's, so each child pays the
        // parent's minimum term — already summed into nd.bound. Strip
        // the varying planes' parent minima from the parent bound and
        // add back each child's own minima; integer arithmetic end to
        // end, so these are the very bounds a direct full-dimension
        // pass computes, at the cost of only the varying planes. Child
        // mask rows are padded to kFanout (pad masks 0), so the kernel
        // reads all 64 lanes of a node's last, partial child range too.
        ds.live_masks.clear();
        ds.acc32.fill(ds.collect(hier, code, index.varying_planes(nd.level, nd.id), nd,
                                 [&](std::uint32_t c) {
                                   ds.live_masks.push_back(hier.plane(nd.level - 1, c) + lo);
                                 }));
        detail::add_min_terms(ds.live_masks.data(), ds.live_codes.data(),
                              ds.live_masks.size(), ds.acc32.data());
        for (std::size_t j = 0; j < n; ++j)
          ds.bounds[j] = static_cast<double>(ds.acc32[j]);
      } else {
        hier.lower_bounds_into(vd, nd.level - 1, lo, hi, ds.bounds.data());
      }
      for (std::size_t j = 0; j < n; ++j) {
        ds.heap.push_back(
            {ds.bounds[j], nd.level - 1, static_cast<std::uint32_t>(lo + j)});
        std::push_heap(ds.heap.begin(), ds.heap.end(), later);
      }
      continue;
    }

    ds.tiles.push_back(nd);
    if (ds.tiles.size() > 1) continue;
    ds.rows.resize(kIntLanes);
    rescore_tile(vd, code, nd.id, nd.bound, ds, ds.rows.data());
    for (std::size_t k = 0; k < tile_width(faces, nd.id); ++k) s0 = std::max(s0, ds.rows[k]);
  }

  // Parallel phase: rescore every candidate into its own row. Fan out
  // only as far as the work pays — one helper per min_cells_per_helper
  // cells, the work counted as candidates x known mixed planes x 64
  // lanes (the mixed planes scaled by the vector's known share) — never
  // from a descent that is itself one vector of a fanned-out batch, and
  // never so far that runnable threads outnumber the pool: a caller
  // that is one of its workers adds at most workers - 1 helpers, any
  // other caller at most workers.
  FTTT_DCHECK(!ds.tiles.empty(), "descent reached no tile");
  const std::size_t n = ds.tiles.size() - 1;
  ds.rows.resize(ds.tiles.size() * kIntLanes);
  std::size_t helpers = 0;
  std::size_t chunks = 0;
  if (may_fan_out && n > 1 && !pool_->stopped()) {
    const std::size_t workers = pool_->thread_count();
    const std::size_t budget = pool_->is_worker_thread() ? workers - 1 : workers;
    const std::size_t known = dim - vd.unknown_count();
    std::size_t planes = n * known;
    if (integral) {
      std::size_t mixed = 0;
      for (std::size_t i = 1; i <= n; ++i) mixed += index.mixed_planes(ds.tiles[i].id).size();
      planes = mixed * known / dim;
    }
    chunks = std::min(n, (budget + 1) * 4);
    helpers = std::min({budget, chunks - 1,
                        planes * kIntLanes / config_.min_cells_per_helper});
  }
  if (helpers == 0) {
    for (std::size_t i = 1; i <= n; ++i)
      rescore_tile(vd, code, ds.tiles[i].id, ds.tiles[i].bound, ds,
                   ds.rows.data() + i * kIntLanes);
  } else {
    auto state = std::make_shared<RescoreState>();
    state->matcher = this;
    state->vd = &vd;
    state->code = code;
    state->tiles = ds.tiles.data();
    state->rows = ds.rows.data();
    state->n = n;
    state->chunk_size = (n + chunks - 1) / chunks;
    state->stage.resize(helpers + 1);
    state->claims.chunks = chunks;
    fan_out(*pool_, state, helpers);
    FTTT_OBS_COUNT("matcher.index.helpers", helpers);
  }

  // Selection: replay the spec's chain (max, then ties, ascending face
  // ids) over the rescored tiles in ascending tile order — tiles are
  // face-id ranges, so that is ascending face order. Any face not
  // rescored is strictly beneath s0, hence beneath the maximum.
  ds.order.resize(ds.tiles.size());
  for (std::size_t i = 0; i < ds.order.size(); ++i) ds.order[i] = static_cast<std::uint32_t>(i);
  std::sort(ds.order.begin(), ds.order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return ds.tiles[a].id < ds.tiles[b].id;
  });
  out = MatchResult{};
  double best = -1.0;
  std::size_t examined = 0;
  for (const std::uint32_t i : ds.order) {
    const double* row = ds.rows.data() + static_cast<std::size_t>(i) * kIntLanes;
    const std::size_t width = tile_width(faces, ds.tiles[i].id);
    examined += width;
    for (std::size_t k = 0; k < width; ++k)
      if (row[k] > best) best = row[k];
  }
  out.similarity = best;
  out.faces_examined = examined;
  for (const std::uint32_t i : ds.order) {
    const double* row = ds.rows.data() + static_cast<std::size_t>(i) * kIntLanes;
    const std::size_t f0 = static_cast<std::size_t>(ds.tiles[i].id) * HierFaceMap::kTileFaces;
    for (std::size_t k = 0; k < tile_width(faces, ds.tiles[i].id); ++k)
      if (row[k] == best) out.tied_faces.push_back(static_cast<FaceId>(f0 + k));
  }

  FTTT_OBS_COUNT("matcher.index.descents", 1);
  FTTT_OBS_COUNT("matcher.index.candidates", n);
  FTTT_OBS_COUNT("matcher.index.scored_faces", examined);
  FTTT_OBS_COUNT("matcher.index.pruned_subtrees", pruned);
  if (examined == faces) FTTT_OBS_COUNT("matcher.index.full_scans", 1);
  detail::finalize_match(*map_, out);
}

/// Shared bookkeeping of one batch fan-out: chunk c localizes a
/// contiguous range of the batch. The matcher/batch/codes/results
/// pointers are dereferenced only inside a claimed chunk (see Claims).
struct BatchMatcher::BatchState {
  const BatchMatcher* matcher{nullptr};
  const std::vector<SamplingVector>* batch{nullptr};
  /// Vector i's encode_bits words at codes + i * code_words when
  /// basic[i], else an extended-mode vector.
  const std::uint64_t* codes{nullptr};
  const char* basic{nullptr};
  std::size_t code_words{0};
  MatchResult* results{nullptr};
  /// batch->size(), snapshotted before submission: a straggler task that
  /// loses every chunk claim must not touch the caller-owned vector at all.
  std::size_t n{0};
  std::size_t chunk_size{0};
  Claims claims;

  void run(std::size_t /*slot*/) {
    claims.run([&](std::size_t c) {
      const std::size_t lo = std::min(n, c * chunk_size);
      const std::size_t hi = std::min(n, lo + chunk_size);
      // One vector of a fanned-out batch: its descent stays on this
      // thread, the batch already holds the pool. Each participant
      // runs on its own thread, so its thread scratch is its own.
      Scratch& s = thread_scratch();
      for (std::size_t i = lo; i < hi; ++i)
        matcher->localize_into((*batch)[i], basic[i] ? codes + i * code_words : nullptr, s,
                               results[i], /*may_fan_out=*/false);
    });
  }
};

std::vector<MatchResult> BatchMatcher::match(
    const std::vector<SamplingVector>& batch) const {
  std::vector<MatchResult> results(batch.size());
  if (batch.empty()) return results;
  FTTT_OBS_SPAN("matcher.batch");
  FTTT_OBS_COUNT("matcher.batch.vectors", batch.size());
  FTTT_OBS_HIST("matcher.batch.size", "vectors", batch.size());
  for (const SamplingVector& vd : batch) require_dimension(vd);

  // Encode every vector once, and count the batch's work: a basic-mode
  // vector's bit scan, an extended-mode vector's flat int8 scan.
  const std::size_t n = batch.size();
  const std::size_t code_words = 3 * table_->plane_words();
  std::vector<std::uint64_t> codes(n * code_words);
  std::vector<char> basic(n);
  std::size_t cells = 0;
  for (std::size_t i = 0; i < n; ++i) {
    basic[i] = encode_bits(batch[i], codes.data() + i * code_words) ? 1 : 0;
    cells += basic[i] ? table_->face_count() * table_->plane_words() * kBitWordCells
                      : table_->dimension() * table_->padded_faces();
  }

  // Fan out only as far as the work pays: one helper per
  // min_cells_per_helper cells, no more helpers than chunks the caller
  // leaves, and at most workers - 1, so the helpers plus the
  // participating caller never outnumber the pool (on a host with as
  // many cores as workers, one more runnable thread is one that gets
  // preempted mid-chunk).
  const std::size_t workers = pool_->stopped() ? 1 : pool_->thread_count();
  const std::size_t chunks = std::min(n, workers * 4);
  const std::size_t helpers =
      std::min({workers - 1, chunks - 1, cells / config_.min_cells_per_helper});
  if (helpers == 0) {
    // A batch on the caller alone: each descent may fan its own
    // candidate rescore out instead.
    Scratch& s = thread_scratch();
    for (std::size_t i = 0; i < n; ++i)
      localize_into(batch[i], basic[i] ? codes.data() + i * code_words : nullptr, s,
                    results[i], /*may_fan_out=*/true);
    return results;
  }

  auto state = std::make_shared<BatchState>();
  state->matcher = this;
  state->batch = &batch;
  state->codes = codes.data();
  state->basic = basic.data();
  state->code_words = code_words;
  state->results = results.data();
  state->n = n;
  state->chunk_size = (n + chunks - 1) / chunks;
  state->claims.chunks = chunks;
  fan_out(*pool_, state, helpers);
  return results;
}

double BatchMatcher::face_similarity(const SamplingVector& vd, FaceId face) const {
  // The face's own contiguous signature, not a table column strided by
  // padded_faces(); term order matches the scalar vector_distance exactly.
  const SigValue* sig = map_->face(face).signature.data();
  double acc = 0.0;
  for (std::size_t c = 0; c < table_->dimension(); ++c) {
    if (!vd.known[c]) continue;
    const double d = vd.value[c] - static_cast<double>(sig[c]);
    acc += d * d;
  }
  return similarity_from_distance(std::sqrt(acc));
}

MatchResult BatchMatcher::climb(const SamplingVector& vd, FaceId start) const {
  FTTT_CHECK(start < table_->face_count(), "warm-start face ", start,
             " out of range (", table_->face_count(), " faces)");
  require_dimension(vd);
  FTTT_OBS_SPAN("matcher.climb");
  // Similarities of faces ids[0, n) into sims: a basic-mode vector scores
  // them in one bit-kernel call, an extended-mode one face by face.
  const std::size_t words = table_->plane_words();
  Scratch& scratch = thread_scratch();
  std::vector<std::uint64_t>& code = scratch.code;
  code.resize(3 * words);
  const bool basic = encode_bits(vd, code.data());
  std::vector<std::uint32_t>& d2 = scratch.dist;
  std::vector<double>& sims = scratch.acc;
  const auto score = [&](const FaceId* ids, std::size_t n) {
    sims.resize(n);
    if (basic) {
      d2.resize(n);
      detail::bit_distances(table_->face_bits(0), words, code.data(), ids, 0, n, d2.data());
      for (std::size_t k = 0; k < n; ++k) sims[k] = 1.0 / std::sqrt(static_cast<double>(d2[k]));
    } else {
      for (std::size_t k = 0; k < n; ++k) sims[k] = face_similarity(vd, ids[k]);
    }
  };

  MatchResult r;
  std::uint64_t steps = 0;
  FaceId current = start;
  score(&current, 1);
  double s_current = sims[0];
  ++r.faces_examined;

  // Steepest-ascent loop of Algorithm 2, traversal order identical to
  // HeuristicMatcher::match (neighbors in ascending id order).
  for (;;) {
    FaceId best_neighbor = current;
    double s_best = s_current;
    const std::vector<FaceId>& neighbors = map_->neighbors(current);
    score(neighbors.data(), neighbors.size());
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      ++r.faces_examined;
      if (sims[k] > s_best) {
        s_best = sims[k];
        best_neighbor = neighbors[k];
      }
    }
    if (best_neighbor == current) break;
    current = best_neighbor;
    s_current = s_best;
    ++steps;
  }

  FTTT_OBS_COUNT("matcher.climb.steps", steps);
  FTTT_OBS_COUNT("matcher.climb.faces", r.faces_examined);
  r.similarity = s_current;
  r.tied_faces.assign(1, current);
  detail::finalize_match(*map_, r);
  return r;
}

}  // namespace fttt
