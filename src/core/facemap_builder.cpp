#include "core/facemap_builder.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"
#include "core/pairs.hpp"
#include "geometry/apollonius.hpp"
#include "geometry/circle.hpp"
#include "obs/obs.hpp"

namespace fttt {

namespace {

// ---------------------------------------------------------------------------
// Span-fill soundness (the bit-equivalence argument).
//
// pair_region decides with two comparisons on squared distances:
//   decisively_a:  da2 * c2 <= db2        (c2 = C^2)
//   decisively_b:  da2 >= c2 * db2
// For C > 1 each comparison tests membership of a *closed disk*: expanding
// the Apollonius construction (geometry/apollonius.cpp) gives the identity
//   c2*da2 - db2 = (c2 - 1) * (|p - m_a|^2 - r_a^2)
//   da2 - c2*db2 = (1 - c2) * (|p - m_b|^2 - r_b^2)
// where (m_a, r_a) is the circle of ratio 1/C (encloses a) and (m_b, r_b)
// the circle of ratio C (encloses b). So "decisively a" is exactly
// "inside the near-a disk" and "decisively b" exactly "inside the near-b
// disk" — in real arithmetic. In floating point the comparison value
// carries a few ulps of error, bounded by E = kTolRel * (1 + c2) * M
// where M bounds every squared distance in play (kTolRel over-covers the
// true relative error by ~3 orders of magnitude). Dividing through the
// identity, the FP decision can only disagree with the real-arithmetic
// disk test inside the annulus | |p-m|^2 - r^2 | <= E / (c2 - 1).
//
// A disk meets a grid row in at most one x-interval, so per row we fill
//   - the certain interior (interval shrunk below the annulus, minus one
//     column of conversion slack) with the disk's value by std::fill —
//     every such cell satisfies its comparison beyond any FP ambiguity,
//     and the two disks' certain interiors cannot overlap (membership in
//     both forces c2 <= 1), so the write is final;
//   - the two edge windows (interval widened above the annulus, plus one
//     column of slack) by calling pair_region itself;
//   - nothing elsewhere: those cells are certainly outside this disk and
//     keep 0 or the other disk's value.
// Every cell therefore ends up holding exactly pair_region's value.
//
// C == 1 degenerates both comparisons to da2 <=> db2, a half-plane split:
// f(p) = da2 - db2 = gx*x + gy*y + k is linear, so per row the ambiguous
// band is an x-interval around the root, handled the same way. Degenerate
// pairs (coincident or nearly coincident nodes, non-finite circle
// parameters from extreme C) fall back to exact per-cell evaluation of
// the whole plane — always correct, merely slower, and never hit by sane
// deployments.
// ---------------------------------------------------------------------------

/// Relative FP-ambiguity tolerance on pair_region's comparison values.
/// The comparisons are ~6 IEEE ops, so the true relative error is a few
/// 1e-16; 1e-12 over-covers it while keeping the ambiguity windows a
/// couple of columns wide at most.
constexpr double kTolRel = 1e-12;

/// Below this squared separation (a micron) the Apollonius construction
/// is numerically meaningless; the pair's plane is evaluated exactly.
constexpr double kDegenerateSeparation2 = 1e-12;

// ---------------------------------------------------------------------------
// Assembly data movement. At N = 64 on a 1 m grid every one of the ~10k
// cells heads a run and nearly every head is its own face, so assembly
// moves 2016 planes x ~10k faces of signature bytes three times: into
// the packed keys, into the SoA table and into the per-face signatures.
// The packed keys are the table's bit planes, so those cost a copy of
// each face's key record, not a fourth pass over the signatures. The
// kernels below do each pass on whole words inside cache-sized blocks,
// and the stages fan the blocks out over the builder's pool.
// Every block writes bytes no other block touches, so the products are
// the same at any thread count.
// ---------------------------------------------------------------------------

/// Node pairs per key word: one bit per pair in each of a key's two
/// halves (the SignatureTable bit-plane layout).
constexpr std::size_t kPairsPerWord = SignatureTable::kPairsPerWord;

/// Run heads packed per task: 8 KiB of key accumulators per word.
constexpr std::size_t kHeadBlock = 1024;

/// Faces per signature-transpose task: one cache line of every table row.
constexpr std::size_t kFaceBlock = 64;

/// Least bytes a stage must move before helpers are worth waking: a
/// quarter MiB is tens of microseconds of work on one core, well above a
/// wake-up. The n = 10 Table 1 roster on its 2 m grid stays below it on
/// every stage, so those builds never touch the pool.
constexpr std::size_t kFanOutBytes = std::size_t{1} << 18;

/// fn(b) for every block b in [0, blocks): over `pool` when the stage
/// moves at least kFanOutBytes across two or more blocks, inline on the
/// calling thread otherwise.
void for_each_block(std::size_t blocks, std::size_t bytes, ThreadPool& pool,
                    const std::function<void(std::size_t)>& fn) {
  if (blocks < 2 || bytes < kFanOutBytes) {
    for (std::size_t b = 0; b < blocks; ++b) fn(b);
    return;
  }
  parallel_for(0, blocks, fn, pool);
}

/// In-register transpose of an 8 x 8 byte tile: on return byte r of t[c]
/// is what byte c of t[r] was. Three rounds swap 4-, 2- and 1-byte
/// sub-blocks across rows 4, 2 and 1 apart.
inline void transpose8x8(std::uint64_t t[8]) {
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint64_t a = t[i];
    const std::uint64_t b = t[i + 4];
    t[i] = (a & 0x00000000FFFFFFFFULL) | (b << 32);
    t[i + 4] = (a >> 32) | (b & 0xFFFFFFFF00000000ULL);
  }
  for (std::size_t i : {0u, 1u, 4u, 5u}) {
    const std::uint64_t a = t[i];
    const std::uint64_t b = t[i + 2];
    t[i] = (a & 0x0000FFFF0000FFFFULL) | ((b & 0x0000FFFF0000FFFFULL) << 16);
    t[i + 2] = ((a >> 16) & 0x0000FFFF0000FFFFULL) | (b & 0xFFFF0000FFFF0000ULL);
  }
  for (std::size_t i = 0; i < 8; i += 2) {
    const std::uint64_t a = t[i];
    const std::uint64_t b = t[i + 1];
    t[i] = (a & 0x00FF00FF00FF00FFULL) | ((b & 0x00FF00FF00FF00FFULL) << 8);
    t[i + 1] = ((a >> 8) & 0x00FF00FF00FF00FFULL) | (b & 0xFF00FF00FF00FF00ULL);
  }
}

/// Sign bits of up to eight planes over the cell run [first, first + n)
/// in byte lanes: bit b of pos[i] is set where plane src[b] is +1 at
/// cell first + i, of neg[i] where it is -1; bits b >= m stay clear.
void fold_bytes(const SigValue* const* src, std::size_t m, std::uint32_t first, std::size_t n,
                std::uint8_t* __restrict pos, std::uint8_t* __restrict neg) {
  // A plane byte is 0x01, 0x00 or 0xFF: its top bit is the -1 flag, and
  // its low bit without the top bit the +1 flag — pure byte arithmetic,
  // so the loops vectorize without compares or branches.
  const auto fold = [](std::uint8_t& p, std::uint8_t& q, SigValue v, std::size_t b) {
    const auto u = static_cast<std::uint8_t>(v);
    const auto sign = static_cast<std::uint8_t>(u >> 7);
    p = static_cast<std::uint8_t>(p | (((u ^ sign) & 1u) << b));
    q = static_cast<std::uint8_t>(q | (sign << b));
  };
  if (m == 8) {
    // The common case, unrolled: eight byte runs folded in one pass, the
    // lanes written once.
    const SigValue* __restrict r0 = src[0] + first;
    const SigValue* __restrict r1 = src[1] + first;
    const SigValue* __restrict r2 = src[2] + first;
    const SigValue* __restrict r3 = src[3] + first;
    const SigValue* __restrict r4 = src[4] + first;
    const SigValue* __restrict r5 = src[5] + first;
    const SigValue* __restrict r6 = src[6] + first;
    const SigValue* __restrict r7 = src[7] + first;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint8_t p = 0;
      std::uint8_t q = 0;
      fold(p, q, r0[i], 0);
      fold(p, q, r1[i], 1);
      fold(p, q, r2[i], 2);
      fold(p, q, r3[i], 3);
      fold(p, q, r4[i], 4);
      fold(p, q, r5[i], 5);
      fold(p, q, r6[i], 6);
      fold(p, q, r7[i], 7);
      pos[i] = p;
      neg[i] = q;
    }
    return;
  }
  std::fill(pos, pos + n, std::uint8_t{0});
  std::fill(neg, neg + n, std::uint8_t{0});
  for (std::size_t b = 0; b < m; ++b) {
    const SigValue* __restrict run = src[b] + first;
    for (std::size_t i = 0; i < n; ++i) fold(pos[i], neg[i], run[i], b);
  }
}

/// A head run this many times longer than its head count is read head by
/// head rather than folded whole (measured at n = 10 and 20 on a 1 m grid).
constexpr std::size_t kSparseRun = 4;

/// Eight planes' byte lanes of kHeadBlock cells or heads.
using Lanes = std::array<std::array<std::uint8_t, kHeadBlock>, 8>;

/// out[i * stride] = the word whose byte g is lanes[g][i], for i < n:
/// eight heads at a time through one 8 x 8 byte transpose.
void interleave(const Lanes& lanes, std::size_t n, std::size_t stride, std::uint64_t* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t t[8];
    for (std::size_t g = 0; g < 8; ++g) std::memcpy(&t[g], lanes[g].data() + i, 8);
    transpose8x8(t);
    for (std::size_t c = 0; c < 8; ++c) out[(i + c) * stride] = t[c];
  }
  for (; i < n; ++i) {
    std::uint64_t k = 0;
    for (std::size_t g = 0; g < 8; ++g) k |= static_cast<std::uint64_t>(lanes[g][i]) << (8 * g);
    out[i * stride] = k;
  }
}

/// Bit-pack heads [h0, h1) head-major: with W = ceil(dim / 64), word
/// w < W of head h is keys[h * 2W + w], the +1 bits of planes
/// [64w, min(dim, 64w + 64)), and word W + w their -1 bits — the head
/// cell's signature in the SignatureTable face record layout, which is
/// injective on signatures. Planes are read as contiguous cell runs of at
/// most kHeadBlock cells, folded eight at a time into byte lanes; where
/// heads skip run interiors their lanes are picked out of the run's, or,
/// on a sparse run, read head by head.
void pack_heads(const SigValue* const* planes, std::size_t dim, const std::uint32_t* heads,
                std::size_t h0, std::size_t h1, std::uint64_t* keys) {
  const std::size_t words = SignatureTable::words_for(dim);
  const std::size_t stride = 2 * words;
  Lanes pos;
  Lanes neg;
  Lanes picked_pos;
  Lanes picked_neg;
  for (std::size_t j0 = h0; j0 < h1;) {
    // The heads whose cells lie in the run [c0, c0 + kHeadBlock).
    const std::uint32_t c0 = heads[j0];
    std::size_t j1 = j0 + 1;
    while (j1 < h1 && heads[j1] - c0 < kHeadBlock) ++j1;
    const std::size_t n = j1 - j0;
    const std::size_t span = heads[j1 - 1] - c0 + 1;
    // Heads far sparser than their run (long runs, few pairs): read
    // each head's cell alone instead of folding the whole run.
    const bool sparse = span > kSparseRun * n;
    for (std::size_t w = 0; w < words; ++w) {
      const std::size_t p0 = w * kPairsPerWord;
      if (sparse) {
        for (std::size_t g = 0; g < 8; ++g) {
          const std::size_t p = p0 + 8 * g;
          const std::size_t m = p < dim ? std::min<std::size_t>(8, dim - p) : 0;
          for (std::size_t k = 0; k < n; ++k) {
            std::uint8_t bp = 0;
            std::uint8_t bn = 0;
            for (std::size_t b = 0; b < m; ++b) {
              const auto u = static_cast<std::uint8_t>(planes[p + b][heads[j0 + k]]);
              const auto sign = static_cast<std::uint8_t>(u >> 7);
              bp = static_cast<std::uint8_t>(bp | (((u ^ sign) & 1u) << b));
              bn = static_cast<std::uint8_t>(bn | (sign << b));
            }
            picked_pos[g][k] = bp;
            picked_neg[g][k] = bn;
          }
        }
        interleave(picked_pos, n, stride, keys + j0 * stride + w);
        interleave(picked_neg, n, stride, keys + j0 * stride + words + w);
        continue;
      }
      for (std::size_t g = 0; g < 8; ++g) {
        const std::size_t p = p0 + 8 * g;
        const std::size_t m = p < dim ? std::min<std::size_t>(8, dim - p) : 0;
        fold_bytes(planes + std::min(p, dim), m, c0, span, pos[g].data(), neg[g].data());
      }
      const Lanes* lp = &pos;
      const Lanes* ln = &neg;
      if (span != n) {
        for (std::size_t g = 0; g < 8; ++g)
          for (std::size_t k = 0; k < n; ++k) {
            picked_pos[g][k] = pos[g][heads[j0 + k] - c0];
            picked_neg[g][k] = neg[g][heads[j0 + k] - c0];
          }
        lp = &picked_pos;
        ln = &picked_neg;
      }
      interleave(*lp, n, stride, keys + j0 * stride + w);
      interleave(*ln, n, stride, keys + j0 * stride + words + w);
    }
    j0 = j1;
  }
}

/// One SoA table row: row[f] = plane[rep[f]] for every face, then zero
/// padding up to `padded`. rep is strictly increasing, so a 64-face block
/// whose cells span exactly 64 is one contiguous copy.
void emit_row(const SigValue* __restrict plane, const std::uint32_t* __restrict rep,
              std::size_t faces, std::size_t padded, SigValue* __restrict row) {
  std::size_t f = 0;
  for (; f + kFaceBlock <= faces; f += kFaceBlock) {
    if (rep[f + kFaceBlock - 1] - rep[f] == kFaceBlock - 1) {
      std::memcpy(row + f, plane + rep[f], kFaceBlock);
    } else {
      for (std::size_t i = f; i < f + kFaceBlock; ++i) row[i] = plane[rep[i]];
    }
  }
  for (; f < faces; ++f) row[f] = plane[rep[f]];
  std::fill(row + faces, row + padded, SigValue{0});
}

/// Per-face signatures of faces [f0, f1) off the finished table:
/// sig[f][p] = table[p * padded + f]. Full 8-plane x 8-face tiles go
/// through transpose8x8 (eight word loads, eight word stores); the
/// trailing faces and planes of the block are copied byte by byte.
void emit_signatures(const SigValue* __restrict table, std::size_t dim, std::size_t padded,
                     std::size_t f0, std::size_t f1, Face* faces) {
  const std::size_t tiled_faces = f0 + (f1 - f0) / 8 * 8;
  const std::size_t tiled_planes = dim / 8 * 8;
  for (std::size_t p = 0; p < tiled_planes; p += 8) {
    const SigValue* rows = table + p * padded;
    for (std::size_t f = f0; f < tiled_faces; f += 8) {
      std::uint64_t t[8];
      for (std::size_t r = 0; r < 8; ++r) std::memcpy(&t[r], rows + r * padded + f, 8);
      transpose8x8(t);
      for (std::size_t c = 0; c < 8; ++c)
        std::memcpy(faces[f + c].signature.data() + p, &t[c], 8);
    }
  }
  for (std::size_t f = f0; f < f1; ++f) {
    SigValue* sig = faces[f].signature.data();
    const std::size_t p_from = f < tiled_faces ? tiled_planes : 0;
    for (std::size_t p = p_from; p < dim; ++p) sig[p] = table[p * padded + f];
  }
}

}  // namespace

// The reciprocal multiply lands within one column of the true answer;
// the correction loops then settle it *exactly* against the cached cell
// centers (the very values the exact evaluator compares against), so
// callers need no conversion slack: every column strictly outside the
// returned range really is on the far side of x.
int FaceMapBuilder::col_first_ge(double x) const {
  const int cols = grid_.cols();
  const double v = std::ceil((x - grid_.extent().lo.x) * inv_cell_ - 0.5);
  int i = static_cast<int>(
      std::min(std::max(v, 0.0), static_cast<double>(cols)));
  while (i < cols && center_x_[static_cast<std::size_t>(i)] < x) ++i;
  while (i > 0 && center_x_[static_cast<std::size_t>(i - 1)] >= x) --i;
  return i;  // in [0, cols]; cols means "no column qualifies"
}

int FaceMapBuilder::col_last_le(double x) const {
  const int cols = grid_.cols();
  const double v = std::floor((x - grid_.extent().lo.x) * inv_cell_ - 0.5);
  int i = static_cast<int>(
      std::min(std::max(v, -1.0), static_cast<double>(cols - 1)));
  while (i + 1 < cols && center_x_[static_cast<std::size_t>(i + 1)] <= x) ++i;
  while (i >= 0 && center_x_[static_cast<std::size_t>(i)] > x) --i;
  return i;  // in [-1, cols - 1]; -1 means "no column qualifies"
}

FaceMapBuilder::FaceMapBuilder(Deployment roster, double C, const Aabb& field,
                               double cell_size, ThreadPool& pool)
    : grid_(field, cell_size), C_(C), inv_cell_(1.0 / grid_.cell_size()),
      pool_(&pool), roster_(std::move(roster)) {
  facemap_detail::validate_build_inputs(roster_, C_, "FaceMapBuilder");
  active_.assign(roster_.size(), 1);
  row_start_mask_.assign(mask_words(), 0);
  for (int j = 0; j < grid_.rows(); ++j) {
    const std::size_t c = grid_.flatten({0, j});
    row_start_mask_[c >> 6] |= std::uint64_t{1} << (c & 63);
  }
  center_x_.resize(static_cast<std::size_t>(grid_.cols()));
  for (int i = 0; i < grid_.cols(); ++i)
    center_x_[static_cast<std::size_t>(i)] = grid_.center({i, 0}).x;
}

void FaceMapBuilder::deactivate(NodeId id) {
  FTTT_CHECK(id < roster_.size(), "FaceMapBuilder::deactivate: node ", id,
             " outside roster of ", roster_.size());
  active_[id] = 0;
}

void FaceMapBuilder::activate(NodeId id) {
  FTTT_CHECK(id < roster_.size(), "FaceMapBuilder::activate: node ", id,
             " outside roster of ", roster_.size());
  active_[id] = 1;
}

void FaceMapBuilder::move_node(NodeId id, Vec2 position) {
  FTTT_CHECK(id < roster_.size(), "FaceMapBuilder::move_node: node ", id,
             " outside roster of ", roster_.size());
  roster_[id].position = position;
  // Walk the dense slot -> key index, not the hash map: slot order is
  // allocation order, so the scan is deterministic and cache-friendly
  // (hash-bucket order depends on addresses; harmless for these
  // idempotent invalidations, but the determinism contract bans the
  // pattern outright so order dependence can never creep in).
  for (std::uint32_t slot = 0; slot < slot_key_.size(); ++slot) {
    const std::uint64_t key = slot_key_[slot];
    const NodeId i = static_cast<NodeId>(key >> 32);
    const NodeId j = static_cast<NodeId>(key & 0xFFFFFFFFULL);
    if (i == id || j == id) slot_valid_[slot] = 0;
  }
}

void FaceMapBuilder::reset_roster(Deployment roster) {
  facemap_detail::validate_build_inputs(roster, C_, "FaceMapBuilder::reset_roster");
  // No delta connects divisions across a roster swap: pair keys alias
  // between rosters, so the bookkeeping must not survive.
  prev_pairs_.clear();
  last_pairs_.clear();
  last_rasterized_keys_.clear();
  if (roster.size() == roster_.size()) {
    // Same node count: the slot index and plane storage stay; every
    // cached plane goes stale (a fresh random deployment moves every
    // node), so the next build re-rasterizes without allocating.
    roster_ = std::move(roster);
    std::fill(active_.begin(), active_.end(), char{1});
    std::fill(slot_valid_.begin(), slot_valid_.end(), char{0});
    return;
  }
  roster_ = std::move(roster);
  active_.assign(roster_.size(), 1);
  // clear() keeps each vector's capacity, so a density sweep that
  // revisits a node count reuses the old storage.
  slot_.clear();
  slot_key_.clear();
  slot_valid_.clear();
  planes_.clear();
  masks_.clear();
}

NodeId FaceMapBuilder::add_node(Vec2 position) {
  const NodeId id = static_cast<NodeId>(roster_.size());
  roster_.push_back(SensorNode{id, position});
  active_.push_back(1);
  return id;
}

bool FaceMapBuilder::is_active(NodeId id) const {
  FTTT_CHECK(id < roster_.size(), "FaceMapBuilder::is_active: node ", id,
             " outside roster of ", roster_.size());
  return active_[id] != 0;
}

std::size_t FaceMapBuilder::active_count() const {
  std::size_t n = 0;
  for (char a : active_) n += a != 0;
  return n;
}

Deployment FaceMapBuilder::active_deployment() const {
  Deployment out;
  out.reserve(roster_.size());
  for (const SensorNode& node : roster_)
    if (active_[node.id])
      out.push_back(SensorNode{static_cast<NodeId>(out.size()), node.position});
  return out;
}

std::uint32_t FaceMapBuilder::slot_of(NodeId i, NodeId j) {
  FTTT_DCHECK(i < j, "plane slot wants an ordered pair, got (", i, ",", j, ")");
  const std::uint64_t key = (static_cast<std::uint64_t>(i) << 32) | j;
  const auto [it, inserted] =
      slot_.try_emplace(key, static_cast<std::uint32_t>(slot_valid_.size()));
  if (inserted) {
    slot_key_.push_back(key);
    slot_valid_.push_back(0);
    planes_.resize(planes_.size() + padded_cells());
    masks_.resize(masks_.size() + mask_words());
  }
  return it->second;
}

double FaceMapBuilder::decision_tolerance(Vec2 a, Vec2 b) const {
  // M bounds every squared distance pair_region can see: the farthest
  // cell center from either node. Cell centers may overhang the extent
  // by up to one cell (the last row/column is never truncated).
  const Aabb& e = grid_.extent();
  const double pad = grid_.cell_size();
  double m2 = 1.0;
  const Vec2 corners[4] = {{e.lo.x - pad, e.lo.y - pad},
                           {e.hi.x + pad, e.lo.y - pad},
                           {e.lo.x - pad, e.hi.y + pad},
                           {e.hi.x + pad, e.hi.y + pad}};
  for (Vec2 corner : corners)
    m2 = std::max({m2, distance2(corner, a), distance2(corner, b)});
  return kTolRel * (1.0 + C_ * C_) * m2;
}

void FaceMapBuilder::fill_exact(Vec2 a, Vec2 b, int j, int i0, int i1,
                                SigValue* plane) const {
  i0 = std::max(i0, 0);
  i1 = std::min(i1, grid_.cols() - 1);
  if (i0 > i1) return;
  const std::size_t base = grid_.flatten({0, j});
  const double y = grid_.center({0, j}).y;  // constant along the row
  for (int i = i0; i <= i1; ++i)
    plane[base + static_cast<std::size_t>(i)] = static_cast<SigValue>(
        pair_region(Vec2{center_x_[static_cast<std::size_t>(i)], y}, a, b, C_));
}

void FaceMapBuilder::rasterize_disk(Vec2 a, Vec2 b, Vec2 center, double radius,
                                    SigValue inside, SigValue* plane) const {
  const double c2 = C_ * C_;
  // Annulus half-thickness in squared-distance units (see the soundness
  // note above), plus an absolute term covering the cancellation error of
  // rem = r^2 - dy^2 itself when the circle is huge (C close to 1 pushes
  // the center and radius far outside the field).
  const double tol2 = decision_tolerance(a, b) / (c2 - 1.0) +
                      kTolRel * (radius * radius + norm2(center) + 1.0);
  const int cols = grid_.cols();
  const int rows = grid_.rows();
  const double r2 = radius * radius;
  if (!std::isfinite(r2) || !std::isfinite(tol2)) {
    // Squaring a finite-but-huge radius overflowed (C pathologically close
    // to 1): per-row exact evaluation is always sound, merely slower.
    for (int j = 0; j < rows; ++j) fill_exact(a, b, j, 0, cols - 1, plane);
    return;
  }
  for (int j = 0; j < rows; ++j) {
    const double dy = grid_.center({0, j}).y - center.y;
    const double rem = r2 - dy * dy;
    if (rem + tol2 < 0.0) continue;  // row certainly clear of the disk
    const double e_out = std::sqrt(rem + tol2);
    // Window bounds (the column conversion is exact, so no slack):
    // outside them the row is certainly outside the disk — the sqrt and
    // subtraction round at ~1e-16 relative, orders below the 1e-12
    // relative head-room tol2 already carries.
    const int w_lo = col_first_ge(center.x - e_out);
    const int w_hi = col_last_le(center.x + e_out);
    if (w_lo > w_hi) continue;
    if (rem - tol2 <= 0.0) {
      // Near-tangent row: no certain interior, the whole window is edge.
      fill_exact(a, b, j, w_lo, w_hi, plane);
      continue;
    }
    const double e_in = std::sqrt(rem - tol2);
    // Certain interior: every center in [-e_in, e_in] of center.x is
    // inside the disk beyond any FP ambiguity.
    const int s_lo = col_first_ge(center.x - e_in);
    const int s_hi = col_last_le(center.x + e_in);
    if (s_lo > s_hi) {
      fill_exact(a, b, j, w_lo, w_hi, plane);
      continue;
    }
    fill_exact(a, b, j, w_lo, s_lo - 1, plane);
    fill_exact(a, b, j, s_hi + 1, w_hi, plane);
    const int f_lo = std::max(s_lo, 0);
    const int f_hi = std::min(s_hi, cols - 1);
    if (f_lo <= f_hi) {
      const std::size_t base = grid_.flatten({0, j});
      std::fill(plane + base + static_cast<std::size_t>(f_lo),
                plane + base + static_cast<std::size_t>(f_hi) + 1, inside);
    }
  }
}

void FaceMapBuilder::rasterize_bisector(Vec2 a, Vec2 b, SigValue* plane) const {
  // C == 1: f(p) = da2 - db2 = gx*x + gy*y + k, +1 where f < 0, -1 where
  // f > 0, 0 only exactly on the bisector.
  const double tol = decision_tolerance(a, b);
  const double gx = 2.0 * (b.x - a.x);
  const double gy = 2.0 * (b.y - a.y);
  const double k = norm2(a) - norm2(b);
  const int cols = grid_.cols();
  const int rows = grid_.rows();
  const SigValue left = gx > 0.0 ? SigValue{+1} : SigValue{-1};
  // Anything wider than the grid means "evaluate the whole row exactly";
  // the guard also routes non-finite window bounds (overflowed x0) there.
  const double guard = grid_.extent().width() + 2.0 * grid_.cell_size() + 2.0;
  for (int j = 0; j < rows; ++j) {
    const double y = grid_.center({0, j}).y;
    const double fy = gy * y + k;
    if (gx == 0.0) {
      // bx == ax exactly: the row is uniform. The comparison da2 <= db2
      // shares the identical (x-ax)^2 term on both sides, and IEEE
      // rounding is monotone, so a row-level |fy| > tol decides every
      // cell the same way pair_region does.
      if (std::abs(fy) <= tol) {
        fill_exact(a, b, j, 0, cols - 1, plane);
      } else {
        const std::size_t base = grid_.flatten({0, j});
        std::fill(plane + base, plane + base + static_cast<std::size_t>(cols),
                  fy < 0.0 ? SigValue{+1} : SigValue{-1});
      }
      continue;
    }
    const double x0 = -fy / gx;
    const double halfw = tol / std::abs(gx);
    // A window wider than the grid (including halfw = inf from a tiny gx)
    // degenerates to whole-row exact evaluation; a far-off but finite x0
    // is fine — the clamped column conversion turns it into a uniform
    // row fill below. Only non-finite x0 (unreachable past the halfw
    // guard, kept for safety) must not reach the conversion.
    if (!(halfw < guard) || !std::isfinite(x0)) {
      fill_exact(a, b, j, 0, cols - 1, plane);
      continue;
    }
    const int w_lo = col_first_ge(x0 - halfw);
    const int w_hi = col_last_le(x0 + halfw);
    const std::size_t base = grid_.flatten({0, j});
    if (w_lo > 0)
      std::fill(plane + base,
                plane + base + static_cast<std::size_t>(std::min(w_lo, cols)),
                left);
    if (w_hi < cols - 1)
      std::fill(plane + base + static_cast<std::size_t>(std::max(w_hi + 1, 0)),
                plane + base + static_cast<std::size_t>(cols),
                static_cast<SigValue>(-left));
    fill_exact(a, b, j, w_lo, w_hi, plane);
  }
}

void FaceMapBuilder::rasterize_pair(NodeId i, NodeId j, SigValue* plane,
                                    std::uint64_t* mask) const {
  const Vec2 a = roster_[i].position;
  const Vec2 b = roster_[j].position;
  std::fill(plane, plane + padded_cells(), SigValue{0});
  const int rows = grid_.rows();
  const bool degenerate = distance2(a, b) < kDegenerateSeparation2;
  if (degenerate) {
    for (int row = 0; row < rows; ++row)
      fill_exact(a, b, row, 0, grid_.cols() - 1, plane);
  } else if (C_ == 1.0) {
    rasterize_bisector(a, b, plane);
  } else {
    const Circle near_a = apollonius_circle(a, b, 1.0 / C_);
    const Circle near_b = apollonius_circle(a, b, C_);
    const bool finite = std::isfinite(near_a.center.x) && std::isfinite(near_a.center.y) &&
                        std::isfinite(near_a.radius) && std::isfinite(near_b.center.x) &&
                        std::isfinite(near_b.center.y) && std::isfinite(near_b.radius) &&
                        std::isfinite(C_ * C_) && std::isfinite(decision_tolerance(a, b));
    if (!finite) {
      for (int row = 0; row < rows; ++row)
        fill_exact(a, b, row, 0, grid_.cols() - 1, plane);
    } else {
      rasterize_disk(a, b, near_a.center, near_a.radius, SigValue{+1}, plane);
      rasterize_disk(a, b, near_b.center, near_b.radius, SigValue{-1}, plane);
    }
  }

  // Run-boundary mask: bit c is set where the plane's value differs from
  // cell c-1. Row starts are forced on (their left-diff compares against
  // the previous row's last cell, which is meaningless but absorbed by
  // the forced bit), so grouping runs never span rows. Word-at-a-time
  // XOR keeps this at memory speed: spans make most 8-byte groups equal.
  const std::size_t cells = grid_.cell_count();
  const std::size_t words = mask_words();
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = row_start_mask_[w];
    const std::size_t c0 = w * 64;
    const std::size_t lim = std::min<std::size_t>(64, cells - c0);
    std::size_t k = c0 == 0 ? 1 : 0;
    for (; k + 8 <= lim; k += 8) {
      std::uint64_t cur;
      std::uint64_t prev;
      std::memcpy(&cur, plane + c0 + k, 8);
      std::memcpy(&prev, plane + c0 + k - 1, 8);
      if (const std::uint64_t d = cur ^ prev) {
        for (std::size_t t = 0; t < 8; ++t)
          if ((d >> (8 * t)) & 0xFF) bits |= std::uint64_t{1} << (k + t);
      }
    }
    for (; k < lim; ++k)
      if (plane[c0 + k] != plane[c0 + k - 1]) bits |= std::uint64_t{1} << k;
    mask[w] = bits;
  }
}

FaceMap FaceMapBuilder::build() {
  if (build_count_ == 0) {
    FTTT_OBS_SPAN("facemap.build");
    return build_impl();
  }
  FTTT_OBS_SPAN("facemap.rebuild_incremental");
  return build_impl();
}

void FaceMapBuilder::build_into(BuildProducts& out) {
  FTTT_OBS_SPAN("facemap.build_into");
  if (out.map) {
    FTTT_CHECK(out.map.use_count() == 1,
               "FaceMapBuilder::build_into: the product map still has ",
               out.map.use_count() - 1,
               " outstanding reference(s); drop every consumer before rebuilding");
  } else {
    out.map = std::shared_ptr<FaceMap>(new FaceMap(grid_, Deployment{}, C_));
  }
  if (out.table) {
    FTTT_CHECK(out.table.use_count() == 1,
               "FaceMapBuilder::build_into: the product table still has ",
               out.table.use_count() - 1,
               " outstanding reference(s); drop every consumer before rebuilding");
    table_storage_ = SignatureTable::reclaim(std::move(*out.table));
  }
  build_impl_into(*out.map);
  if (out.table)
    *out.table = std::move(*table_);
  else
    out.table = std::make_shared<SignatureTable>(std::move(*table_));
  table_.reset();
}

FaceMap FaceMapBuilder::build_impl() {
  FaceMap map(grid_, Deployment{}, C_);
  build_impl_into(map);
  return map;
}

void FaceMapBuilder::build_impl_into(FaceMap& out) {
  const Deployment active = active_deployment();
  if (active.size() < 2)
    throw std::invalid_argument("FaceMapBuilder::build: fewer than two active sensors");

  // Map the compacted canonical pairs onto roster pairs. Compaction
  // preserves roster order, so compacted pair (ci, cj) is roster pair
  // (ids[ci], ids[cj]) with the same a/b orientation — cached planes stay
  // valid across activation flips.
  std::vector<NodeId>& ids = scratch_.ids;
  ids.clear();
  ids.reserve(roster_.size());
  for (const SensorNode& node : roster_)
    if (active_[node.id]) ids.push_back(node.id);

  const std::size_t dim = pair_count(ids.size());
  std::vector<std::uint32_t>& slots = scratch_.slots;
  slots.clear();
  slots.reserve(dim);
  std::vector<std::uint32_t>& missing = scratch_.missing;
  missing.clear();
  std::vector<std::pair<NodeId, NodeId>>& missing_pairs = scratch_.missing_pairs;
  missing_pairs.clear();
  // delta_since bookkeeping: the (ci, cj) sweep below visits pairs in
  // ascending packed-key order, so both lists come out sorted for free.
  prev_pairs_.swap(last_pairs_);
  last_pairs_.clear();
  last_pairs_.reserve(dim);
  last_rasterized_keys_.clear();
  for (std::size_t ci = 0; ci < ids.size(); ++ci) {
    for (std::size_t cj = ci + 1; cj < ids.size(); ++cj) {
      const std::uint64_t key = (static_cast<std::uint64_t>(ids[ci]) << 32) | ids[cj];
      const std::uint32_t slot = slot_of(ids[ci], ids[cj]);
      slots.push_back(slot);
      last_pairs_.push_back(key);
      if (!slot_valid_[slot]) {
        missing.push_back(slot);
        missing_pairs.emplace_back(ids[ci], ids[cj]);
        last_rasterized_keys_.push_back(key);
      }
    }
  }

  // Rasterize the cache misses (all planes on the first build, none at
  // all after a pure kill/revive delta). plane_data is stable from here:
  // slot_of above performed every allocation.
  const std::uint64_t t0 = FTTT_OBS_NOW_NS();
  parallel_for(0, missing.size(),
               [&](std::size_t k) {
                 rasterize_pair(missing_pairs[k].first, missing_pairs[k].second,
                                plane_data(missing[k]), mask_data(missing[k]));
               },
               *pool_);
  const std::uint64_t t1 = FTTT_OBS_NOW_NS();
  for (std::uint32_t slot : missing) slot_valid_[slot] = 1;
  last_rasterized_ = missing.size();
  rasterized_total_ += missing.size();
  ++build_count_;
  FTTT_OBS_COUNT("facemap.planes_rasterized", missing.size());
  FTTT_OBS_COUNT("facemap.cells_rasterized", missing.size() * grid_.cell_count());
  if (t1 > t0 && !missing.empty())
    FTTT_OBS_HIST("facemap.build.cells_per_sec", "cells/s",
                  static_cast<double>(missing.size() * grid_.cell_count()) * 1e9 /
                      static_cast<double>(t1 - t0));

  std::vector<const SigValue*>& planes = scratch_.planes;
  planes.clear();
  planes.reserve(dim);
  std::vector<const std::uint64_t*>& masks = scratch_.masks;
  masks.clear();
  masks.reserve(dim);
  for (std::uint32_t slot : slots) {
    planes.push_back(plane_data(slot));
    masks.push_back(mask_data(slot));
  }
  assemble_into(active, planes, masks, out);
}

void FaceMapBuilder::assemble_into(const Deployment& active,
                                   const std::vector<const SigValue*>& planes,
                                   const std::vector<const std::uint64_t*>& masks,
                                   FaceMap& out) {
  const std::size_t cells = grid_.cell_count();
  const std::size_t dim = planes.size();
  const std::size_t words = mask_words();

  // A cell heads a run iff any plane changes value at it (or it starts a
  // row): OR the cached per-plane boundary masks. Run interiors carry
  // their head's exact signature, so only heads need grouping — the
  // whole-signature work drops from O(cells * dim) to O(heads * dim).
  std::vector<std::uint64_t>& boundary = scratch_.boundary;
  boundary.assign(masks[0], masks[0] + words);
  for (std::size_t p = 1; p < dim; ++p)
    for (std::size_t w = 0; w < words; ++w) boundary[w] |= masks[p][w];

  std::vector<std::uint32_t>& heads = scratch_.heads;
  heads.clear();
  heads.reserve(cells / 4);
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = boundary[w];
    while (bits) {
      heads.push_back(static_cast<std::uint32_t>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
      bits &= bits - 1;
    }
  }
  const std::size_t nheads = heads.size();

  // Bit-pack each head's signature into its bit-plane words
  // (2 * ceil(dim / 64): +1 bits, then -1 bits): two heads have equal
  // packed words iff their signatures are equal — the packing is
  // injective. Keys are head-major (keys[h * kw + w]), each head's words
  // one SignatureTable face record, so grouping compares contiguous
  // words and emission copies whole records.
  //
  // A table reclaimed by build_into hands its bit block back; the keys
  // are then packed into it and compacted in place into this table's
  // planes, one block per builder. Otherwise (build(), whose table is
  // taken for good) the keys are builder scratch and emission copies the
  // records into a block sized to the faces.
  const std::size_t half = SignatureTable::words_for(dim);
  const std::size_t kw = 2 * half;
  const bool in_place = table_storage_.bits.capacity() != 0;
  std::vector<std::uint64_t> reclaimed = std::move(table_storage_.bits);
  if (in_place) std::vector<std::uint64_t>().swap(scratch_.keys);
  std::vector<std::uint64_t>& keys = in_place ? reclaimed : scratch_.keys;
  keys.resize(nheads * kw);  // every word is written by pack_heads
  {
    FTTT_OBS_SPAN("facemap.assemble.pack");
    const SigValue* const* plane_ptrs = planes.data();
    const std::uint32_t* head_cells = heads.data();
    std::uint64_t* key_words = keys.data();
    for_each_block((nheads + kHeadBlock - 1) / kHeadBlock, nheads * dim, *pool_,
                   [&](std::size_t b) {
                     pack_heads(plane_ptrs, dim, head_cells, b * kHeadBlock,
                                std::min(nheads, (b + 1) * kHeadBlock), key_words);
                   });
  }

  // Group the heads by packed signature with ids in first-occurrence
  // order over the head sequence. Every signature's first cell (legacy
  // scan order) is a run head, so the ids reproduce the legacy
  // assignment exactly. Open addressing; the hash only routes to a
  // bucket — equality is always decided by comparing the full packed
  // words, so grouping stays exact whatever the hash does.
  std::vector<std::uint32_t>& group = scratch_.group;
  group.resize(nheads);
  std::vector<std::uint32_t>& rep = scratch_.rep;  // representative (first) cell per face
  rep.clear();
  rep.reserve(nheads / 2 + 1);
  std::vector<std::uint32_t>& rep_head = scratch_.rep_head;  // ... and its head index
  rep_head.clear();
  rep_head.reserve(nheads / 2 + 1);
  {
    FTTT_OBS_SPAN("facemap.assemble.group");
    constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
    std::size_t cap = 64;
    while (cap < 2 * nheads) cap <<= 1;
    const std::size_t cap_mask = cap - 1;
    std::vector<std::uint32_t>& bucket_head = scratch_.bucket_head;
    bucket_head.assign(cap, kEmpty);  // head index claiming it
    std::vector<std::uint32_t>& bucket_id = scratch_.bucket_id;
    bucket_id.resize(cap);  // read only after its bucket_head is claimed
    const std::uint64_t* key_words = keys.data();
    for (std::size_t h = 0; h < nheads; ++h) {
      // One mix step per (positive, negative) word pair: the negative
      // word enters through its own multiply, off the mix chain.
      std::uint64_t x = 0x9E3779B97F4A7C15ULL;
      for (std::size_t w = 0; w < half; ++w) {
        x ^= key_words[h * kw + w] + key_words[h * kw + half + w] * 0xC2B2AE3D27D4EB4FULL;
        x *= 0xFF51AFD7ED558CCDULL;
        x ^= x >> 33;
      }
      std::size_t idx = static_cast<std::size_t>(x) & cap_mask;
      for (;;) {
        const std::uint32_t occupant = bucket_head[idx];
        if (occupant == kEmpty) {
          bucket_head[idx] = static_cast<std::uint32_t>(h);
          bucket_id[idx] = static_cast<std::uint32_t>(rep.size());
          group[h] = bucket_id[idx];
          rep.push_back(heads[h]);
          rep_head.push_back(static_cast<std::uint32_t>(h));
          break;
        }
        if (std::equal(key_words + h * kw, key_words + (h + 1) * kw,
                       key_words + static_cast<std::size_t>(occupant) * kw)) {
          group[h] = bucket_id[idx];
          break;
        }
        idx = (idx + 1) & cap_mask;
      }
    }
  }
  const std::size_t faces = rep.size();

  // Expand runs into the cell -> face table, accumulating centroids and
  // cell counts per cell in scan order — the same additions in the same
  // order as the legacy grouping, hence bit-identical centroids. Every
  // horizontal face boundary sits at a (non-row-start) run head, so the
  // right-neighbor adjacency links fall out of the same sweep for free.
  // The cell table fills the output map's storage directly (every cell is
  // assigned below, so a recycled vector needs no clearing).
  std::vector<FaceId>& cell_face = out.cell_face_;
  cell_face.resize(cells);
  std::vector<Vec2>& centroid_sum = scratch_.centroid_sum;
  centroid_sum.assign(faces, Vec2{});
  std::vector<std::size_t>& cell_count = scratch_.cell_count;
  cell_count.assign(faces, 0);
  std::vector<std::uint64_t>& links = scratch_.links;
  links.clear();
  links.reserve(nheads * 2);
  const int cols = grid_.cols();
  const int rows = grid_.rows();
  std::size_t h = 0;
  std::size_t flat = 0;
  for (int j = 0; j < rows; ++j) {
    const double y = grid_.center({0, j}).y;
    FaceId id = 0;  // every row start is a head, so always reassigned
    for (int i = 0; i < cols; ++i, ++flat) {
      if (h < nheads && heads[h] == flat) {
        const FaceId next_id = static_cast<FaceId>(group[h++]);
        if (i > 0 && next_id != id)
          links.push_back((static_cast<std::uint64_t>(std::min(id, next_id)) << 32) |
                          std::max(id, next_id));
        id = next_id;
      }
      cell_face[flat] = id;
      centroid_sum[id].x += center_x_[static_cast<std::size_t>(i)];
      centroid_sum[id].y += y;
      ++cell_count[id];
    }
  }

  // Up-neighbor links: one flat compare of each row against the next.
  // A face pair sharing a multi-cell stretch of row boundary repeats
  // consecutively here; dropping those repeats up front keeps the
  // sort+unique in adjacency_from_links short.
  for (int j = 0; j + 1 < rows; ++j) {
    const FaceId* cur = cell_face.data() + grid_.flatten({0, j});
    const FaceId* up = cur + cols;
    std::uint64_t last = ~std::uint64_t{0};
    for (int i = 0; i < cols; ++i)
      if (cur[i] != up[i]) {
        const std::uint64_t packed =
            (static_cast<std::uint64_t>(std::min(cur[i], up[i])) << 32) |
            std::max(cur[i], up[i]);
        if (packed != last) links.push_back(packed);
        last = packed;
      }
  }

  // SoA table, plane-major straight from the planes: one task per row
  // gathers the representative cells and zeroes its own padding, so a
  // recycled table needs no separate clearing pass.
  const std::size_t padded_faces = SignatureTable::padded_for(faces);
  std::vector<SigValue> table = std::move(table_storage_.data);
  {
    FTTT_OBS_SPAN("facemap.assemble.emit_table");
    table.resize(dim * padded_faces);
    const SigValue* const* plane_ptrs = planes.data();
    const std::uint32_t* rep_cells = rep.data();
    SigValue* table_rows = table.data();
    for_each_block(dim, dim * padded_faces, *pool_, [&](std::size_t p) {
      emit_row(plane_ptrs[p], rep_cells, faces, padded_faces, table_rows + p * padded_faces);
    });
  }

  // Bit planes: each face's record is its representative head's key
  // record — no pass over the signatures. Face ids number heads in
  // first-occurrence order, so rep_head is strictly increasing and the
  // records compact forward in place.
  std::vector<std::uint64_t> bits;
  {
    FTTT_OBS_SPAN("facemap.assemble.emit_planes");
    if (in_place) {
      std::uint64_t* records = keys.data();
      for (std::size_t f = 0; f < faces; ++f)
        if (rep_head[f] != f)
          std::memmove(records + f * kw, records + static_cast<std::size_t>(rep_head[f]) * kw,
                       kw * sizeof(std::uint64_t));
      keys.resize(faces * kw);
      bits = std::move(keys);
    } else {
      bits.resize(faces * kw);
      const std::uint64_t* records = keys.data();
      const std::uint32_t* rep_heads = rep_head.data();
      std::uint64_t* face_records = bits.data();
      for_each_block((faces + kFaceBlock - 1) / kFaceBlock, faces * kw * sizeof(std::uint64_t),
                     *pool_, [&](std::size_t b) {
                       const std::size_t f1 = std::min(faces, (b + 1) * kFaceBlock);
                       for (std::size_t f = b * kFaceBlock; f < f1; ++f)
                         std::memcpy(face_records + f * kw,
                                     records + static_cast<std::size_t>(rep_heads[f]) * kw,
                                     kw * sizeof(std::uint64_t));
                     });
    }
  }

  // Per-face AoS signatures come off the finished table face-major in
  // 8 x 8 byte tiles. The face array is sized on this thread: recycled
  // Face objects keep their signature blocks across the resize, and
  // fresh ones allocate here rather than in pool tasks (no per-thread
  // malloc arenas, and no bad_alloc inside a parallel_for body).
  {
    FTTT_OBS_SPAN("facemap.assemble.emit_faces");
    out.faces_.resize(faces);
    for (std::size_t f = 0; f < faces; ++f) {
      Face& face = out.faces_[f];
      face.id = static_cast<FaceId>(f);
      face.signature.resize(dim);
      face.centroid = centroid_sum[f] / static_cast<double>(cell_count[f]);
      face.cell_count = cell_count[f];
    }
    const SigValue* table_rows = table.data();
    Face* face_ptr = out.faces_.data();
    for_each_block((faces + kFaceBlock - 1) / kFaceBlock, dim * faces, *pool_,
                   [&](std::size_t b) {
                     emit_signatures(table_rows, dim, padded_faces, b * kFaceBlock,
                                     std::min(faces, (b + 1) * kFaceBlock), face_ptr);
                   });
  }

  out.grid_ = grid_;
  out.nodes_ = active;
  out.C_ = C_;
  facemap_detail::adjacency_from_links_into(links, faces, scratch_.adjacency,
                                            out.adjacency_);
  table_ = SignatureTable(faces, dim, {std::move(table), std::move(bits)});
}

SignatureTable FaceMapBuilder::take_signature_table() {
  if (!table_)
    throw std::logic_error(
        "FaceMapBuilder::take_signature_table: no table — build() first "
        "(the table is consumed by each take)");
  SignatureTable taken = std::move(*table_);
  table_.reset();
  return taken;
}

HierFaceMap FaceMapBuilder::build_hierarchy() const {
  if (!table_)
    throw std::logic_error(
        "FaceMapBuilder::build_hierarchy: no table — build() first "
        "(and take_signature_table() consumes it)");
  return HierFaceMap::build(*table_, *pool_);
}

DivisionDelta FaceMapBuilder::delta_since(const FaceMap& prev,
                                          const FaceMap& next) const {
  DivisionDelta d;
  d.old_faces = prev.face_count();
  d.new_faces = next.face_count();
  d.old_dim = prev_pairs_.size();
  d.new_dim = last_pairs_.size();
  // Connectable only when prev/next are this builder's last two products:
  // two builds since construction/reset, and shapes that agree with the
  // bookkeeping. Anything else yields an invalid delta, never a wrong one.
  if (prev_pairs_.empty() || last_pairs_.empty()) return d;
  if (prev.dimension() != d.old_dim || next.dimension() != d.new_dim) return d;
  if (prev.cell_face_.size() != grid_.cell_count() ||
      next.cell_face_.size() != grid_.cell_count())
    return d;
  if (d.old_faces == 0 || d.new_faces == 0) return d;

  // Pair-plane remap: two-pointer merge over the ascending key lists.
  // A key the last build re-rasterized is excluded from "surviving" even
  // if it existed before — its cell data changed (moved node), so the
  // old tier's masks say nothing about it.
  d.plane_to_old.assign(d.new_dim, DivisionDelta::kNone);
  d.plane_to_new.assign(d.old_dim, DivisionDelta::kNone);
  {
    std::size_t o = 0;
    std::size_t r = 0;
    for (std::size_t c = 0; c < d.new_dim; ++c) {
      const std::uint64_t key = last_pairs_[c];
      while (o < d.old_dim && prev_pairs_[o] < key) ++o;
      while (r < last_rasterized_keys_.size() && last_rasterized_keys_[r] < key) ++r;
      const bool fresh = r < last_rasterized_keys_.size() && last_rasterized_keys_[r] == key;
      if (o < d.old_dim && prev_pairs_[o] == key && !fresh) {
        d.plane_to_old[c] = static_cast<std::uint32_t>(o);
        d.plane_to_new[o] = static_cast<std::uint32_t>(c);
      }
    }
  }

  // Source old tiles per new tile: one sweep over the two cell -> face
  // tables into a dense bitset, then CSR. Every cell of every face of a
  // new tile lands here, so the source set *covers* the tile — the fact
  // the purity shortcut's containment proof needs.
  constexpr std::size_t kTile = HierFaceMap::kTileFaces;
  const std::size_t old_tiles = (d.old_faces + kTile - 1) / kTile;
  const std::size_t new_tiles = (d.new_faces + kTile - 1) / kTile;
  const std::size_t words = (old_tiles + 63) / 64;
  std::vector<std::uint64_t> bits(new_tiles * words, 0);
  const std::size_t cells = grid_.cell_count();
  for (std::size_t c = 0; c < cells; ++c) {
    const std::size_t nt = next.cell_face_[c] / kTile;
    const std::size_t ot = prev.cell_face_[c] / kTile;
    bits[nt * words + (ot >> 6)] |= std::uint64_t{1} << (ot & 63);
  }
  d.tile_source_offsets.assign(new_tiles + 1, 0);
  for (std::size_t t = 0; t < new_tiles; ++t) {
    std::uint32_t n = 0;
    for (std::size_t w = 0; w < words; ++w)
      n += static_cast<std::uint32_t>(std::popcount(bits[t * words + w]));
    d.tile_source_offsets[t + 1] = d.tile_source_offsets[t] + n;
  }
  d.tile_sources.resize(d.tile_source_offsets[new_tiles]);
  for (std::size_t t = 0; t < new_tiles; ++t) {
    std::uint32_t* row = d.tile_sources.data() + d.tile_source_offsets[t];
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t b = bits[t * words + w];
      while (b) {
        *row++ = static_cast<std::uint32_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(b)));
        b &= b - 1;
      }
    }
  }
  d.valid = true;
  return d;
}

HierFaceMap FaceMapBuilder::patch_hierarchy(const HierFaceMap& prev,
                                            const DivisionDelta& delta,
                                            HierPatchReport* report) const {
  if (!table_)
    throw std::logic_error(
        "FaceMapBuilder::patch_hierarchy: no table — build() first "
        "(and take_signature_table() consumes it)");
  return HierFaceMap::patched(prev, *table_, delta, *pool_, report);
}

Division FaceMapBuilder::build_division(bool hierarchical, const Division* prev) {
  Division d;
  d.map = std::make_shared<const FaceMap>(build());
  // The tier reads the stored table, so it comes off the builder before
  // take_signature_table() below consumes it.
  if (hierarchical) {
    if (prev && prev->hier && prev->index) {
      const DivisionDelta delta = delta_since(*prev->map, *d.map);
      if (delta.valid) {
        HierPatchReport report;
        d.hier = std::make_shared<const HierFaceMap>(
            patch_hierarchy(*prev->hier, delta, &report));
        if (report.structure_matched)
          d.index = std::make_shared<const SignatureIndex>(
              SignatureIndex::patched(*d.hier, *prev->index, delta, report, *pool_));
      }
    }
    if (!d.hier) d.hier = std::make_shared<const HierFaceMap>(build_hierarchy());
    if (!d.index)
      d.index = std::make_shared<const SignatureIndex>(SignatureIndex::build(*d.hier, *pool_));
  }
  d.table = std::make_shared<const SignatureTable>(take_signature_table());
  d.members.reserve(active_count());
  for (NodeId id = 0; id < roster_.size(); ++id)
    if (active_[id]) d.members.push_back(id);
  return d;
}

}  // namespace fttt
