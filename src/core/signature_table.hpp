// Structure-of-arrays signature table (the batched-matching backbone).
//
// A FaceMap stores faces row-of-structs: face -> signature vector. Bulk
// matching wants the transpose: one contiguous int8_t *plane* per node
// pair holding that pair's component for every face, faces as columns
// padded to a cache-line multiple. Distance accumulation over a batch of
// sampling vectors then streams each plane once with a unit-stride,
// auto-vectorizable inner loop, and a '*' component skips a whole plane
// instead of branching per face (the Eq. 7 wildcard lifted to a per-plane
// mask).
//
// The table stores every signature a second time, bit-sliced: per face,
// plane_words() = ceil(dimension / 64) *positive* words (bit c % 64 of
// word c / 64 set where component c is +1) followed by as many *negative*
// words (set where it is -1); bits past the dimension are zero. Basic-mode
// vectors (every known component in {-1, 0, +1}) match against these
// with an exact popcount kernel (docs/matching.md); extended-mode vectors
// and the descent tier read the int8 planes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/facemap.hpp"

namespace fttt {

class SignatureTable {
 public:
  /// Columns per padding block: one 64-byte cache line of int8 columns,
  /// so every plane starts line-aligned relative to the first.
  static constexpr std::size_t kBlock = 64;

  /// Node pairs per bit-plane word.
  static constexpr std::size_t kPairsPerWord = 64;

  explicit SignatureTable(const FaceMap& map);

  std::size_t face_count() const { return face_count_; }
  std::size_t dimension() const { return dimension_; }

  /// face_count() rounded up to kBlock: the stride between planes.
  std::size_t padded_faces() const { return padded_; }

  /// Plane of node pair `pair`: padded_faces() components, one per face
  /// column in face-id order; pad columns hold 0.
  const SigValue* plane(std::size_t pair) const {
    return data_.data() + pair * padded_;
  }

  /// Component of `pair` for one face (column access; prefer plane()
  /// streaming in hot loops — columns stride by padded_faces()).
  SigValue at(std::size_t pair, FaceId face) const { return plane(pair)[face]; }

  /// Words per bit-sliced half (positive or negative) of one face.
  std::size_t plane_words() const { return words_; }

  /// Bit-sliced signature of `face`: plane_words() positive words, then
  /// plane_words() negative words. Faces are contiguous, 2 * plane_words()
  /// words apart.
  const std::uint64_t* face_bits(FaceId face) const {
    return bits_.data() + static_cast<std::size_t>(face) * 2 * words_;
  }

  /// Padded plane stride for `faces` face columns.
  static constexpr std::size_t padded_for(std::size_t faces) {
    return (faces + kBlock - 1) / kBlock * kBlock;
  }

  /// Bit-plane words per half for `dimension` pairs.
  static constexpr std::size_t words_for(std::size_t dimension) {
    return (dimension + kPairsPerWord - 1) / kPairsPerWord;
  }

  /// Payload bytes of the int8 planes plus the bit planes (FaceMapCache
  /// accounting).
  std::size_t bytes() const {
    return data_.size() * sizeof(SigValue) + bits_.size() * sizeof(std::uint64_t);
  }

 private:
  friend class FaceMapBuilder;  ///< emits planes directly (no transposition)

  /// The table's two heap blocks, handed back and forth by the builder's
  /// rebuild-into path.
  struct Storage {
    std::vector<SigValue> data;
    std::vector<std::uint64_t> bits;
  };

  /// Adopt prebuilt plane data (dimension int8 planes of padded_for(faces)
  /// columns, pad columns zero; faces x 2 x words_for(dimension) bit
  /// words, tail bits zero). Contract-checked, not validated against a
  /// map: reserved for the plane-major builder, which derives the data
  /// and the map from the same cell planes.
  SignatureTable(std::size_t faces, std::size_t dimension, Storage storage);

  /// Hand the plane storage back for reuse (FaceMapBuilder's
  /// rebuild-into path round-trips the heap blocks through successive
  /// tables). Leaves `t` empty.
  static Storage reclaim(SignatureTable&& t) {
    t.face_count_ = t.dimension_ = t.padded_ = t.words_ = 0;
    return Storage{std::move(t.data_), std::move(t.bits_)};
  }

  std::size_t face_count_{0};
  std::size_t dimension_{0};
  std::size_t padded_{0};
  std::size_t words_{0};
  std::vector<SigValue> data_;       ///< dimension_ planes of padded_ columns
  std::vector<std::uint64_t> bits_;  ///< face_count_ x 2 x words_ bit words
};

}  // namespace fttt
