#include "core/signature_table.hpp"

#include "common/check.hpp"

namespace fttt {

SignatureTable::SignatureTable(std::size_t faces, std::size_t dimension, Storage storage)
    : face_count_(faces),
      dimension_(dimension),
      padded_(padded_for(faces)),
      words_(words_for(dimension)),
      data_(std::move(storage.data)),
      bits_(std::move(storage.bits)) {
  FTTT_CHECK(face_count_ > 0, "SignatureTable: empty face set");
  FTTT_CHECK(data_.size() == dimension_ * padded_,
             "SignatureTable: plane data size ", data_.size(), " != ",
             dimension_, " planes x ", padded_, " columns");
  FTTT_CHECK(bits_.size() == face_count_ * 2 * words_,
             "SignatureTable: bit-plane size ", bits_.size(), " != ", face_count_,
             " faces x 2 x ", words_, " words");
}

SignatureTable::SignatureTable(const FaceMap& map)
    : face_count_(map.face_count()),
      dimension_(map.dimension()),
      padded_(padded_for(map.face_count())),
      words_(words_for(map.dimension())) {
  FTTT_CHECK(face_count_ > 0, "SignatureTable: empty face map");
  data_.assign(dimension_ * padded_, 0);
  bits_.assign(face_count_ * 2 * words_, 0);
  for (const Face& f : map.faces()) {
    FTTT_DCHECK(f.signature.size() == dimension_, "face ", f.id,
                " signature dimension ", f.signature.size(), " != ", dimension_);
    std::uint64_t* pos = bits_.data() + static_cast<std::size_t>(f.id) * 2 * words_;
    std::uint64_t* neg = pos + words_;
    for (std::size_t c = 0; c < dimension_; ++c) {
      const SigValue v = f.signature[c];
      data_[c * padded_ + f.id] = v;
      const std::uint64_t bit = std::uint64_t{1} << (c % kPairsPerWord);
      if (v > 0) pos[c / kPairsPerWord] |= bit;
      if (v < 0) neg[c / kPairsPerWord] |= bit;
    }
  }
}

}  // namespace fttt
