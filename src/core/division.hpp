// One servable face division: the unit every consumer of the
// preprocessing output takes.
//
// A division is the face map of the field for one active node set plus
// everything derived from it that matchers share: the SoA signature
// table, and optionally the coarse descent tier with its index. Under
// the paper's fault model the division is re-derived whenever a node
// fails or revives, so it is produced in exactly one place —
// FaceMapBuilder::build_division, which owns the table-lifetime
// ordering and the patch-or-build rule for the tier — and handed around
// whole: FaceMapCache entries, the serve fleet's double buffer and the
// epoch pipeline's maps are all this one value.
//
// Immutable: every payload is shared const, so copies are cheap and any
// number of matchers, shards and cache readers may hold one. A new
// division replaces an old one whole; nothing edits one in place.
#pragma once

#include <memory>
#include <vector>

#include "core/facemap.hpp"
#include "core/hier_facemap.hpp"
#include "core/signature_index.hpp"
#include "core/signature_table.hpp"
#include "net/sensor.hpp"

namespace fttt {

struct Division {
  std::shared_ptr<const FaceMap> map;
  /// SoA signature table of `map` (BatchMatcher adopts it as is).
  std::shared_ptr<const SignatureTable> table;
  /// Coarse descent tier over `table` and its index: both set or both
  /// null (BatchMatcher::attach_hierarchy takes them together).
  std::shared_ptr<const HierFaceMap> hier;
  std::shared_ptr<const SignatureIndex> index;
  /// Roster ids the division covers, ascending: local node i of `map`
  /// is roster node members[i].
  std::vector<NodeId> members;
};

}  // namespace fttt
