//===- opt/checks/RangeAnalysis.h - symbolic pointer ranges -----*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The value-range analysis underneath the check optimizer. Pointer SSA
/// values are decomposed into a *root* (the SSA value the pointer was
/// derived from by bitcasts and constant-index GEPs) plus a constant byte
/// offset. A spatial check `check(p, b, size)` then proves the symbolic
/// fact "bytes [off, off+size) past root are inside [base(b), bound(b))",
/// and those facts — keyed by (root, bounds) and held as merged interval
/// sets in a ScopedFacts table — flow down the dominator tree: any later
/// check whose interval is covered is statically redundant. Every offset
/// fold here reads the GEP layout through GEPInst::walkSteps.
///
/// Facts never need invalidation: a check consumes only its two SSA
/// operands, whose dynamic values no store, call, or metadata update can
/// change. (Temporal safety is out of scope, exactly as in the paper.)
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_OPT_CHECKS_RANGEANALYSIS_H
#define SOFTBOUND_OPT_CHECKS_RANGEANALYSIS_H

#include "ir/BasicBlock.h"

#include <map>
#include <utility>
#include <vector>

namespace softbound {
namespace checkopt {

/// Folded offsets are capped here: offsets past it never appear in
/// well-behaved programs, and bailing out (keeping the check) both avoids
/// overflow in the accumulation and keeps the facts honest where 64-bit
/// address arithmetic could wrap.
constexpr int64_t MaxFoldedOffset = int64_t(1) << 40;

/// A pointer expressed as a root SSA value plus a constant byte offset.
struct PtrOffset {
  Value *Root = nullptr;
  int64_t Offset = 0;
};

/// Strips bitcasts and constant-index GEPs off \p P, accumulating the byte
/// offset. Always succeeds: the worst case is Root == P, Offset == 0.
PtrOffset decomposePointer(Value *P);

/// decomposePointer restricted to GEPs that stay inside their object's
/// layout: every index non-negative and every array index below the
/// array's count (the first index is plain pointer arithmetic and is not
/// count-checked). The CCured-SAFE elision tests the Root for a stack or
/// global object and partitioning for a malloc call; a GEP that breaks
/// the rule stays as the Root, which is neither.
PtrOffset constantObjectOffset(Value *P);

/// A pointer expressed as root + Base + Scale * Index bytes, where Index
/// is a single SSA integer (null for purely constant offsets). This is the
/// symbolic generalization of PtrOffset the inter-procedural propagation
/// keys its facts on: two checks on `a[i]` prove the same bytes whenever
/// their roots, scales, and index SSA values coincide.
struct LinearPtr {
  Value *Root = nullptr;
  int64_t Base = 0;
  int64_t Scale = 0;       ///< 0 when Index is null.
  Value *Index = nullptr;  ///< Sign-extension-stripped SSA index, or null.
};

/// Strips value-preserving sign extensions (the frontend widens every
/// array index to i64 with sext). Identity for everything else.
Value *stripSExt(Value *V);

/// Decomposes \p P as root + Base + Scale * Index, walking bitcasts and
/// GEPs. At most one distinct variable index is folded in (repeated uses
/// of the same SSA index accumulate into Scale); a second distinct
/// variable stops the walk at the containing GEP's pointer. Always
/// succeeds in the PtrOffset sense: worst case Root == P.
LinearPtr decomposeLinearPtr(Value *P);

/// Half-open byte interval [Lo, Hi).
struct ByteInterval {
  int64_t Lo = 0;
  int64_t Hi = 0;
};

/// A sorted set of disjoint intervals with merge-on-insert, so adjacent
/// proven ranges ([0,4) then [4,8)) cover their union ([0,8)).
class IntervalSet {
public:
  bool covers(int64_t Lo, int64_t Hi) const;
  void add(int64_t Lo, int64_t Hi);
  size_t size() const { return Iv.size(); }
  const std::vector<ByteInterval> &intervals() const { return Iv; }

private:
  std::vector<ByteInterval> Iv; ///< Sorted by Lo; disjoint, non-adjacent.
};

/// Scoped Key -> proven-interval facts for a preorder walk of the
/// dominator tree (walkDomTree): take mark() on entering a tree node and
/// rollbackTo() it on leaving, so only facts established on the
/// dominating path stay visible. Redundant-check elimination keys facts
/// by (pointer or decomposed root, bounds); the inter-procedural
/// propagation by its symbolic (root, scale, index, bounds) key.
template <typename Key> class ScopedFacts {
public:
  bool covers(const Key &K, int64_t Lo, int64_t Hi) const {
    auto It = Facts.find(K);
    return It != Facts.end() && It->second.covers(Lo, Hi);
  }

  void add(const Key &K, int64_t Lo, int64_t Hi) {
    if (Lo >= Hi)
      return;
    IntervalSet &S = Facts[K];
    Undo.emplace_back(K, S); // Snapshot for rollback.
    S.add(Lo, Hi);
  }

  size_t mark() const { return Undo.size(); }

  void rollbackTo(size_t Mark) {
    while (Undo.size() > Mark) {
      Facts[Undo.back().first] = std::move(Undo.back().second);
      Undo.pop_back();
    }
  }

private:
  std::map<Key, IntervalSet> Facts;
  std::vector<std::pair<Key, IntervalSet>> Undo;
};

} // namespace checkopt
} // namespace softbound

#endif // SOFTBOUND_OPT_CHECKS_RANGEANALYSIS_H
