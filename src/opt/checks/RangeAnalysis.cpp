//===- opt/checks/RangeAnalysis.cpp - symbolic pointer ranges ---------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/checks/RangeAnalysis.h"

#include "support/Casting.h"

#include <algorithm>

using namespace softbound;
using namespace softbound::checkopt;

namespace {

/// Which GEPs an offset fold absorbs.
enum class FoldRule {
  Constant, ///< Constant indices (decomposePointer).
  Object,   ///< Constant, non-negative, inside each array.
  Linear,   ///< Plus one distinct variable index (decomposeLinearPtr).
};

/// The walk behind every decomposition below: folds bitcasts and the GEPs
/// \p Rule admits into root + Base + Scale * Index. A GEP that breaks the
/// rule, or takes Base or Scale past MaxFoldedOffset at any step, becomes
/// the Root. Bounded: derivation chains are short, but guard against
/// cycles in malformed IR.
LinearPtr fold(Value *P, FoldRule Rule) {
  LinearPtr Out;
  Out.Root = P;
  for (int Depth = 0; Depth < 64; ++Depth) {
    if (auto *BC = dyn_cast<CastInst>(Out.Root);
        BC && BC->opcode() == CastInst::Op::Bitcast) {
      Out.Root = BC->source();
      continue;
    }
    auto *G = dyn_cast<GEPInst>(Out.Root);
    if (!G)
      break;
    __int128 Base = Out.Base;
    __int128 Scale = Out.Scale;
    Value *Idx = Out.Index;
    bool OK = G->walkSteps([&](const GEPStep &S) {
      auto *CI = dyn_cast<ConstantInt>(S.Index);
      if (S.Field) {
        Base += S.Bytes;
      } else if (CI) {
        if (Rule == FoldRule::Object &&
            (CI->value() < 0 ||
             (S.Array && static_cast<uint64_t>(CI->value()) >=
                             S.Array->count())))
          return false;
        Base += __int128(CI->value()) * S.Bytes;
      } else if (Rule != FoldRule::Linear) {
        return false;
      } else if (S.Bytes != 0) { // A zero-sized step contributes nothing.
        Value *V = stripSExt(S.Index);
        if (Idx && Idx != V)
          return false; // Two distinct variable indices: stop at this GEP.
        Idx = V;
        Scale += S.Bytes;
      }
      return Base >= -__int128(MaxFoldedOffset) &&
             Base <= __int128(MaxFoldedOffset) &&
             Scale <= __int128(MaxFoldedOffset);
    });
    if (!OK)
      break;
    Out.Base = static_cast<int64_t>(Base);
    Out.Scale = static_cast<int64_t>(Scale);
    Out.Index = Idx;
    Out.Root = G->pointer();
  }
  if (Out.Scale == 0)
    Out.Index = nullptr;
  return Out;
}

} // namespace

PtrOffset checkopt::decomposePointer(Value *P) {
  LinearPtr L = fold(P, FoldRule::Constant);
  return {L.Root, L.Base};
}

PtrOffset checkopt::constantObjectOffset(Value *P) {
  LinearPtr L = fold(P, FoldRule::Object);
  return {L.Root, L.Base};
}

LinearPtr checkopt::decomposeLinearPtr(Value *P) {
  return fold(P, FoldRule::Linear);
}

Value *checkopt::stripSExt(Value *V) {
  for (int Depth = 0; Depth < 64; ++Depth) {
    auto *C = dyn_cast<CastInst>(V);
    if (!C || C->opcode() != CastInst::Op::SExt)
      break;
    V = C->source();
  }
  return V;
}

bool IntervalSet::covers(int64_t Lo, int64_t Hi) const {
  if (Lo >= Hi)
    return true; // Empty access: trivially covered.
  // First interval whose Lo is > our Lo; the candidate is its predecessor.
  auto It = std::upper_bound(
      Iv.begin(), Iv.end(), Lo,
      [](int64_t V, const ByteInterval &B) { return V < B.Lo; });
  if (It == Iv.begin())
    return false;
  --It;
  return It->Lo <= Lo && Hi <= It->Hi;
}

void IntervalSet::add(int64_t Lo, int64_t Hi) {
  if (Lo >= Hi)
    return;
  // Find the insertion window: all intervals overlapping or adjacent to
  // [Lo, Hi) get merged into it.
  auto First = std::lower_bound(
      Iv.begin(), Iv.end(), Lo,
      [](const ByteInterval &B, int64_t V) { return B.Hi < V; });
  auto Last = First;
  while (Last != Iv.end() && Last->Lo <= Hi) {
    Lo = std::min(Lo, Last->Lo);
    Hi = std::max(Hi, Last->Hi);
    ++Last;
  }
  First = Iv.erase(First, Last);
  Iv.insert(First, ByteInterval{Lo, Hi});
}
