//===- opt/checks/InterProc.cpp - inter-procedural bounds propagation -------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the propagation described in InterProc.h. The moving
/// parts, in the order they appear below:
///
///   * IntRange arithmetic — interval transfer functions that mirror the
///     VM's wrap-around semantics: any result whose exact endpoints
///     escape the type's signed window collapses to the type's full
///     range, so the lattice stays sound whether or not a computation
///     wraps. This includes the i64 window itself (the VM wraps 64-bit
///     arithmetic, canon() is the identity there), so transfers never
///     saturate endpoints — a saturated bound would claim a wrapped value
///     still lies on the unwrapped side.
///   * ScalarRanges — per-function interval analysis: RPO fixpoint with
///     phi widening (thresholds {0, +/-inf}) and branch-condition
///     refinement accumulated down the dominator tree, so `if (i < 128)`
///     and `while (top > 0)` guards narrow their regions.
///   * CanonBounds — bounds values normalized to (anchor, [Lo, Hi))
///     intervals; two MakeBounds over the same anchor with equal offsets
///     denote the same dynamic bounds, and a whole-global canon is the
///     license for static range elision (shrunk sub-object bounds never
///     canonicalize to their global).
///   * FactKey — the (root, scale, index, bounds) key of the walk's
///     ScopedFacts table (RangeAnalysis.h), the symbolic generalization
///     of redundant-check elimination's (root, bounds) key.
///   * Summaries + substitution — per-function argument/global check
///     requirements, must-execute check hulls, and return-checked hulls,
///     each substitutable at a call site through the sbabi layout.
///   * argRangeFixpoint — top-down argument-range propagation to a
///     widened fixpoint, computed once per checkopt run (InterProcEngine).
///   * Propagation — one fact walk per function (walkDomTree,
///     Dominators.h) and the final mark-and-sweep.
///
//===----------------------------------------------------------------------===//

#include "opt/checks/InterProc.h"

#include "opt/Dominators.h"
#include "opt/Passes.h"
#include "opt/checks/CallGraph.h"
#include "opt/checks/CheckOpt.h"
#include "opt/checks/Predicates.h"
#include "opt/checks/RangeAnalysis.h"
#include "softbound/SoftBoundPass.h"
#include "support/Casting.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

using namespace softbound;
using namespace softbound::checkopt;

//===----------------------------------------------------------------------===//
// Interval arithmetic
//===----------------------------------------------------------------------===//

namespace {

/// True when \p V lies outside the i64 lattice domain. A transfer whose
/// exact endpoint escapes must collapse to IntRange::full(), never
/// saturate: the VM wraps 64-bit arithmetic, so the runtime value lands
/// on the *other* side of the window, outside any saturated interval —
/// and clampWidth cannot catch the escape at width 64 because
/// fullWidth(64) contains every saturated range.
bool escapesI64(__int128 V) { return V < INT64_MIN || V > INT64_MAX; }

IntRange join(IntRange A, IntRange B) {
  if (A.empty())
    return B;
  if (B.empty())
    return A;
  return {std::min(A.Lo, B.Lo), std::max(A.Hi, B.Hi)};
}

IntRange meet(IntRange A, IntRange B) {
  if (A.empty() || B.empty())
    return IntRange();
  IntRange R{std::max(A.Lo, B.Lo), std::min(A.Hi, B.Hi)};
  return R.Lo > R.Hi ? IntRange() : R;
}

/// The canonical value range of a \p Bits-wide integer. i1 is special: the
/// VM stores comparison results as raw 0/1 but canonicalizes arithmetic
/// results, so both 1 and -1 can represent true.
IntRange fullWidth(unsigned Bits) {
  if (Bits >= 64)
    return IntRange::full();
  if (Bits <= 1)
    return IntRange::make(-1, 1);
  int64_t M = int64_t(1) << (Bits - 1);
  return IntRange::make(-M, M - 1);
}

/// Threshold widening for a value whose joined inputs are already
/// canonical in \p Bits: a bound that moved jumps to 0 first
/// (non-negativity is the property the global-array proofs need), then to
/// the width's window edge — never past it, so a widened non-negative
/// lower bound survives the width clamp.
IntRange widen(IntRange Old, IntRange New, unsigned Bits) {
  if (Old.empty())
    return New;
  IntRange FW = fullWidth(Bits);
  IntRange W = New;
  if (New.Lo < Old.Lo)
    W.Lo = New.Lo >= 0 ? 0 : FW.Lo;
  if (New.Hi > Old.Hi)
    W.Hi = New.Hi <= 0 ? 0 : FW.Hi;
  return W;
}

/// Collapses any range escaping the type's canonical window to the full
/// window — sound whether the escaping computation wraps (the VM
/// canonicalizes) or not.
IntRange clampWidth(IntRange R, unsigned Bits) {
  if (R.empty())
    return R;
  IntRange FW = fullWidth(Bits);
  return FW.contains(R.Lo, R.Hi) ? R : FW;
}

IntRange addR(IntRange A, IntRange B) {
  if (A.empty() || B.empty())
    return IntRange();
  __int128 Lo = __int128(A.Lo) + B.Lo, Hi = __int128(A.Hi) + B.Hi;
  if (escapesI64(Lo) || escapesI64(Hi))
    return IntRange::full();
  return {static_cast<int64_t>(Lo), static_cast<int64_t>(Hi)};
}

IntRange subR(IntRange A, IntRange B) {
  if (A.empty() || B.empty())
    return IntRange();
  __int128 Lo = __int128(A.Lo) - B.Hi, Hi = __int128(A.Hi) - B.Lo;
  if (escapesI64(Lo) || escapesI64(Hi))
    return IntRange::full();
  return {static_cast<int64_t>(Lo), static_cast<int64_t>(Hi)};
}

IntRange mulR(IntRange A, IntRange B) {
  if (A.empty() || B.empty())
    return IntRange();
  __int128 C[4] = {__int128(A.Lo) * B.Lo, __int128(A.Lo) * B.Hi,
                   __int128(A.Hi) * B.Lo, __int128(A.Hi) * B.Hi};
  __int128 Lo = C[0], Hi = C[0];
  for (__int128 V : C) {
    Lo = std::min(Lo, V);
    Hi = std::max(Hi, V);
  }
  if (escapesI64(Lo) || escapesI64(Hi))
    return IntRange::full();
  return {static_cast<int64_t>(Lo), static_cast<int64_t>(Hi)};
}

/// Truncating signed division by a provably positive divisor range.
IntRange divR(IntRange A, IntRange B) {
  if (A.empty() || B.empty())
    return IntRange();
  if (B.Lo < 1)
    return IntRange::full();
  int64_t C[4] = {A.Lo / B.Lo, A.Lo / B.Hi, A.Hi / B.Lo, A.Hi / B.Hi};
  return {*std::min_element(C, C + 4), *std::max_element(C, C + 4)};
}

/// Signed remainder by a provably positive divisor range: |result| is
/// bounded by divisor-1 and by the dividend, and takes the dividend's sign.
IntRange remR(IntRange A, IntRange B) {
  if (A.empty() || B.empty())
    return IntRange();
  if (B.Lo < 1)
    return IntRange::full();
  int64_t M = B.Hi - 1;
  int64_t Lo = A.Lo >= 0 ? 0 : std::max(A.Lo, -M);
  int64_t Hi = A.Hi <= 0 ? 0 : std::min(A.Hi, M);
  return {Lo, Hi};
}

//===----------------------------------------------------------------------===//
// Branch refinement
//===----------------------------------------------------------------------===//

/// One `v PRED C` fact attached to a block or edge, keyed on the
/// sign-extension-stripped SSA value.
struct Refine {
  const Value *Key;
  ICmpInst::Pred P;
  int64_t C;
};

IntRange applyRefine(IntRange R, ICmpInst::Pred P, int64_t C) {
  using Pred = ICmpInst::Pred;
  if (R.empty())
    return R;
  switch (P) {
  case Pred::SLT:
    if (C == INT64_MIN)
      return IntRange();
    R.Hi = std::min(R.Hi, C - 1);
    break;
  case Pred::SLE:
    R.Hi = std::min(R.Hi, C);
    break;
  case Pred::SGT:
    if (C == INT64_MAX)
      return IntRange();
    R.Lo = std::max(R.Lo, C + 1);
    break;
  case Pred::SGE:
    R.Lo = std::max(R.Lo, C);
    break;
  case Pred::EQ:
    return meet(R, IntRange::of(C));
  case Pred::NE:
    if (R.Lo == C && R.Lo < INT64_MAX)
      R.Lo = C + 1;
    if (R.Hi == C && R.Hi > INT64_MIN)
      R.Hi = C - 1;
    break;
  // Unsigned comparisons against a non-negative (sign-extended) constant:
  // a negative canonical value masks to >= 2^(w-1) > C, so `v u< C`
  // implies v in [0, C-1]. Negative constants and the >= direction carry
  // no interval information (the satisfying set has a hole).
  case Pred::ULT:
    if (C >= 0)
      return meet(R, IntRange::make(0, C - 1));
    break;
  case Pred::ULE:
    if (C >= 0)
      return meet(R, IntRange::make(0, C));
    break;
  case Pred::UGT:
  case Pred::UGE:
    break;
  }
  return R.Lo > R.Hi ? IntRange() : R;
}

/// Extracts a `value PRED constant` refinement from \p IC, or false.
bool extractRefine(const ICmpInst *IC, Refine &Out) {
  if (!IC->lhs()->type()->isInt())
    return false;
  if (auto *C = dyn_cast<ConstantInt>(IC->rhs());
      C && !isa<ConstantInt>(IC->lhs())) {
    Out = {stripSExt(IC->lhs()), IC->pred(), C->value()};
    return true;
  }
  if (auto *C = dyn_cast<ConstantInt>(IC->lhs());
      C && !isa<ConstantInt>(IC->rhs())) {
    Out = {stripSExt(IC->rhs()), swapPred(IC->pred()), C->value()};
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Per-function scalar range analysis
//===----------------------------------------------------------------------===//

class ScalarRanges {
public:
  ScalarRanges(Function &F, const DomTree &DT,
               const std::vector<IntRange> &ArgRanges)
      : F(F), DT(DT), Args(ArgRanges) {
    for (BasicBlock *BB : DT.rpo())
      Reachable.insert(BB);
    buildRefinements();
    iterate();
  }

  /// Range of \p V's canonical value when observed in \p B. An
  /// interrupted ascending fixpoint under-approximates, which would be
  /// unsound to act on, so external queries degrade to the type's full
  /// window unless the iteration converged.
  IntRange at(const Value *V, const BasicBlock *B) const {
    if (isa<ConstantInt>(V))
      return base(V);
    if (!Converged)
      return V->type()->isInt()
                 ? fullWidth(cast<IntType>(V->type())->bits())
                 : IntRange::full();
    return atImpl(V, B);
  }

private:
  /// The unguarded lookup the fixpoint itself evaluates with.
  IntRange atImpl(const Value *V, const BasicBlock *B) const {
    IntRange R = base(V);
    if (isa<ConstantInt>(V))
      return R;
    const Value *Key = stripSExt(const_cast<Value *>(V));
    auto It = AccRef.find(B);
    if (It != AccRef.end())
      for (const Refine &Rf : It->second)
        if (Rf.Key == Key)
          R = applyRefine(R, Rf.P, Rf.C);
    return R;
  }
  IntRange base(const Value *V) const {
    if (auto *C = dyn_cast<ConstantInt>(V))
      return IntRange::of(C->value());
    if (auto *A = dyn_cast<Argument>(V)) {
      if (A->parent() != &F || !A->type()->isInt())
        return IntRange::full();
      IntRange R = A->index() < Args.size() ? Args[A->index()]
                                            : IntRange::full();
      return clampWidth(R, cast<IntType>(A->type())->bits());
    }
    if (auto *I = dyn_cast<Instruction>(V)) {
      auto It = Ranges.find(I);
      return It == Ranges.end() ? IntRange() : It->second;
    }
    return IntRange::full(); // Undef and friends: anything.
  }

  /// Range of \p V on the \p P -> \p B edge (for phi incomings).
  IntRange atEdge(const Value *V, const BasicBlock *P,
                  const BasicBlock *B) const {
    IntRange R = atImpl(V, P);
    if (isa<ConstantInt>(V))
      return R;
    const Value *Key = stripSExt(const_cast<Value *>(V));
    auto It = EdgeRef.find({P, B});
    if (It != EdgeRef.end())
      for (const Refine &Rf : It->second)
        if (Rf.Key == Key)
          R = applyRefine(R, Rf.P, Rf.C);
    return R;
  }

  void buildRefinements() {
    for (BasicBlock *BB : DT.rpo()) {
      if (BB->empty())
        continue;
      auto *Br = dyn_cast<BrInst>(BB->terminator());
      if (!Br || !Br->isConditional() ||
          Br->successor(0) == Br->successor(1))
        continue;
      bool Negate = false;
      const ICmpInst *IC = peelCondition(Br->condition(), Negate);
      Refine R;
      if (!IC || !extractRefine(IC, R))
        continue;
      if (Negate) // The branch tests the comparison's complement.
        R.P = invertPred(R.P);
      EdgeRef[{BB, Br->successor(0)}].push_back(R);
      EdgeRef[{BB, Br->successor(1)}].push_back(
          {R.Key, invertPred(R.P), R.C});
    }
    // Accumulate down the dominator tree: a block with a unique CFG
    // predecessor inherits that edge's refinements for itself and its
    // dominated subtree. Preorder visits a block's immediate dominator
    // before the block itself.
    auto Enter = [&](BasicBlock *BB) {
      std::vector<Refine> Acc;
      if (BasicBlock *P = DT.idom(BB))
        Acc = AccRef[P];
      const auto &Preds = DT.preds(BB);
      if (Preds.size() == 1) {
        auto It = EdgeRef.find({Preds[0], BB});
        if (It != EdgeRef.end())
          for (const Refine &R : It->second)
            Acc.push_back(R);
      }
      AccRef[BB] = std::move(Acc);
    };
    walkDomTree(DT, F.entry(), Enter, [](BasicBlock *) {});
  }

  IntRange evalInst(const Instruction *I, const BasicBlock *B) const {
    unsigned Bits = I->type()->isInt() ? cast<IntType>(I->type())->bits() : 64;
    switch (I->kind()) {
    case ValueKind::Phi: {
      auto *P = cast<PhiInst>(I);
      IntRange R;
      for (unsigned K = 0; K < P->numIncoming(); ++K) {
        BasicBlock *Pred = P->incomingBlock(K);
        if (!Reachable.count(Pred))
          continue;
        R = join(R, atEdge(P->incomingValue(K), Pred, B));
      }
      return clampWidth(R, Bits);
    }
    case ValueKind::BinOp: {
      auto *BO = cast<BinOpInst>(I);
      IntRange L = atImpl(BO->lhs(), B), R = atImpl(BO->rhs(), B);
      if (L.empty() || R.empty())
        return IntRange();
      IntRange Out;
      switch (BO->opcode()) {
      case BinOpInst::Op::Add:
        Out = addR(L, R);
        break;
      case BinOpInst::Op::Sub:
        Out = subR(L, R);
        break;
      case BinOpInst::Op::Mul:
        Out = mulR(L, R);
        break;
      case BinOpInst::Op::SDiv:
        Out = divR(L, R);
        break;
      case BinOpInst::Op::SRem:
        Out = remR(L, R);
        break;
      case BinOpInst::Op::UDiv:
      case BinOpInst::Op::URem: {
        // The VM masks operands to the unsigned width; when both ranges
        // are provably within the non-negative signed window the masking
        // is the identity and the signed rules apply.
        IntRange NonNeg = IntRange::make(0, fullWidth(Bits).Hi);
        if (NonNeg.contains(L.Lo, L.Hi) && NonNeg.contains(R.Lo, R.Hi))
          Out = BO->opcode() == BinOpInst::Op::UDiv ? divR(L, R) : remR(L, R);
        else
          Out = fullWidth(Bits);
        break;
      }
      case BinOpInst::Op::And:
        Out = (L.Lo >= 0 && R.Lo >= 0)
                  ? IntRange::make(0, std::min(L.Hi, R.Hi))
                  : fullWidth(Bits);
        break;
      default:
        Out = fullWidth(Bits);
        break;
      }
      return clampWidth(Out, Bits);
    }
    case ValueKind::ICmp:
      return IntRange::make(0, 1);
    case ValueKind::Cast: {
      auto *C = cast<CastInst>(I);
      switch (C->opcode()) {
      case CastInst::Op::SExt:
        return clampWidth(atImpl(C->source(), B), Bits);
      case CastInst::Op::ZExt: {
        IntRange S = atImpl(C->source(), B);
        unsigned SrcBits = cast<IntType>(C->source()->type())->bits();
        if (S.empty())
          return S;
        if (S.Lo >= 0)
          return clampWidth(S, Bits);
        if (SrcBits >= 64)
          return fullWidth(Bits);
        return clampWidth(
            IntRange::make(0, (int64_t(1) << SrcBits) - 1), Bits);
      }
      case CastInst::Op::Trunc: {
        IntRange S = atImpl(C->source(), B);
        if (S.empty())
          return S;
        return fullWidth(Bits).contains(S.Lo, S.Hi) ? S : fullWidth(Bits);
      }
      default:
        return fullWidth(Bits);
      }
    }
    case ValueKind::Select: {
      auto *S = cast<SelectInst>(I);
      return clampWidth(join(atImpl(S->ifTrue(), B), atImpl(S->ifFalse(), B)),
                        Bits);
    }
    default:
      return fullWidth(Bits); // Loads, calls, extracts: unknown.
    }
  }

  void iterate() {
    // Optimistic ascending fixpoint: everything starts empty, phis widen
    // after round 3 so decreasing counters and recursions terminate.
    // Widening bounds each phi to two more moves, so convergence within
    // the round budget is the overwhelmingly common case; if a deep phi
    // chain ever exhausts it, Converged stays false and at() degrades to
    // full-width answers rather than trusting a half-climbed lattice.
    for (unsigned Round = 0; Round < 16; ++Round) {
      bool Changed = false;
      for (BasicBlock *BB : DT.rpo()) {
        for (const auto &IP : *BB) {
          Instruction *I = IP.get();
          if (!I->type()->isInt())
            continue;
          unsigned Bits = cast<IntType>(I->type())->bits();
          IntRange New = evalInst(I, BB);
          IntRange &Slot = Ranges[I];
          IntRange J = join(Slot, New);
          if (Round >= 3 && isa<PhiInst>(I))
            J = widen(Slot, J, Bits);
          J = clampWidth(J, Bits);
          if (J != Slot) {
            Slot = J;
            Changed = true;
          }
        }
      }
      if (!Changed) {
        Converged = true;
        break;
      }
    }
  }

  Function &F;
  const DomTree &DT;
  std::vector<IntRange> Args;
  bool Converged = false;
  std::set<const BasicBlock *> Reachable;
  std::map<const Instruction *, IntRange> Ranges;
  std::map<const BasicBlock *, std::vector<Refine>> AccRef;
  std::map<std::pair<const BasicBlock *, const BasicBlock *>,
           std::vector<Refine>>
      EdgeRef;
};

//===----------------------------------------------------------------------===//
// Bounds canonicalization
//===----------------------------------------------------------------------===//

/// A bounds value normalized to anchor + [Lo, Hi) when its MakeBounds
/// decomposes over one root (whole globals, shrunk fields, allocas);
/// otherwise an opaque identity (Sized == false, Anchor == the SSA value).
struct CanonBounds {
  const Value *Anchor = nullptr;
  int64_t Lo = 0, Hi = 0;
  bool Sized = false;

  bool operator==(const CanonBounds &O) const {
    return Anchor == O.Anchor && Lo == O.Lo && Hi == O.Hi && Sized == O.Sized;
  }
  bool operator<(const CanonBounds &O) const {
    return std::tie(Anchor, Lo, Hi, Sized) <
           std::tie(O.Anchor, O.Lo, O.Hi, O.Sized);
  }
};

CanonBounds canonBounds(Value *B) {
  CanonBounds CB;
  CB.Anchor = B;
  auto *MB = dyn_cast<MakeBoundsInst>(B);
  if (!MB)
    return CB;
  LinearPtr LB = decomposeLinearPtr(MB->base());
  LinearPtr LE = decomposeLinearPtr(MB->bound());
  if (LB.Index || LE.Index || LB.Root != LE.Root)
    return CB;
  CB.Anchor = LB.Root;
  CB.Lo = LB.Base;
  CB.Hi = LE.Base;
  CB.Sized = true;
  return CB;
}

/// The global whose entire object \p CB spans, or null.
const GlobalVariable *wholeGlobal(const CanonBounds &CB) {
  auto *G = dyn_cast<GlobalVariable>(CB.Anchor);
  if (!CB.Sized || !G || CB.Lo != 0 ||
      CB.Hi != static_cast<int64_t>(G->valueType()->sizeInBytes()))
    return nullptr;
  return G;
}

//===----------------------------------------------------------------------===//
// Fact keys
//===----------------------------------------------------------------------===//

/// Key of one provable family of byte intervals: bytes
/// [I.Lo, I.Hi) past (Root + Scale * Index) lie inside Bounds.
struct FactKey {
  const Value *Root = nullptr;
  int64_t Scale = 0;
  const Value *Index = nullptr;
  CanonBounds B;

  bool operator<(const FactKey &O) const {
    return std::tie(Root, Scale, Index, B) <
           std::tie(O.Root, O.Scale, O.Index, O.B);
  }
};

//===----------------------------------------------------------------------===//
// Summaries
//===----------------------------------------------------------------------===//

/// One check of a callee in substitutable form. The checked bytes are
/// [Base, Base + Size) past the root, plus Scale * (integer argument
/// IdxArgNo) when IdxArgNo >= 0.
struct CheckReq {
  SpatialCheckInst *Check = nullptr;
  bool GlobalRootK = false;
  unsigned ArgNo = 0;               ///< Pointer parameter (argument roots).
  const GlobalVariable *G = nullptr; ///< Global roots.
  int64_t Base = 0, Scale = 0;
  int IdxArgNo = -1;
  int64_t Size = 0;
  enum class BK { ArgBounds, WholeGlobal, SizedFromArg } Bk = BK::ArgBounds;
  int64_t BLo = 0, BHi = 0; ///< SizedFromArg: bounds anchor offsets.
};

struct FuncSummary {
  std::vector<CheckReq> Elidable;  ///< Callee-side elision candidates.
  std::vector<CheckReq> MustCheck; ///< Dominate-every-return facts.
  /// Checks that execute immediately on entry, before any call, memory
  /// access, or other observable effect (an entry-block prefix of pure
  /// instructions and checks). Only these may justify sinking a caller's
  /// duplicate: the callee re-verifies before an exit()/longjmp or any
  /// output could intervene, so the trap only moves from "just before
  /// the call" to "just inside it".
  std::vector<CheckReq> EntryChecks;
  IntervalSet RetChecked; ///< Bytes past the returned ptr checked against
                          ///< the returned bounds on every return path.
  bool HasRet = false;
};

IntervalSet intersectSets(const IntervalSet &A, const IntervalSet &B) {
  IntervalSet Out;
  const auto &IA = A.intervals();
  const auto &IB = B.intervals();
  size_t I = 0, J = 0;
  while (I < IA.size() && J < IB.size()) {
    int64_t Lo = std::max(IA[I].Lo, IB[J].Lo);
    int64_t Hi = std::min(IA[I].Hi, IB[J].Hi);
    if (Lo < Hi)
      Out.add(Lo, Hi);
    if (IA[I].Hi < IB[J].Hi)
      ++I;
    else
      ++J;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Argument-range fixpoint
//===----------------------------------------------------------------------===//

/// Top-down integer argument ranges over the call graph, on the IR as it
/// stands. Externally reachable functions (the VM entry, address-taken
/// functions) get full-width ranges; arguments of functions with no
/// observed call site stay empty (bottom).
ArgRangeTable argRangeFixpoint(const std::vector<Function *> &Defined,
                               const CallGraph &CG, const DomTreeMap &DTs) {
  ArgRangeTable ArgRanges;
  for (Function *F : Defined) {
    std::vector<IntRange> Init(F->numArgs());
    for (unsigned I = 0; I < F->numArgs(); ++I)
      if (CG.externallyReachable(F))
        Init[I] = F->arg(I)->type()->isInt()
                      ? fullWidth(cast<IntType>(F->arg(I)->type())->bits())
                      : IntRange::full();
    ArgRanges[F] = std::move(Init);
  }

  // Chaotic top-down iteration, callers first; argument ranges only grow,
  // and widening after round 3 bounds the climb through recursions. A
  // cascade that outlives the round budget (very deep call chains) must
  // not leave half-climbed — i.e. under-approximated — ranges behind, so
  // non-convergence falls back to full-width arguments everywhere.
  // ScalarRanges is a pure function of (F, ArgRanges[F]), so a caller's
  // analysis is cached and only rebuilt after its own argument ranges
  // moved — most functions settle in the first round and would otherwise
  // pay the per-function fixpoint on every one of the 16 rounds.
  std::vector<Function *> TopDown(CG.bottomUp().rbegin(),
                                  CG.bottomUp().rend());
  std::map<const Function *, std::unique_ptr<ScalarRanges>> SRCache;
  std::set<const Function *> Dirty(Defined.begin(), Defined.end());
  bool Converged = false;
  for (unsigned Round = 0; Round < 16 && !Converged; ++Round) {
    bool Changed = false;
    for (Function *F : TopDown) {
      if (CG.callSitesIn(F).empty())
        continue;
      std::unique_ptr<ScalarRanges> &SRp = SRCache[F];
      if (!SRp || Dirty.count(F)) {
        SRp = std::make_unique<ScalarRanges>(*F, DTs.at(F), ArgRanges[F]);
        Dirty.erase(F);
      }
      const ScalarRanges &SR = *SRp;
      for (unsigned SiteId : CG.callSitesIn(F)) {
        const CallSite &S = CG.callSites()[SiteId];
        if (CG.externallyReachable(S.Callee))
          continue; // Already full.
        auto &Callee = ArgRanges[S.Callee];
        unsigned N = std::min<unsigned>(S.Call->numArgs(), Callee.size());
        for (unsigned J = 0; J < N; ++J) {
          if (!S.Callee->arg(J)->type()->isInt())
            continue;
          IntRange R = SR.at(S.Call->arg(J), S.Call->parent());
          IntRange Joined = join(Callee[J], R);
          if (Round >= 3)
            Joined = widen(Callee[J], Joined,
                           cast<IntType>(S.Callee->arg(J)->type())->bits());
          if (Joined != Callee[J]) {
            Callee[J] = Joined;
            Dirty.insert(S.Callee);
            Changed = true;
          }
        }
      }
    }
    Converged = !Changed;
  }
  if (!Converged)
    for (Function *F : Defined)
      for (unsigned I = 0; I < F->numArgs(); ++I)
        ArgRanges[F][I] =
            F->arg(I)->type()->isInt()
                ? fullWidth(cast<IntType>(F->arg(I)->type())->bits())
                : IntRange::full();
  return ArgRanges;
}

//===----------------------------------------------------------------------===//
// Propagation
//===----------------------------------------------------------------------===//

/// One propagation: summaries, fact walks and deletions over the current
/// IR, under argument ranges fixed beforehand.
class Propagation {
public:
  Propagation(const std::vector<Function *> &Defined, const CallGraph &CG,
              const DomTreeMap &DTs, const ArgRangeTable &ArgRanges)
      : CG(CG), Defined(Defined), DTs(DTs), ArgRanges(ArgRanges) {}

  unsigned run(CheckOptStats &Stats);

private:
  void prepare();

  struct FuncInfo {
    const DomTree *DT = nullptr;
    std::unique_ptr<ScalarRanges> SR;
    /// Call -> (ExtractPtr, ExtractBounds) users, for return summaries.
    std::map<const CallInst *, std::pair<Value *, Value *>> Extracts;
  };

  enum class Reason { Range, Caller, Sunk, Callee };

  void summarize(Function &F);
  void walk(Function &F);
  void walkBlockBody(FuncInfo &FI, ScopedFacts<FactKey> &Env,
                     BasicBlock *BB);
  void visitCheck(FuncInfo &FI, ScopedFacts<FactKey> &Env, BasicBlock *BB,
                  BasicBlock::iterator It);
  void visitCall(ScopedFacts<FactKey> &Env, CallInst *Call,
                 Function *Callee);
  bool substituteReq(const CheckReq &R, const CallInst &Call,
                     const Function &Callee, FactKey &Key, int64_t &Lo,
                     int64_t &Hi) const;
  void mark(SpatialCheckInst *C, Reason R) { Deleted.emplace(C, R); }

  const CallGraph &CG;
  const std::vector<Function *> &Defined;
  const DomTreeMap &DTs;
  const ArgRangeTable &ArgRanges;
  std::map<const Function *, FuncInfo> Infos;
  std::map<const Function *, FuncSummary> Summaries;
  std::map<SpatialCheckInst *, bool> AllSitesProve;
  std::map<SpatialCheckInst *, Reason> Deleted;
};

void Propagation::summarize(Function &F) {
  FuncInfo &FI = Infos[&F];
  FuncSummary &Sum = Summaries[&F];
  unsigned OrigCount = sbabi::originalParamCount(F);
  bool Analyzable = !CG.externallyReachable(&F);

  std::vector<RetInst *> Rets;
  for (const auto &BB : F.blocks())
    for (const auto &IP : *BB)
      if (auto *R = dyn_cast<RetInst>(IP.get()))
        Rets.push_back(R);

  // The must-execute-first entry prefix: checks reached before anything
  // observable (see FuncSummary::EntryChecks).
  std::set<const SpatialCheckInst *> EntryPrefix;
  for (const auto &IP : *F.entry()) {
    Instruction *I = IP.get();
    if (auto *C = dyn_cast<SpatialCheckInst>(I)) {
      // A guarded check may be skipped at run time, so it can never be a
      // must-execute entry check; stepping over it is fine (it has no
      // effect beyond a possible — equally fatal — trap).
      if (!C->isGuarded())
        EntryPrefix.insert(C);
      continue;
    }
    if (!isUnobservableBeforeCheck(I))
      break;
  }

  for (const auto &BB : F.blocks()) {
    for (const auto &IP : *BB) {
      auto *C = dyn_cast<SpatialCheckInst>(IP.get());
      if (!C || C->isGuarded())
        continue;
      LinearPtr L = decomposeLinearPtr(C->pointer());
      CanonBounds CB = canonBounds(C->bounds());

      CheckReq R;
      R.Check = C;
      R.Base = L.Base;
      R.Scale = L.Scale;
      R.Size = static_cast<int64_t>(C->accessSize());

      if (L.Index) {
        auto *A = dyn_cast<Argument>(L.Index);
        if (!A || A->parent() != &F || A->index() >= OrigCount ||
            !A->type()->isInt())
          continue;
        R.IdxArgNo = static_cast<int>(A->index());
      }

      if (auto *G = dyn_cast<GlobalVariable>(L.Root)) {
        if (wholeGlobal(CB) != G)
          continue;
        R.GlobalRootK = true;
        R.G = G;
        R.Bk = CheckReq::BK::WholeGlobal;
      } else if (auto *A = dyn_cast<Argument>(L.Root)) {
        if (A->parent() != &F || A->index() >= OrigCount ||
            !A->type()->isPointer())
          continue;
        R.ArgNo = A->index();
        if (CB.Sized) {
          if (CB.Anchor != A)
            continue;
          R.Bk = CheckReq::BK::SizedFromArg;
          R.BLo = CB.Lo;
          R.BHi = CB.Hi;
        } else {
          int BIdx = sbabi::boundsParamIndex(F, A->index());
          if (BIdx < 0 || CB.Anchor != F.arg(static_cast<unsigned>(BIdx)))
            continue;
          R.Bk = CheckReq::BK::ArgBounds;
        }
      } else {
        continue;
      }

      if (Analyzable)
        Sum.Elidable.push_back(R);
      // A ret ends its block, so a check dominates it exactly when the
      // check's block dominates the ret's.
      bool DominatesRets = !Rets.empty();
      for (RetInst *Ret : Rets)
        DominatesRets =
            DominatesRets && FI.DT->dominates(C->parent(), Ret->parent());
      if (DominatesRets)
        Sum.MustCheck.push_back(R);
      if (EntryPrefix.count(C))
        Sum.EntryChecks.push_back(R);
    }
  }

  // Return summary: bytes past the returned pointer checked against the
  // returned bounds, intersected over every return path.
  if (!Rets.empty()) {
    bool First = true;
    bool AllPacked = true;
    IntervalSet Hull;
    for (RetInst *Ret : Rets) {
      auto *Pack = Ret->hasValue()
                       ? dyn_cast<PackPBInst>(Ret->value())
                       : nullptr;
      if (!Pack) {
        AllPacked = false;
        break;
      }
      LinearPtr LV = decomposeLinearPtr(Pack->pointer());
      CanonBounds CBv = canonBounds(Pack->bounds());
      IntervalSet SetR;
      if (!LV.Index) {
        for (const auto &BB : F.blocks())
          for (const auto &IP : *BB) {
            auto *C = dyn_cast<SpatialCheckInst>(IP.get());
            if (!C || C->isGuarded() ||
                !FI.DT->dominates(C->parent(), Ret->parent()))
              continue;
            LinearPtr LC = decomposeLinearPtr(C->pointer());
            if (LC.Index || LC.Root != LV.Root ||
                !(canonBounds(C->bounds()) == CBv))
              continue;
            SetR.add(LC.Base - LV.Base,
                     LC.Base - LV.Base +
                         static_cast<int64_t>(C->accessSize()));
          }
      }
      Hull = First ? SetR : intersectSets(Hull, SetR);
      First = false;
    }
    if (AllPacked && Hull.size() > 0) {
      Sum.RetChecked = std::move(Hull);
      Sum.HasRet = true;
    }
  }
}

bool Propagation::substituteReq(const CheckReq &R, const CallInst &Call,
                                const Function &Callee, FactKey &Key,
                                int64_t &Lo, int64_t &Hi) const {
  __int128 Base = R.Base;
  int64_t Scale = R.IdxArgNo >= 0 ? R.Scale : 0;
  const Value *Idx = nullptr;

  if (R.IdxArgNo >= 0) {
    if (static_cast<unsigned>(R.IdxArgNo) >= Call.numArgs())
      return false;
    Value *A = Call.arg(static_cast<unsigned>(R.IdxArgNo));
    if (auto *CI = dyn_cast<ConstantInt>(A)) {
      Base += __int128(R.Scale) * CI->value();
      Scale = 0;
    } else {
      Idx = stripSExt(A);
    }
  }

  CanonBounds BReq;
  const Value *Root;
  if (R.GlobalRootK) {
    Root = R.G;
    BReq.Anchor = R.G;
    BReq.Lo = 0;
    BReq.Hi = static_cast<int64_t>(R.G->valueType()->sizeInBytes());
    BReq.Sized = true;
  } else {
    if (R.ArgNo >= Call.numArgs())
      return false;
    LinearPtr LA = decomposeLinearPtr(Call.arg(R.ArgNo));
    if (LA.Index) {
      if (Idx && LA.Index != Idx)
        return false; // Two distinct symbols: give up.
      if (!Idx) {
        Idx = LA.Index;
        Scale = LA.Scale;
      } else {
        __int128 S = __int128(Scale) + LA.Scale;
        if (escapesI64(S))
          return false;
        Scale = static_cast<int64_t>(S);
      }
    }
    Base += LA.Base;
    Root = LA.Root;
    if (R.Bk == CheckReq::BK::ArgBounds) {
      Value *PB = sbabi::passedBounds(Call, Callee, R.ArgNo);
      if (!PB)
        return false;
      BReq = canonBounds(PB);
    } else { // SizedFromArg: shift the anchored interval by the actual's
             // constant offset.
      if (LA.Index)
        return false;
      __int128 BLo = __int128(R.BLo) + LA.Base, BHi = __int128(R.BHi) + LA.Base;
      if (escapesI64(BLo) || escapesI64(BHi))
        return false;
      BReq.Anchor = LA.Root;
      BReq.Lo = static_cast<int64_t>(BLo);
      BReq.Hi = static_cast<int64_t>(BHi);
      BReq.Sized = true;
    }
  }

  // The substituted extent must be exact: a saturated end would ask the
  // call site to prove fewer bytes than the callee accesses.
  __int128 End = Base + R.Size;
  if (escapesI64(Base) || escapesI64(End))
    return false;
  if (Scale == 0)
    Idx = nullptr;
  if (!Idx)
    Scale = 0;
  Key = FactKey{Root, Scale, Idx, BReq};
  Lo = static_cast<int64_t>(Base);
  Hi = static_cast<int64_t>(End);
  return true;
}

void Propagation::visitCheck(FuncInfo &FI, ScopedFacts<FactKey> &Env,
                             BasicBlock *BB, BasicBlock::iterator It) {
  auto *C = cast<SpatialCheckInst>(It->get());
  LinearPtr L = decomposeLinearPtr(C->pointer());
  CanonBounds CB = canonBounds(C->bounds());
  int64_t Size = static_cast<int64_t>(C->accessSize());
  if (Size < 0)
    return; // Absurd hand-built size: prove nothing, keep the check.
  FactKey Key{L.Root, L.Scale, L.Index, CB};

  // This check's byte extent past the root. When it escapes i64 the
  // check may only *contribute* a (truncated, hence under-claiming)
  // fact; it must never be elided against a fact or summary, which
  // would compare a smaller extent than the check verifies.
  __int128 End128 = __int128(L.Base) + Size;
  bool ExactEnd = !escapesI64(End128);
  int64_t End = ExactEnd ? static_cast<int64_t>(End128) : INT64_MAX;

  // 1. Static range proof against whole-object global bounds.
  if (auto *G = dyn_cast<GlobalVariable>(L.Root);
      G && wholeGlobal(CB) == G) {
    IntRange Off = IntRange::of(L.Base);
    if (L.Index)
      Off = addR(Off, mulR(FI.SR->at(L.Index, BB), IntRange::of(L.Scale)));
    int64_t ObjSize = static_cast<int64_t>(G->valueType()->sizeInBytes());
    if (!Off.empty() && Off.Lo >= 0 && Off.Hi <= ObjSize - Size) {
      mark(C, Reason::Range);
      Env.add(Key, L.Base, End);
      return;
    }
  }

  // 2. Covered by a dominating fact (a caller check, a dominating call's
  //    callee-guaranteed checks, or a return summary).
  if (ExactEnd && Env.covers(Key, L.Base, End)) {
    mark(C, Reason::Caller);
    return;
  }

  // 3. Sink: a call later in this block re-verifies the same condition
  //    as one of the callee's *entry* checks — the callee checks it
  //    before any memory access or observable effect (including its own
  //    calls, so no exit()/longjmp can skip it) — making this copy the
  //    caller-side duplicate. A sunk check contributes NO fact: its
  //    verification happens inside the call, i.e. in the future, so it
  //    must not prove the very call-site requirements (step 1 of
  //    visitCall) that would delete the callee's re-check too.
  for (auto J = std::next(It); J != BB->end(); ++J) {
    Instruction *I = J->get();
    if (auto *Call = dyn_cast<CallInst>(I)) {
      Function *Callee = Call->calledFunction();
      if (Callee && Callee->isDefinition()) {
        for (const CheckReq &MC : Summaries[Callee].EntryChecks) {
          FactKey MK;
          int64_t MLo, MHi;
          if (ExactEnd && substituteReq(MC, *Call, *Callee, MK, MLo, MHi) &&
              !(MK < Key) && !(Key < MK) && MLo <= L.Base && End <= MHi) {
            mark(C, Reason::Sunk);
            return;
          }
        }
      }
      break; // Any call is an effect barrier either way.
    }
    if (isUnobservableBeforeCheck(I))
      continue;
    break; // Loads, stores, metadata ops, terminators: barrier.
  }

  Env.add(Key, L.Base, End);
}

void Propagation::visitCall(ScopedFacts<FactKey> &Env, CallInst *Call,
                            Function *Callee) {
  const FuncSummary &Sum = Summaries[Callee];

  // Requirements first: facts established *by* this call must not prove
  // this same call's preconditions.
  for (const CheckReq &R : Sum.Elidable) {
    auto It = AllSitesProve.find(R.Check);
    if (It == AllSitesProve.end() || !It->second)
      continue;
    FactKey Key;
    int64_t Lo, Hi;
    if (!substituteReq(R, *Call, *Callee, Key, Lo, Hi) ||
        !Env.covers(Key, Lo, Hi))
      It->second = false;
  }

  // The callee checks these on every path to a return, so once the call
  // completed they hold — for the rest of the dominated region.
  for (const CheckReq &R : Sum.MustCheck) {
    FactKey Key;
    int64_t Lo, Hi;
    if (substituteReq(R, *Call, *Callee, Key, Lo, Hi))
      Env.add(Key, Lo, Hi);
  }

  if (Sum.HasRet) {
    Function *Caller = Call->parent()->parent();
    auto &Ex = Infos[Caller].Extracts;
    auto It = Ex.find(Call);
    if (It != Ex.end() && It->second.first && It->second.second) {
      FactKey Key{It->second.first, 0, nullptr,
                  canonBounds(It->second.second)};
      for (const ByteInterval &Iv : Sum.RetChecked.intervals())
        Env.add(Key, Iv.Lo, Iv.Hi);
    }
  }
}

void Propagation::walkBlockBody(FuncInfo &FI, ScopedFacts<FactKey> &Env,
                                BasicBlock *BB) {
  for (auto It = BB->begin(); It != BB->end(); ++It) {
    Instruction *I = It->get();
    if (auto *C = dyn_cast<SpatialCheckInst>(I)) {
      // Guarded checks (runtime-limit hulls and their in-loop fallbacks)
      // are invisible to the inter-procedural propagation: they may not
      // have executed, so they prove nothing, and their conditions are
      // managed entirely by the hoister that emitted them.
      if (!C->isGuarded())
        visitCheck(FI, Env, BB, It);
      continue;
    }
    if (auto *Call = dyn_cast<CallInst>(I)) {
      Function *Callee = Call->calledFunction();
      if (Callee && Callee->isDefinition())
        visitCall(Env, Call, Callee);
    }
  }
}

void Propagation::walk(Function &F) {
  FuncInfo &FI = Infos[&F];
  ScopedFacts<FactKey> Env;
  walkDomTree(
      *FI.DT, F.entry(),
      [&](BasicBlock *BB) {
        size_t Mark = Env.mark();
        walkBlockBody(FI, Env, BB);
        return Mark;
      },
      [&](BasicBlock *, size_t Mark) { Env.rollbackTo(Mark); });
}

/// The per-function analyses of the walk, built on the current IR: the
/// run's dominator trees stay valid (no checkopt sub-pass edits a CFG),
/// but scalar ranges and the extract map see every earlier edit.
void Propagation::prepare() {
  for (Function *F : Defined) {
    FuncInfo &FI = Infos[F];
    FI.DT = &DTs.at(F);
    FI.SR = std::make_unique<ScalarRanges>(*F, *FI.DT, ArgRanges.at(F));
    for (const auto &BB : F->blocks())
      for (const auto &IP : *BB) {
        if (auto *EP = dyn_cast<ExtractPtrInst>(IP.get())) {
          if (auto *C = dyn_cast<CallInst>(EP->pair()))
            if (!FI.Extracts[C].first)
              FI.Extracts[C].first = EP;
        } else if (auto *EB = dyn_cast<ExtractBoundsInst>(IP.get())) {
          if (auto *C = dyn_cast<CallInst>(EB->pair()))
            if (!FI.Extracts[C].second)
              FI.Extracts[C].second = EB;
        }
      }
  }
}

unsigned Propagation::run(CheckOptStats &Stats) {
  prepare();

  for (Function *F : CG.bottomUp())
    summarize(*F);
  for (Function *F : Defined) {
    const FuncSummary &S = Summaries[F];
    Stats.InterProcArgSummaries +=
        static_cast<unsigned>(S.Elidable.size() + S.MustCheck.size());
    if (S.HasRet)
      ++Stats.InterProcRetSummaries;
    for (const CheckReq &R : S.Elidable)
      AllSitesProve.emplace(R.Check, true);
  }
  Stats.InterProcFunctionsAnalyzed += static_cast<unsigned>(Defined.size());

  for (Function *F : Defined)
    walk(*F);

  // Callee-side elision: every direct call site proved the requirement,
  // and no unknown caller exists (the summary was only built for
  // non-externallyReachable functions).
  for (auto &[Check, AllProve] : AllSitesProve)
    if (AllProve && !Deleted.count(Check))
      mark(Check, Reason::Callee);

  unsigned N = 0;
  for (Function *F : Defined) {
    bool Touched = false;
    for (const auto &BB : F->blocks()) {
      for (auto It = BB->begin(); It != BB->end();) {
        auto *C = dyn_cast<SpatialCheckInst>(It->get());
        auto DIt = C ? Deleted.find(C) : Deleted.end();
        if (DIt == Deleted.end()) {
          ++It;
          continue;
        }
        switch (DIt->second) {
        case Reason::Range:
          ++Stats.InterProcRangeElided;
          break;
        case Reason::Caller:
          ++Stats.InterProcCallerElided;
          break;
        case Reason::Sunk:
          ++Stats.InterProcSunkElided;
          break;
        case Reason::Callee:
          ++Stats.InterProcCalleeElided;
          break;
        }
        It = BB->erase(It);
        Touched = true;
        ++N;
      }
    }
    if (Touched)
      dce(*F); // Sweep the bounds arithmetic the deletions stranded.
  }
  Stats.InterProcChecksElided += N;
  return N;
}

} // namespace

InterProcEngine::InterProcEngine(Module &M, const CallGraph &CG,
                                 const DomTreeMap &DTs)
    : CG(CG), DTs(DTs) {
  for (const auto &F : M.functions())
    if (F->isDefinition())
      Defined.push_back(F.get());
}

const ArgRangeTable &InterProcEngine::argumentRanges() {
  if (!Ranges)
    Ranges = argRangeFixpoint(Defined, CG, DTs);
  return *Ranges;
}

unsigned InterProcEngine::propagate(CheckOptStats &Stats) {
  if (Defined.empty())
    return 0;
  return Propagation(Defined, CG, DTs, argumentRanges()).run(Stats);
}
