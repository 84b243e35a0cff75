//===- opt/checks/Loops.cpp - natural & counted loop recognition ------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/checks/Loops.h"

#include "opt/Dominators.h"
#include "opt/checks/CallGraph.h"
#include "opt/checks/Predicates.h"
#include "opt/checks/RangeAnalysis.h"
#include "support/Casting.h"

#include <algorithm>


using namespace softbound;
using namespace softbound::checkopt;

//===----------------------------------------------------------------------===//
// Natural loop discovery
//===----------------------------------------------------------------------===//

std::vector<NaturalLoop> checkopt::findSimpleLoops(Function &F,
                                                   const DomTree &DT) {
  std::vector<NaturalLoop> Out;
  if (!F.isDefinition())
    return Out;

  // Back edges B -> H where H dominates B; reject headers with several
  // latches (continue statements) — their phi structure is ambiguous.
  // Headers are visited in RPO, never in pointer order: the emitted hull
  // IR (and hence the gated dynamic-check counts) must be identical from
  // run to run.
  std::map<BasicBlock *, std::vector<BasicBlock *>> Latches;
  for (BasicBlock *BB : DT.rpo())
    for (BasicBlock *S : BB->successors())
      if (DT.dominates(S, BB))
        Latches[S].push_back(BB);

  for (BasicBlock *Header : DT.rpo()) {
    auto LatchIt = Latches.find(Header);
    if (LatchIt == Latches.end())
      continue;
    const std::vector<BasicBlock *> &Backs = LatchIt->second;
    if (Backs.size() != 1)
      continue;
    NaturalLoop L;
    L.Header = Header;
    L.Latch = Backs[0];

    // Natural loop body: blocks that reach the latch without passing the
    // header.
    L.Blocks.insert(Header);
    std::vector<BasicBlock *> Work{L.Latch};
    while (!Work.empty()) {
      BasicBlock *BB = Work.back();
      Work.pop_back();
      if (!L.Blocks.insert(BB).second)
        continue;
      for (BasicBlock *P : DT.preds(BB))
        Work.push_back(P);
    }

    // Dedicated preheader: the single non-latch predecessor of the header,
    // outside the loop, ending in an unconditional branch to the header.
    BasicBlock *Pre = nullptr;
    bool Bad = false;
    for (BasicBlock *P : DT.preds(Header)) {
      if (P == L.Latch)
        continue;
      if (Pre || L.contains(P)) {
        Bad = true;
        break;
      }
      Pre = P;
    }
    if (Bad || !Pre)
      continue;
    auto *PreBr = dyn_cast<BrInst>(Pre->terminator());
    if (!PreBr || PreBr->isConditional())
      continue;
    L.Preheader = Pre;

    // Single exit edge, and it must leave from the header: every other
    // block's successors stay inside (this rejects break/return bodies).
    unsigned ExitEdges = 0;
    for (BasicBlock *BB : L.Blocks)
      for (BasicBlock *S : BB->successors())
        if (!L.contains(S)) {
          ++ExitEdges;
          if (BB != Header)
            Bad = true;
        }
    if (Bad || ExitEdges != 1)
      continue;

    Out.push_back(std::move(L));
  }

  // Innermost first, so hoisted inner checks can cascade out of enclosing
  // loops in the same pass. Stable: same-size loops keep their RPO
  // discovery order (determinism again).
  std::stable_sort(Out.begin(), Out.end(),
                   [](const NaturalLoop &A, const NaturalLoop &B) {
                     return A.Blocks.size() < B.Blocks.size();
                   });
  return Out;
}

//===----------------------------------------------------------------------===//
// Counted loop recognition
//===----------------------------------------------------------------------===//

namespace {

/// Matches \p Phi against the [init from the preheader, phi +/- constant
/// from a latch-side binop] shape, returning the raw preheader incoming
/// (constant *or* symbolic — the recognizer decides what it accepts).
bool matchIVStep(const NaturalLoop &L, PhiInst *Phi, Value *&InitVal,
                 int64_t &Step) {
  if (Phi->numIncoming() != 2 || !isa<IntType>(Phi->type()))
    return false;
  Value *FromPre = Phi->incomingFor(L.Preheader);
  Value *FromLatch = Phi->incomingFor(L.Latch);
  auto *Next = FromLatch ? dyn_cast<BinOpInst>(FromLatch) : nullptr;
  if (!FromPre || !Next || !L.contains(Next->parent()))
    return false;
  int64_t S = 0;
  if (Next->opcode() == BinOpInst::Op::Add) {
    if (auto *C = dyn_cast<ConstantInt>(Next->rhs()); C && Next->lhs() == Phi)
      S = C->value();
    else if (auto *C2 = dyn_cast<ConstantInt>(Next->lhs());
             C2 && Next->rhs() == Phi)
      S = C2->value();
    else
      return false;
  } else if (Next->opcode() == BinOpInst::Op::Sub) {
    auto *C = dyn_cast<ConstantInt>(Next->rhs());
    // INT64_MIN checked pre-negation: -INT64_MIN is signed-overflow UB.
    if (!C || Next->lhs() != Phi || C->value() == INT64_MIN)
      return false;
    S = -C->value();
  } else {
    return false;
  }
  if (S == 0 || S == INT64_MIN)
    return false;
  InitVal = FromPre;
  Step = S;
  return true;
}

/// The exit comparison's predicate oriented so "Pred(IV, limit) true"
/// means "stay in the loop", with the limit-side operand returned raw.
/// Sign extensions are peeled off the IV side (the frontend widens i32
/// IVs to compare against i64 limits); canonical values are already
/// sign-extended, so the peeled comparison is value-identical.
bool orientExitCondition(const NaturalLoop &L, const BrInst *Br, PhiInst *IV,
                         ICmpInst::Pred &Pred, Value *&LimitSide) {
  bool Negate = false;
  const ICmpInst *Cmp = peelCondition(Br->condition(), Negate);
  if (!Cmp)
    return false;
  Pred = Cmp->pred();
  if (stripSExt(Cmp->lhs()) == IV) {
    LimitSide = Cmp->rhs();
  } else if (stripSExt(Cmp->rhs()) == IV) {
    LimitSide = Cmp->lhs();
    Pred = swapPred(Pred);
  } else {
    return false;
  }
  if (Negate)
    Pred = invertPred(Pred);
  bool TrueStays = L.contains(Br->successor(0));
  bool FalseStays = L.contains(Br->successor(1));
  if (TrueStays == FalseStays)
    return false; // Both or neither in-loop: not the exit branch shape.
  if (!TrueStays)
    Pred = invertPred(Pred);
  return true;
}

/// First header phi in IV-step shape that the exit comparison actually
/// tests, together with its oriented stay-predicate and the raw
/// limit-side operand. Iterating past phis the branch does not test keeps
/// accumulator phis (`s = s + 1` matches the step shape too) from masking
/// the real induction variable.
bool findOrientedIV(const NaturalLoop &L, const BrInst *Br, PhiInst *&IV,
                    Value *&InitVal, int64_t &Step, ICmpInst::Pred &Pred,
                    Value *&LimitSide) {
  for (auto &I : *L.Header) {
    auto *Phi = dyn_cast<PhiInst>(I.get());
    if (!Phi)
      break;
    if (matchIVStep(L, Phi, InitVal, Step) &&
        orientExitCondition(L, Br, Phi, Pred, LimitSide)) {
      IV = Phi;
      return true;
    }
  }
  return false;
}

/// The exact form of a loop whose init and limit are both constants:
/// counts the body iterations, rejecting any sequence that would wrap
/// its bit width, fail to terminate, or run more than 2^30 times.
bool exactForm(CountedLoop &Out) {
  // --- Body count C: number of k >= 0 with pred(Init + k*Step, Limit).
  // Everything is computed in 128-bit: near-full-range i64 constants make
  // Lim - Lo overflow int64, and a wrapped count here would erase live
  // checks as "provably dead".
  const __int128 Lo = Out.Init.C, Lim = Out.Limit.C, S = Out.Step;
  __int128 C = 0;
  using P = ICmpInst::Pred;
  switch (Out.Pred) {
  case P::SLT:
    if (S <= 0)
      return false;
    C = Lo < Lim ? (Lim - Lo + S - 1) / S : 0;
    break;
  case P::SLE:
    if (S <= 0)
      return false;
    C = Lo <= Lim ? (Lim - Lo) / S + 1 : 0;
    break;
  case P::SGT:
    if (S >= 0)
      return false;
    C = Lo > Lim ? (Lo - Lim + (-S) - 1) / (-S) : 0;
    break;
  case P::SGE:
    if (S >= 0)
      return false;
    C = Lo >= Lim ? (Lo - Lim) / (-S) + 1 : 0;
    break;
  case P::ULT:
  case P::ULE:
    // Matches the signed analysis only when both operands stay non-negative.
    if (S <= 0 || Lo < 0 || Lim < 0)
      return false;
    C = Out.Pred == P::ULT ? (Lo < Lim ? (Lim - Lo + S - 1) / S : 0)
                           : (Lo <= Lim ? (Lim - Lo) / S + 1 : 0);
    break;
  case P::UGT:
  case P::UGE:
    if (S >= 0 || Lo < 0 || Lim < 0)
      return false;
    C = Out.Pred == P::UGT ? (Lo > Lim ? (Lo - Lim + (-S) - 1) / (-S) : 0)
                           : (Lo >= Lim ? (Lo - Lim) / (-S) + 1 : 0);
    // The exit IV must stay non-negative too: a negative one reads as a
    // huge unsigned value that still passes the test, so the run never
    // leaves the loop (`i >=u 0` is always true).
    if (Lo + C * S < 0)
      return false;
    break;
  case P::NE: {
    // Runs until IV == Limit exactly; anything else never terminates (or
    // wraps), so require an exact hit.
    __int128 Diff = Lim - Lo;
    if (S == 0 || Diff % S != 0 || Diff / S < 0)
      return false;
    C = Diff / S;
    break;
  }
  default:
    return false; // EQ as a continue-condition is degenerate.
  }
  if (C < 0 || C > (__int128(1) << 30))
    return false;

  // --- Wrap check: the real IV arithmetic is Width-bit; our closed form
  // is only valid if no value in Init..Init+C*Step leaves that range.
  unsigned Width = cast<IntType>(Out.IV->type())->bits();
  __int128 ExitIV = Lo + C * S;
  if (!fitsWidth(Lo, Width) || !fitsWidth(ExitIV, Width))
    return false;

  Out.BodyCount = static_cast<int64_t>(C);
  // LastBody lies between Lo and ExitIV, so the width checks above cover it.
  Out.LastBody = C > 0 ? static_cast<int64_t>(Lo + (C - 1) * S) : Out.Init.C;
  Out.ExitIV = static_cast<int64_t>(ExitIV);
  return true;
}

/// The symbolic form from the raw preheader incoming \p InitVal and the
/// raw limit-side operand \p LimitSide, at least one of them symbolic.
bool symbolicForm(const NaturalLoop &L, Value *InitVal, Value *LimitSide,
                  CountedLoop &Out) {
  const int64_t Step = Out.Step;
  // Steps large enough to threaten the window arithmetic itself are not
  // worth a guard; EndAdj and the wrap windows below stay exactly
  // representable under this cap.
  const int64_t AbsStep = Step > 0 ? Step : -Step;
  if (AbsStep > (int64_t(1) << 30))
    return false;

  unsigned W = cast<IntType>(Out.IV->type())->bits();
  if (W > 64)
    return false;
  const int64_t WMax = W >= 64 ? INT64_MAX : (int64_t(1) << (W - 1)) - 1;
  const int64_t WMin = W >= 64 ? INT64_MIN : -(int64_t(1) << (W - 1));

  // The init: a constant (width-checked — an un-canonical hand-built
  // constant is refused) or the symbolic preheader incoming, which SSA
  // dominance already makes available on entry and whose canonical value
  // fits the IV width by construction. Sign extensions are peeled like
  // the limit's, so a symbol that is a widened copy of another loop's IV
  // is recognized as that IV (the hoister keys correlation checks on the
  // symbol's identity).
  InitVal = stripSExt(InitVal);
  if (auto *InitCI = dyn_cast<ConstantInt>(InitVal)) {
    Out.Init = {nullptr, InitCI->value()};
    if (Out.Init.C < WMin || Out.Init.C > WMax)
      return false;
  } else {
    if (!isa<IntType>(InitVal->type()))
      return false;
    Out.Init = {InitVal, 0};
  }

  // The limit: peel value-preserving sign extensions (the peeled value is
  // canonically equal). A constant limit is allowed only alongside a
  // symbolic init (both constant is the exact form's territory); a
  // symbolic one must be available on entry.
  Value *Limit = stripSExt(LimitSide);
  if (auto *LimitCI = dyn_cast<ConstantInt>(Limit)) {
    if (!Out.Init.Sym)
      return false;
    Out.Limit = {nullptr, LimitCI->value()};
  } else {
    if (!isa<IntType>(Limit->type()) || !L.isInvariant(Limit) ||
        Limit == Out.IV)
      return false;
    Out.Limit = {Limit, 0};
  }

  // Per-predicate shape. The LimitMin/LimitMax window guarantees the IV
  // reaches the exit value without leaving [WMin, WMax]: under the
  // divisibility condition (automatic for |Step| == 1) the sequence is
  // monotonic from I to the exit value (L for SLT/SGT, L +/- Step for
  // SLE/SGE), so bounding L bounds every intermediate — I itself is
  // canonical and needs no window.
  using P = ICmpInst::Pred;
  switch (Out.Pred) {
  case P::SLT: // Body IVs [I, L-Step]; exit value L.
    if (Step <= 0)
      return false;
    Out.EndAdj = -Step;
    Out.LimitMin = INT64_MIN;
    Out.LimitMax = WMax;
    break;
  case P::SLE: // Body IVs [I, L]; exit value L+Step.
    if (Step <= 0)
      return false;
    Out.EndAdj = 0;
    Out.LimitMin = INT64_MIN;
    Out.LimitMax = WMax - Step; // WMax >= 0 > -Step: cannot overflow.
    break;
  case P::SGT: // Body IVs [L-Step, I]; exit value L.
    if (Step >= 0)
      return false;
    Out.EndAdj = -Step;
    Out.LimitMin = WMin;
    Out.LimitMax = INT64_MAX;
    break;
  case P::SGE: // Body IVs [L, I]; exit value L+Step.
    if (Step >= 0)
      return false;
    Out.EndAdj = 0;
    Out.LimitMin = WMin - Step; // WMin < 0 < -Step: cannot overflow.
    Out.LimitMax = INT64_MAX;
    break;
  default:
    // Unsigned and equality predicates: no sound signed interval form
    // under unknown bounds (ULT would additionally need L >= 0 and NE an
    // exact divisibility hit).
    return false;
  }
  // A constant limit must sit inside the wrap window statically; there is
  // no symbol to test it against at run time.
  if (!Out.Limit.Sym &&
      (Out.Limit.C < Out.LimitMin || Out.Limit.C > Out.LimitMax))
    return false;

  Out.NeedDivis = AbsStep != 1;
  return true;
}

} // namespace

bool checkopt::analyzeCountedLoop(const NaturalLoop &L, bool AllowSymbolic,
                                  CountedLoop &Out) {
  auto *Br = dyn_cast<BrInst>(L.Header->terminator());
  if (!Br || !Br->isConditional())
    return false;
  Value *InitVal = nullptr, *LimitSide = nullptr;
  if (!findOrientedIV(L, Br, Out.IV, InitVal, Out.Step, Out.Pred, LimitSide))
    return false;
  const auto *InitCI = dyn_cast<ConstantInt>(InitVal);
  const auto *LimitCI = dyn_cast<ConstantInt>(LimitSide);
  if (InitCI && LimitCI) {
    Out.Init = {nullptr, InitCI->value()};
    Out.Limit = {nullptr, LimitCI->value()};
    return exactForm(Out);
  }
  return AllowSymbolic && symbolicForm(L, InitVal, LimitSide, Out);
}

//===----------------------------------------------------------------------===//
// Loop-body safety scan
//===----------------------------------------------------------------------===//

bool checkopt::loopBodyIsSafe(const NaturalLoop &L, const CallGraph &CG) {
  for (BasicBlock *BB : L.Blocks)
    for (auto &IP : *BB)
      if (auto *CI = dyn_cast<CallInst>(IP.get());
          CI && CG.callMayExitOrJump(*CI))
        return false;
  return true;
}
