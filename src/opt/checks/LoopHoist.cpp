//===- opt/checks/LoopHoist.cpp - loop check hoisting w/ range widening -----===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replaces per-iteration spatial checks in counted loops with pre-loop
/// checks over the access range's convex hull. The checked address is
/// linearized into `Root + sum(Ak * ivk) + B` bytes, where Root is a
/// loop-invariant pointer, each ivk is the induction variable of the loop
/// being hoisted or of an enclosing counted loop in the same rectangular
/// nest, and the Ak/B are compile-time constants accumulated through
/// bitcasts, GEPs, and affine integer arithmetic. The hull is the pair of
/// addresses at the minimum and maximum of that linear form over the IV
/// box; one check per endpoint goes into the preheader (one total for an
/// invariant address) and the in-loop check is deleted — O(trip count)
/// dynamic checks become O(1), à la CHOP. Hull checks emitted for an inner
/// loop stay invariant in enclosing loops, so the enclosing loop's pass
/// (loops are processed innermost-first) hoists them again, collapsing a
/// whole nest's checks to two.
///
/// **Run-time bounds.** Loops counted by up to two loop-invariant
/// *symbolic* bounds (the symbolic form of Loops.h CountedLoop) hoist
/// too — symbolic init (`for (i = lo; i < hi; i++)`), the decreasing
/// shape (`for (i = n - 1; i >= 0; i--)`), and |step| > 1 sweeps. The IV
/// box spans become affine in the run-time values of the init symbol I
/// and limit symbol L (`C + KI*I + KL*L`), the hull corner offsets are
/// materialized in the preheader as `Root + (KI*I + KL*L + C)` bytes, and
/// every proof the constant case makes statically becomes a *region* of
/// (I, L) values for which it holds:
///
///   * at least one body iteration runs — exactly the loop's oriented
///     stay-predicate Pred(I, L), one icmp on the live values (zero-trip
///     loops must perform no check);
///   * when |step| > 1, the span L - I is divisible by |step| (otherwise
///     the IV steps past the limit and the closed-form endpoint is not
///     the true last IV) — an emitted `(L - I) % s == 0` test;
///   * the IV reaches the exit without wrapping its width, every
///     intermediate node of the index expression stays inside its bit
///     width over the box, and the emitted i64 hull/guard arithmetic
///     cannot wrap. Each such obligation is an affine inequality over
///     (I, L): one-symbol obligations narrow a per-symbol interval
///     exactly, two-symbol ones append `KI*I + KL*L + C >= 0` constraints
///     (with interval clamps keeping their own test arithmetic exact).
///
/// The region becomes an i1 *guard*: hull checks execute only when (I, L)
/// is inside it, and the original in-loop check survives as a fallback
/// guarded by the region's complement — outside it the loop simply keeps
/// its unmodified per-iteration checking. When the symbols' inter-
/// procedurally propagated ranges (checkopt(interproc)'s top-down
/// argument ranges, peeled through sign extensions and constant +/-) lie
/// inside the region, the guard is discharged statically: unguarded
/// hulls, no fallback — and the checkopt driver records the whole-program
/// contract the range proof leaned on (Module::recordInterProcContract).
///
/// Soundness rests on the same three proofs as the constant case, all
/// established before any rewrite and conditioned on the region:
///
///   1. Exact iteration sets. analyzeCountedLoop() gives each IV sequence; a
///      check's block dominating the latch means the check runs on every
///      completed iteration (header checks widen to the exit IV; for symbolic
///      loops header checks are skipped — they run even on zero-trip passes).
///      loopBodyIsSafe() excludes anything that could keep a
///      normally-completing run from finishing every iteration, and enclosing
///      IVs are only used when the hoisted loop's header dominates the
///      enclosing latch. Hence on a clean run inside the region the original
///      program itself evaluates checks at both hull corners: the hoisted
///      checks are a subset of the original dynamic checks, moved earlier.
///      Outside the region the fallback checks are the original checks,
///      unmoved. A run that would have trapped still traps — though possibly
///      earlier and, when the original trap was of another kind, as a spatial
///      violation instead. Clean runs are never affected. A symbol that
///      coincides with an enclosing loop's IV is never paired with widening
///      over that IV: the dimension is dropped from the box and every
///      occurrence reads the one live value through the symbol instead, so
///      corners mix no two iterations (see hoistLoopChecks).
///
///   2. Faithful re-evaluation. The linearizer verifies (for every (I, L)
///      in the region) that every intermediate node of the index
///      expression stays inside its bit width over the whole IV box; each
///      node is linear (separable) in the IVs, so its extremes sit at box
///      corners and corner checks cover every iteration. The real
///      (wrapping) arithmetic therefore equals the exact linear value,
///      and the emitted `Root + (KI*I + KL*L + C)` address is
///      bit-identical to what the deleted check would have computed at
///      that iteration. Guard tests themselves never trap and are exact
///      whenever their interval clamps pass; when a clamp fails the
///      conjunction is already false and the garbage cross/divisibility
///      value is ignored.
///
///   3. Monotonicity. The byte offset is linear over the box, so the two
///      extreme-corner checks imply every intermediate one: an underflow
///      (addr < base) surfaces at the low corner, an overflow
///      (addr + size > bound) at the high one.
///
/// Guarded checks are invisible to the other static passes (they may not
/// execute, so they prove nothing — see RedundantChecks.cpp and
/// InterProc.cpp); only this pass, which owns their guards, re-hoists
/// them out of enclosing loops. Re-hoisting moves the guard computation
/// and hull address chain (pure, non-trapping instructions over
/// enclosing-invariant leaves) into the enclosing preheader, so nests of
/// any depth still collapse to O(1) checks; hoisting out of an enclosing
/// *symbolic* loop conjoins that loop's exact trip test (trip false <=>
/// the inner preheader never ran) onto the moved guard.
///
//===----------------------------------------------------------------------===//

#include "opt/checks/LoopHoist.h"

#include "opt/Dominators.h"
#include "opt/checks/CheckOpt.h"
#include "opt/checks/Loops.h"
#include "opt/checks/RangeAnalysis.h"
#include "support/Casting.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

using namespace softbound;
using namespace softbound::checkopt;

namespace {

/// Bound on each |K * symbol| product term of an emitted hull offset: far
/// from the i64 edge, so the two `mul`s and the following `add`s cannot
/// wrap (their mathematical sum is the region-bounded offset).
constexpr int64_t MaxProductTerm = int64_t(1) << 62;

/// Bounds for the arithmetic of an emitted cross-constraint test
/// `KI*I + KL*L + C >= 0`: products clamped to 2^60 and |C| to 2^61 keep
/// every intermediate i64 sum below 2^62.
constexpr int64_t CrossProdMax = int64_t(1) << 60;
constexpr int64_t CrossCMax = int64_t(1) << 61;

__int128 widthMin(unsigned Bits) {
  if (Bits >= 64)
    Bits = 64;
  return -(__int128(1) << (Bits - 1));
}
__int128 widthMax(unsigned Bits) {
  if (Bits >= 64)
    Bits = 64;
  return (__int128(1) << (Bits - 1)) - 1;
}

__int128 floorDiv(__int128 A, __int128 B) { // B > 0
  __int128 Q = A / B;
  return Q * B > A ? Q - 1 : Q;
}
__int128 ceilDiv(__int128 A, __int128 B) { // B > 0
  __int128 Q = A / B;
  return Q * B < A ? Q + 1 : Q;
}

/// A value affine in the run-time values of the (up to two) symbols of
/// the active symbolic dimension: C + KI * init-symbol + KL * limit-symbol.
/// KI == KL == 0 is the compile-time-constant case.
struct AffVal {
  __int128 C = 0;
  int64_t KI = 0;
  int64_t KL = 0;
  bool isConst() const { return KI == 0 && KL == 0; }
};

/// Inclusive IV span over the box; at most one dimension of a box is
/// affine (the one driven by the symbolic bounds).
struct IVSpan {
  AffVal Lo, Hi;
};
using IVBox = std::map<const Value *, IVSpan>;

/// The (up to two) symbols a hull may be affine in. Either may be null:
/// a constant init or constant limit contributes through AffVal::C only.
struct SymPair {
  const Value *I = nullptr;
  const Value *L = nullptr;
};

/// One two-symbol constraint KI*I + KL*L + C >= 0 (both coefficients
/// nonzero — single-symbol constraints narrow the intervals instead).
struct CrossIneq {
  int64_t KI = 0;
  int64_t KL = 0;
  int64_t C = 0;
  bool operator<(const CrossIneq &O) const {
    return std::tie(KI, KL, C) < std::tie(O.KI, O.KL, O.C);
  }
  bool operator==(const CrossIneq &O) const {
    return KI == O.KI && KL == O.KL && C == O.C;
  }
};

/// One inclusive interval of symbol values.
struct SymInterval {
  int64_t Lo = INT64_MIN;
  int64_t Hi = INT64_MAX;
};

/// The region of (I, L) values for which every accumulated proof
/// obligation holds: a rectangle of per-symbol intervals intersected with
/// two-symbol half-planes, narrowed constraint by constraint. Constant
/// obligations either hold for every (I, L) or empty the region outright.
struct SymRegion {
  SymInterval I, L;
  std::vector<CrossIneq> Cross;
  bool Empty = false;

  void clampLo(SymInterval &S, __int128 V) {
    if (V > INT64_MAX) {
      Empty = true;
      return;
    }
    if (V > S.Lo)
      S.Lo = static_cast<int64_t>(V);
    if (S.Lo > S.Hi)
      Empty = true;
  }
  void clampHi(SymInterval &S, __int128 V) {
    if (V < INT64_MIN) {
      Empty = true;
      return;
    }
    if (V < S.Hi)
      S.Hi = static_cast<int64_t>(V);
    if (S.Lo > S.Hi)
      Empty = true;
  }
  bool bounded() const {
    return I.Lo > INT64_MIN || I.Hi < INT64_MAX || L.Lo > INT64_MIN ||
           L.Hi < INT64_MAX || !Cross.empty();
  }
};

/// Appends the two-symbol constraint KI*I + KL*L + C >= 0, conjoining the
/// interval clamps that keep its emitted i64 test arithmetic exact (a
/// failed clamp falsifies the conjunction before the cross value is
/// read). A constant term too large to test empties the region — the
/// hull is simply not built.
void addCross(SymRegion &R, __int128 KI, __int128 KL, __int128 C) {
  if (R.Empty)
    return;
  if (!fitsWidth(KI, 64) || !fitsWidth(KL, 64) || C < -__int128(CrossCMax) ||
      C > __int128(CrossCMax)) {
    R.Empty = true;
    return;
  }
  __int128 AbsKI = KI > 0 ? KI : -KI;
  __int128 AbsKL = KL > 0 ? KL : -KL;
  __int128 QI = CrossProdMax / AbsKI;
  __int128 QL = CrossProdMax / AbsKL;
  R.clampLo(R.I, -QI);
  R.clampHi(R.I, QI);
  R.clampLo(R.L, -QL);
  R.clampHi(R.L, QL);
  if (R.Empty)
    return;
  CrossIneq CI{static_cast<int64_t>(KI), static_cast<int64_t>(KL),
               static_cast<int64_t>(C)};
  if (std::find(R.Cross.begin(), R.Cross.end(), CI) == R.Cross.end())
    R.Cross.push_back(CI);
}

/// Requires A(I, L) >= Min for every (I, L) in the region (narrowing the
/// region to exactly the values satisfying it; two-symbol obligations
/// narrow to the half-plane plus its test clamps).
void requireMin(SymRegion &R, const AffVal &A, __int128 Min) {
  if (R.Empty)
    return;
  if (A.KI == 0 && A.KL == 0) {
    if (A.C < Min)
      R.Empty = true;
  } else if (A.KL == 0) {
    if (A.KI > 0)
      R.clampLo(R.I, ceilDiv(Min - A.C, A.KI));
    else
      R.clampHi(R.I, floorDiv(A.C - Min, -__int128(A.KI)));
  } else if (A.KI == 0) {
    if (A.KL > 0)
      R.clampLo(R.L, ceilDiv(Min - A.C, A.KL));
    else
      R.clampHi(R.L, floorDiv(A.C - Min, -__int128(A.KL)));
  } else {
    addCross(R, A.KI, A.KL, A.C - Min);
  }
}

/// Requires A(I, L) <= Max for every (I, L) in the region.
void requireMax(SymRegion &R, const AffVal &A, __int128 Max) {
  if (R.Empty)
    return;
  if (A.KI == 0 && A.KL == 0) {
    if (A.C > Max)
      R.Empty = true;
  } else if (A.KL == 0) {
    if (A.KI > 0)
      R.clampHi(R.I, floorDiv(Max - A.C, A.KI));
    else
      R.clampLo(R.I, ceilDiv(A.C - Max, -__int128(A.KI)));
  } else if (A.KI == 0) {
    if (A.KL > 0)
      R.clampHi(R.L, floorDiv(Max - A.C, A.KL));
    else
      R.clampLo(R.L, ceilDiv(A.C - Max, -__int128(A.KL)));
  } else {
    addCross(R, -__int128(A.KI), -__int128(A.KL), Max - A.C);
  }
}

/// An integer as an exact linear function B + SI*I + SL*L +
/// sum(Coef[iv] * iv) over the box IVs and the symbols.
struct LinExpr {
  std::map<const Value *, int64_t> Coef;
  int64_t B = 0;
  int64_t SI = 0; ///< Coefficient of the init symbol used as a leaf.
  int64_t SL = 0; ///< Coefficient of the limit symbol used as a leaf.
  bool isPureConst() const { return Coef.empty() && SI == 0 && SL == 0; }
};

/// Extremes of a (separable) linear form over the box, as affine
/// functions of (I, L). False when a coefficient combination escapes i64.
bool extremes(const LinExpr &E, const IVBox &Box, AffVal &Min, AffVal &Max) {
  __int128 MinC = E.B, MaxC = E.B;
  __int128 MinKI = E.SI, MaxKI = E.SI, MinKL = E.SL, MaxKL = E.SL;
  for (const auto &[IV, A] : E.Coef) {
    const IVSpan &S = Box.at(IV);
    const AffVal &ForMin = A >= 0 ? S.Lo : S.Hi;
    const AffVal &ForMax = A >= 0 ? S.Hi : S.Lo;
    MinC += __int128(A) * ForMin.C;
    MaxC += __int128(A) * ForMax.C;
    MinKI += __int128(A) * ForMin.KI;
    MaxKI += __int128(A) * ForMax.KI;
    MinKL += __int128(A) * ForMin.KL;
    MaxKL += __int128(A) * ForMax.KL;
  }
  if (!fitsWidth(MinKI, 64) || !fitsWidth(MaxKI, 64) ||
      !fitsWidth(MinKL, 64) || !fitsWidth(MaxKL, 64))
    return false;
  Min = AffVal{MinC, static_cast<int64_t>(MinKI), static_cast<int64_t>(MinKL)};
  Max = AffVal{MaxC, static_cast<int64_t>(MaxKI), static_cast<int64_t>(MaxKL)};
  return true;
}

/// Requires the node's real (width-wrapped) evaluation to match the exact
/// linear value for every point of the box and every (I, L) in the
/// region, and to stay far below the 64-bit wrap guard. Narrows the
/// region; empties it when no (I, L) qualifies.
bool boxFits(const LinExpr &E, const IVBox &Box, unsigned Bits,
             SymRegion &Win) {
  AffVal Min, Max;
  if (!extremes(E, Box, Min, Max))
    return false;
  __int128 Lo = std::max<__int128>(widthMin(Bits), -__int128(MaxFoldedOffset));
  __int128 Hi = std::min<__int128>(widthMax(Bits), MaxFoldedOffset);
  requireMin(Win, Min, Lo);
  requireMax(Win, Max, Hi);
  return !Win.Empty;
}

bool addScaled(LinExpr &Acc, const LinExpr &E, int64_t Scale) {
  __int128 B = __int128(Acc.B) + __int128(E.B) * Scale;
  __int128 SI = __int128(Acc.SI) + __int128(E.SI) * Scale;
  __int128 SL = __int128(Acc.SL) + __int128(E.SL) * Scale;
  if (!fitsWidth(B, 64) || !fitsWidth(SI, 64) || !fitsWidth(SL, 64))
    return false;
  Acc.B = static_cast<int64_t>(B);
  Acc.SI = static_cast<int64_t>(SI);
  Acc.SL = static_cast<int64_t>(SL);
  for (const auto &[IV, A] : E.Coef) {
    __int128 C = __int128(Acc.Coef[IV]) + __int128(A) * Scale;
    if (!fitsWidth(C, 64))
      return false;
    Acc.Coef[IV] = static_cast<int64_t>(C);
  }
  return true;
}

/// Linearizes integer \p V over the IV box, accumulating proof-obligation
/// constraints on (I, L) into \p Win. Leaves must be constants, box IVs,
/// or the symbols themselves (loop-invariant and canonical, so a direct
/// use reads the same value the span endpoints do — exact, no widening);
/// any other loop-invariant but unknown value cannot contribute to a
/// hull. Every box dimension the expression *touches* is recorded in
/// \p Used — including dimensions whose coefficient later cancels: any
/// per-node obligation was evaluated over that dimension's span, whose
/// validity needs the owning loop's wrap window.
bool linearizeInt(Value *V, const IVBox &Box, const SymPair &Syms,
                  SymRegion &Win, std::set<const Value *> &Used, LinExpr &Out,
                  int Depth = 0) {
  if (Depth > 16)
    return false;
  if (auto *C = dyn_cast<ConstantInt>(V)) {
    Out = LinExpr{{}, C->value(), 0, 0};
    return true;
  }
  if (Box.count(V)) {
    Used.insert(V);
    Out = LinExpr{{{V, 1}}, 0, 0, 0}; // IV values fit their width.
    return true;
  }
  if (V == Syms.I) {
    Out = LinExpr{{}, 0, 1, 0}; // Canonical symbol value: fits its width.
    return true;
  }
  if (V == Syms.L) {
    Out = LinExpr{{}, 0, 0, 1};
    return true;
  }
  if (auto *Cast = dyn_cast<CastInst>(V)) {
    LinExpr Src;
    if (!linearizeInt(Cast->source(), Box, Syms, Win, Used, Src, Depth + 1))
      return false;
    switch (Cast->opcode()) {
    case CastInst::Op::SExt:
      Out = std::move(Src); // Canonical values are already sign-extended.
      return true;
    case CastInst::Op::ZExt: {
      // zext equals the identity only on non-negative values.
      AffVal Min, Max;
      if (!extremes(Src, Box, Min, Max))
        return false;
      requireMin(Win, Min, 0);
      if (Win.Empty)
        return false;
      Out = std::move(Src);
      return true;
    }
    default:
      return false; // Trunc/PtrToInt/...: value-changing, reject.
    }
  }
  if (auto *BO = dyn_cast<BinOpInst>(V)) {
    LinExpr L, R;
    if (!linearizeInt(BO->lhs(), Box, Syms, Win, Used, L, Depth + 1) ||
        !linearizeInt(BO->rhs(), Box, Syms, Win, Used, R, Depth + 1))
      return false;
    LinExpr Res;
    switch (BO->opcode()) {
    case BinOpInst::Op::Add:
      Res = std::move(L);
      if (!addScaled(Res, R, 1))
        return false;
      break;
    case BinOpInst::Op::Sub:
      Res = std::move(L);
      if (!addScaled(Res, R, -1))
        return false;
      break;
    case BinOpInst::Op::Mul: {
      if (!L.isPureConst() && !R.isPureConst())
        return false; // Nonlinear in the IVs or symbols.
      const LinExpr &Var = L.isPureConst() ? R : L;
      int64_t K = L.isPureConst() ? L.B : R.B;
      Res = LinExpr{};
      if (!addScaled(Res, Var, K))
        return false;
      break;
    }
    case BinOpInst::Op::SRem:
    case BinOpInst::Op::URem: {
      // `X % C` is the identity when X provably stays in [0, C): the
      // common power-of-two wrap guard on an index that never wraps.
      if (!R.isPureConst() || R.B <= 0)
        return false;
      AffVal Min, Max;
      if (!extremes(L, Box, Min, Max))
        return false;
      requireMin(Win, Min, 0);
      requireMax(Win, Max, R.B - 1);
      if (Win.Empty)
        return false;
      Res = std::move(L);
      break;
    }
    default:
      return false;
    }
    unsigned Bits = cast<IntType>(BO->type())->bits();
    if (!boxFits(Res, Box, Bits, Win))
      return false;
    Out = std::move(Res);
    return true;
  }
  return false;
}

/// A pointer as Root (loop-invariant) plus a linear byte offset.
struct LinPtr {
  Value *Root = nullptr;
  LinExpr Off;
};

/// Linearizes pointer \p P through in-loop bitcasts and GEPs down to a
/// loop-invariant root, narrowing \p Win with every node's obligations
/// and recording every box dimension touched in \p Used.
bool linearizePtr(Value *P, const NaturalLoop &L, const IVBox &Box,
                  const SymPair &Syms, SymRegion &Win,
                  std::set<const Value *> &Used, LinPtr &Out, int Depth = 0) {
  if (Depth > 16)
    return false;
  if (L.isInvariant(P)) {
    Out = LinPtr{P, {}};
    return true;
  }
  if (auto *BC = dyn_cast<CastInst>(P);
      BC && BC->opcode() == CastInst::Op::Bitcast)
    return linearizePtr(BC->source(), L, Box, Syms, Win, Used, Out, Depth + 1);
  auto *G = dyn_cast<GEPInst>(P);
  if (!G)
    return false;
  if (!linearizePtr(G->pointer(), L, Box, Syms, Win, Used, Out, Depth + 1))
    return false;

  bool OK = G->walkSteps([&](const GEPStep &S) {
    if (S.Field) {
      Out.Off.B += S.Bytes;
      return true;
    }
    LinExpr Idx;
    return linearizeInt(S.Index, Box, Syms, Win, Used, Idx) &&
           addScaled(Out.Off, Idx, S.Bytes);
  });
  // Final guard: hull offsets stay far from any 64-bit wrap.
  return OK && boxFits(Out.Off, Box, 64, Win);
}

/// Inserts \p I before the terminator of \p BB.
template <typename T> T *insertAtEnd(BasicBlock *BB, T *I) {
  I->setParent(BB);
  BB->insertBefore(std::prev(BB->end()), std::unique_ptr<Instruction>(I));
  return I;
}

/// True when moving \p I to a dominating block cannot change behaviour:
/// pure and unable to trap (divisions stay put — except by a nonzero
/// constant, which the stride-divisibility guards rely on).
bool isSpeculatable(const Instruction *I) {
  switch (I->kind()) {
  case ValueKind::GEP:
  case ValueKind::Cast:
  case ValueKind::ICmp:
  case ValueKind::Select:
    return true;
  case ValueKind::BinOp:
    switch (cast<BinOpInst>(I)->opcode()) {
    case BinOpInst::Op::SDiv:
    case BinOpInst::Op::UDiv:
    case BinOpInst::Op::SRem:
    case BinOpInst::Op::URem: {
      // May trap on a zero divisor — unless the divisor is a nonzero
      // compile-time constant (the emitted divisibility tests). Nonzero
      // is judged *after* masking to the instruction's width: the VM's
      // unsigned-division trap test masks, so an un-canonical constant
      // like (i8 256) is a zero divisor at run time.
      auto *C = dyn_cast<ConstantInt>(cast<BinOpInst>(I)->rhs());
      if (!C)
        return false;
      uint64_t V = static_cast<uint64_t>(C->value());
      unsigned Bits = cast<IntType>(C->type())->bits();
      if (Bits < 64)
        V &= (uint64_t(1) << Bits) - 1;
      return V != 0;
    }
    default:
      return true;
    }
  default:
    return false;
  }
}

/// How each loop of the function was classified.
struct LoopShape {
  bool Usable = false; ///< Counted and body safe.
  CountedLoop CL;
};

/// A counted loop's init and limit as affine values (constants collapse
/// to C).
AffVal initAff(const CountedLoop &CL) {
  return CL.Init.Sym ? AffVal{0, 1, 0} : AffVal{CL.Init.C, 0, 0};
}
AffVal limitAff(const CountedLoop &CL) {
  return CL.Limit.Sym ? AffVal{0, 0, 1} : AffVal{CL.Limit.C, 0, 0};
}

/// The IV span a check in \p CL observes, as affine endpoints: the body
/// IVs, plus the exit IV for a header check of an exact loop
/// (\p ThroughExit; header checks of symbolic loops are never hoisted).
IVSpan spanOf(const CountedLoop &CL, bool ThroughExit) {
  AffVal Last = limitAff(CL);
  if (CL.isSymbolic())
    Last.C += CL.EndAdj;
  else
    Last = AffVal{ThroughExit ? CL.ExitIV : CL.LastBody, 0, 0};
  AffVal First = initAff(CL);
  return CL.Step > 0 ? IVSpan{First, Last} : IVSpan{Last, First};
}

/// Per-loop hoisting context, caching the i8* view of each root pointer,
/// the widened symbol values, and the emitted guard values.
class LoopHoister {
public:
  using LoopOfIV = std::map<const Value *, const NaturalLoop *>;
  using BlockPosMap = std::map<const BasicBlock *, unsigned>;

  LoopHoister(Module &M, const NaturalLoop &L, const CountedLoop &CL,
              const DomTree &DT, const BlockPosMap &BlockPos,
              const IVBox &Enclosing, const LoopOfIV &EnclosingLoops,
              const CountedLoop *AncestorSym,
              const ArgRangeTable *ArgRanges, bool &DischargeUsed,
              CheckOptStats &Stats)
      : M(M), L(L), CL(CL), DT(DT), BlockPos(BlockPos),
        Enclosing(Enclosing), EnclosingLoops(EnclosingLoops),
        AncestorSym(AncestorSym), ArgRanges(ArgRanges),
        DischargeUsed(DischargeUsed), Stats(Stats),
        SymSrc(CL.isSymbolic() ? &CL : AncestorSym) {
    if (SymSrc) {
      Syms.I = SymSrc->Init.Sym;
      Syms.L = SymSrc->Limit.Sym;
      RI = rangeOf(SymSrc->Init);
      RL = rangeOf(SymSrc->Limit);
    }
  }

  void run() {
    // Visit the loop's blocks in function order, never in pointer-set
    // order: hull emission order must be identical from run to run, or
    // the gated dynamic-check counts drift under ASLR.
    std::vector<BasicBlock *> Ordered(L.Blocks.begin(), L.Blocks.end());
    std::sort(Ordered.begin(), Ordered.end(),
              [&](const BasicBlock *A, const BasicBlock *B) {
                return BlockPos.at(A) < BlockPos.at(B);
              });
    for (BasicBlock *BB : Ordered) {
      if (!DT.dominates(BB, L.Latch)) // Checks that run on every iteration.
        continue;
      // Symbolic loops: header checks also run on the (possibly zero-trip)
      // exiting pass, whose IV is the exit value — leave them alone.
      if (CL.isSymbolic() && BB == L.Header)
        continue;
      hoistInBlock(BB);
    }
  }

private:
  void hoistInBlock(BasicBlock *BB);
  Value *byteView(Value *Root);
  Value *sym64(const Value *Sym);
  Value *bound64(const LoopBound &B);
  Value *scaled(Value *V, int64_t K, const std::string &Name);
  Value *andOf(Value *A, Value *B);
  Value *guardFor(const SymRegion &Win);
  Value *tripGuard();
  Value *divisGuard();
  Value *combinedGuard(const SymRegion &Win, bool NeedTrip, bool NeedDiv);
  Value *notOf(Value *G);
  void emitHull(Value *Root, const AffVal &Off, const SpatialCheckInst *Proto,
                Value *Guard);
  bool collectAvailChain(Value *V, std::vector<Instruction *> &PostOrder,
                         std::set<const Value *> &Visited, int Budget);
  void commitAvailChain(const std::vector<Instruction *> &PostOrder);

  /// The inter-procedurally propagated range of a symbol's run-time
  /// value: argument ranges peeled through value-preserving sign
  /// extensions and constant +/- chains (each step width-checked — a
  /// shift that could wrap its node's width collapses to full). Constants
  /// are point ranges. Sets RangesUseArg when an Argument range was read.
  IntRange rangeOf(const Value *V, int Depth = 0) {
    if (Depth > 8)
      return IntRange::full();
    if (auto *C = dyn_cast<ConstantInt>(V))
      return IntRange::of(C->value());
    if (auto *A = dyn_cast<Argument>(V)) {
      if (!ArgRanges)
        return IntRange::full();
      auto It = ArgRanges->find(A->parent());
      if (It == ArgRanges->end())
        return IntRange::full();
      RangesUseArg = true;
      return It->second[A->index()];
    }
    if (auto *CI = dyn_cast<CastInst>(V);
        CI && CI->opcode() == CastInst::Op::SExt)
      return rangeOf(CI->source(), Depth + 1);
    if (auto *B = dyn_cast<BinOpInst>(V)) {
      const ConstantInt *C = nullptr;
      const Value *Other = nullptr;
      int Sign = 0;
      if (B->opcode() == BinOpInst::Op::Add) {
        if ((C = dyn_cast<ConstantInt>(B->rhs()))) {
          Other = B->lhs();
          Sign = 1;
        } else if ((C = dyn_cast<ConstantInt>(B->lhs()))) {
          Other = B->rhs();
          Sign = 1;
        }
      } else if (B->opcode() == BinOpInst::Op::Sub) {
        if ((C = dyn_cast<ConstantInt>(B->rhs()))) {
          Other = B->lhs();
          Sign = -1;
        }
      }
      if (C && Other) {
        IntRange R = rangeOf(Other, Depth + 1);
        if (R.empty() || R.isFull())
          return R;
        unsigned Bits = cast<IntType>(B->type())->bits();
        __int128 Lo = __int128(R.Lo) + Sign * __int128(C->value());
        __int128 Hi = __int128(R.Hi) + Sign * __int128(C->value());
        // The binop wraps at its width; the shifted range is its value
        // only when no point of it can leave that width.
        if (Lo < widthMin(Bits) || Hi > widthMax(Bits))
          return IntRange::full();
        return IntRange::make(static_cast<int64_t>(Lo),
                              static_cast<int64_t>(Hi));
      }
    }
    return IntRange::full();
  }

  /// rangeOf over a loop bound; a constant bound is a point range.
  IntRange rangeOf(const LoopBound &B) {
    return B.Sym ? rangeOf(B.Sym) : IntRange::of(B.C);
  }

  /// True when \p P(I, L) holds for every (I, L) in the symbol ranges.
  /// On the stay-predicate it proves at least one body iteration runs; on
  /// invertPred of it, that none ever does.
  bool holdsOverRanges(ICmpInst::Pred P) const {
    if (!usable(RI) || !usable(RL))
      return false;
    switch (P) {
    case ICmpInst::Pred::SLT:
      return RI.Hi < RL.Lo;
    case ICmpInst::Pred::SLE:
      return RI.Hi <= RL.Lo;
    case ICmpInst::Pred::SGT:
      return RI.Lo > RL.Hi;
    case ICmpInst::Pred::SGE:
      return RI.Lo >= RL.Hi;
    default:
      return false;
    }
  }

  bool usable(const IntRange &R) const { return !R.empty() && !R.isFull(); }

  /// True when the symbol ranges prove every (I, L) lands inside \p Win
  /// — plus the trip and divisibility conditions when requested — the
  /// static discharge of the region guard.
  bool rangeDischarges(const SymRegion &Win, bool NeedTrip,
                       bool NeedDiv) const {
    if (!usable(RI) || !usable(RL))
      return false;
    if (RI.Lo < Win.I.Lo || RI.Hi > Win.I.Hi || RL.Lo < Win.L.Lo ||
        RL.Hi > Win.L.Hi)
      return false;
    for (const CrossIneq &X : Win.Cross) {
      __int128 Min = __int128(X.C) +
                     __int128(X.KI) * (X.KI > 0 ? RI.Lo : RI.Hi) +
                     __int128(X.KL) * (X.KL > 0 ? RL.Lo : RL.Hi);
      if (Min < 0)
        return false;
    }
    if (NeedTrip && !holdsOverRanges(SymSrc->Pred))
      return false;
    if (NeedDiv) {
      // Only point ranges can settle divisibility statically.
      if (RI.Lo != RI.Hi || RL.Lo != RL.Hi)
        return false;
      int64_t S = SymSrc->Step > 0 ? SymSrc->Step : -SymSrc->Step;
      if ((__int128(RL.Lo) - RI.Lo) % S != 0)
        return false;
    }
    return true;
  }

  /// Records a guard the symbol ranges discharged: any proof that read an
  /// Argument range obliges the driver to record the entry contract.
  void noteDischarge() {
    ++Stats.RuntimeGuardsDischarged;
    DischargeUsed |= RangesUseArg;
  }

  /// Erases the check at \p It when the hoisted loop is symbolic and its
  /// ranges prove no body iteration ever runs: the check is dead at every
  /// call site.
  bool eraseIfZeroTrip(BasicBlock *BB, BasicBlock::iterator &It) {
    if (!CL.isSymbolic() || !holdsOverRanges(invertPred(CL.Pred)))
      return false;
    It = BB->erase(It);
    ++Stats.LoopChecksHoisted;
    noteDischarge();
    return true;
  }

  Module &M;
  const NaturalLoop &L;
  const CountedLoop &CL; ///< The hoisted loop's counted form.
  const DomTree &DT;
  const BlockPosMap &BlockPos; ///< Function-order index of every block.
  const IVBox &Enclosing; ///< Usable IVs of enclosing counted loops.
  const LoopOfIV &EnclosingLoops; ///< Which loop each enclosing IV drives.
  const CountedLoop *AncestorSym; ///< Symbolic ancestor dim, if any.
  const ArgRangeTable *ArgRanges; ///< Interproc argument ranges.
  bool &DischargeUsed; ///< Out-flag: a range proof was relied on.
  CheckOptStats &Stats;
  const CountedLoop *SymSrc; ///< Owner of the symbols, if any.
  SymPair Syms; ///< The (up to two) symbols usable here.
  IntRange RI = IntRange::full(); ///< Range of the init symbol.
  IntRange RL = IntRange::full(); ///< Range of the limit symbol.
  bool RangesUseArg = false; ///< RI or RL read an Argument range.
  std::map<Value *, Value *> ByteViews;
  std::map<const Value *, Value *> Sym64s;
  using GuardKey = std::tuple<int64_t, int64_t, int64_t, int64_t,
                              std::vector<CrossIneq>>;
  std::map<GuardKey, Value *> Guards;
  std::map<std::tuple<Value *, bool, bool>, Value *> Combined;
  Value *TripG = nullptr;
  Value *DivisG = nullptr;
  std::map<Value *, Value *> NotGuards;
  /// Hull emission dedup: (root, C, KI, KL, bounds, guard) -> strongest
  /// (size, is-store) already emitted for that address.
  std::map<std::tuple<Value *, int64_t, int64_t, int64_t, Value *, Value *>,
           std::pair<uint64_t, bool>>
      Emitted;
};

Value *LoopHoister::byteView(Value *Root) {
  auto It = ByteViews.find(Root);
  if (It != ByteViews.end())
    return It->second;
  Type *I8P = M.ctx().ptrTo(M.ctx().i8());
  Value *View = Root;
  if (Root->type() != I8P)
    View = insertAtEnd(L.Preheader,
                       new CastInst(CastInst::Op::Bitcast, Root, I8P,
                                    Root->name() + ".i8"));
  ByteViews[Root] = View;
  return View;
}

/// The symbol's run-time value widened to i64 in the preheader.
Value *LoopHoister::sym64(const Value *Sym) {
  auto It = Sym64s.find(Sym);
  if (It != Sym64s.end())
    return It->second;
  Type *I64 = M.ctx().i64();
  Value *V = const_cast<Value *>(Sym);
  if (V->type() != I64)
    V = insertAtEnd(L.Preheader,
                    new CastInst(CastInst::Op::SExt, V, I64, "sym64"));
  Sym64s[Sym] = V;
  return V;
}

Value *LoopHoister::bound64(const LoopBound &B) {
  return B.Sym ? sym64(B.Sym) : static_cast<Value *>(M.constI64(B.C));
}

Value *LoopHoister::scaled(Value *V, int64_t K, const std::string &Name) {
  if (K == 1)
    return V;
  return insertAtEnd(L.Preheader,
                     new BinOpInst(BinOpInst::Op::Mul, V, M.constI64(K), Name));
}

Value *LoopHoister::andOf(Value *A, Value *B) {
  if (!A)
    return B;
  if (!B)
    return A;
  return insertAtEnd(L.Preheader,
                     new BinOpInst(BinOpInst::Op::And, A, B, "hull.g"));
}

/// Materializes the region test in the preheader: per-symbol interval
/// halves (those already implied by the symbol's own bit width — every
/// canonical value lies inside it — are elided) conjoined with each
/// two-symbol constraint test. Null when the whole region is implied.
Value *LoopHoister::guardFor(const SymRegion &Win) {
  int64_t ILo = INT64_MIN, IHi = INT64_MAX, LLo = INT64_MIN, LHi = INT64_MAX;
  if (Syms.I) {
    unsigned B = cast<IntType>(Syms.I->type())->bits();
    if (Win.I.Lo > widthMin(B))
      ILo = Win.I.Lo;
    if (Win.I.Hi < widthMax(B))
      IHi = Win.I.Hi;
  }
  if (Syms.L) {
    unsigned B = cast<IntType>(Syms.L->type())->bits();
    if (Win.L.Lo > widthMin(B))
      LLo = Win.L.Lo;
    if (Win.L.Hi < widthMax(B))
      LHi = Win.L.Hi;
  }
  std::vector<CrossIneq> Cross = Win.Cross;
  std::sort(Cross.begin(), Cross.end());
  GuardKey Key{ILo, IHi, LLo, LHi, Cross};
  auto It = Guards.find(Key);
  if (It != Guards.end())
    return It->second;

  Type *I1 = M.ctx().i1();
  Value *G = nullptr;
  auto AddCmp = [&](ICmpInst::Pred P, const Value *Sym, int64_t C,
                    const char *Nm) {
    G = andOf(G, insertAtEnd(L.Preheader,
                             new ICmpInst(P, sym64(Sym), M.constI64(C), I1,
                                          Nm)));
  };
  if (ILo != INT64_MIN)
    AddCmp(ICmpInst::Pred::SGE, Syms.I, ILo, "hull.gilo");
  if (IHi != INT64_MAX)
    AddCmp(ICmpInst::Pred::SLE, Syms.I, IHi, "hull.gihi");
  if (LLo != INT64_MIN)
    AddCmp(ICmpInst::Pred::SGE, Syms.L, LLo, "hull.gllo");
  if (LHi != INT64_MAX)
    AddCmp(ICmpInst::Pred::SLE, Syms.L, LHi, "hull.glhi");
  for (const CrossIneq &X : Cross) {
    Value *Sum = insertAtEnd(
        L.Preheader,
        new BinOpInst(BinOpInst::Op::Add, scaled(sym64(Syms.I), X.KI, "hull.xi"),
                      scaled(sym64(Syms.L), X.KL, "hull.xl"), "hull.xs"));
    if (X.C != 0)
      Sum = insertAtEnd(L.Preheader,
                        new BinOpInst(BinOpInst::Op::Add, Sum,
                                      M.constI64(X.C), "hull.xc"));
    G = andOf(G, insertAtEnd(L.Preheader,
                             new ICmpInst(ICmpInst::Pred::SGE, Sum,
                                          M.constI64(0), I1, "hull.gx")));
  }
  Guards[Key] = G;
  return G;
}

/// The exact "body runs at least once" test: the loop's oriented
/// stay-predicate over the live init and limit values. One icmp on
/// canonical i64 values — no arithmetic, so exact in both directions
/// (false <=> the body, and hence any original in-loop check, never
/// executed).
Value *LoopHoister::tripGuard() {
  if (TripG)
    return TripG;
  TripG = insertAtEnd(
      L.Preheader,
      new ICmpInst(SymSrc->Pred, bound64(SymSrc->Init), bound64(SymSrc->Limit),
                   M.ctx().i1(), "hull.trip"));
  return TripG;
}

/// The stride-divisibility test `(L - I) % |step| == 0`. Its subtraction
/// is exact only under the |I|, |L| <= 2^61 interval clamps the caller
/// conjoins into the region whenever this guard is needed; outside them
/// the region conjunct is already false and the garbage remainder is
/// ignored. srem by a nonzero constant cannot trap.
Value *LoopHoister::divisGuard() {
  if (DivisG)
    return DivisG;
  int64_t S = SymSrc->Step > 0 ? SymSrc->Step : -SymSrc->Step;
  Value *D = insertAtEnd(
      L.Preheader,
      new BinOpInst(BinOpInst::Op::Sub, bound64(SymSrc->Limit),
                    bound64(SymSrc->Init), "hull.span"));
  Value *R = insertAtEnd(L.Preheader, new BinOpInst(BinOpInst::Op::SRem, D,
                                                    M.constI64(S), "hull.rem"));
  DivisG = insertAtEnd(L.Preheader,
                       new ICmpInst(ICmpInst::Pred::EQ, R, M.constI64(0),
                                    M.ctx().i1(), "hull.div"));
  ++Stats.RuntimeDivisGuards;
  return DivisG;
}

/// The full hull guard: region test AND exact trip test AND divisibility,
/// as requested. Cached so every check of the loop sharing a region
/// shares one guard value (the Emitted dedup and the VM's guard
/// accounting both key on value identity).
Value *LoopHoister::combinedGuard(const SymRegion &Win, bool NeedTrip,
                                  bool NeedDiv) {
  Value *Region = guardFor(Win);
  auto Key = std::make_tuple(Region, NeedTrip, NeedDiv);
  auto It = Combined.find(Key);
  if (It != Combined.end())
    return It->second;
  Value *G = Region;
  if (NeedTrip)
    G = andOf(G, tripGuard());
  if (NeedDiv)
    G = andOf(G, divisGuard());
  Combined[Key] = G;
  return G;
}

Value *LoopHoister::notOf(Value *G) {
  auto It = NotGuards.find(G);
  if (It != NotGuards.end())
    return It->second;
  Value *N = insertAtEnd(L.Preheader,
                         new BinOpInst(BinOpInst::Op::Xor, G,
                                       M.constI1(true), "hull.ng"));
  NotGuards[G] = N;
  return N;
}

void LoopHoister::emitHull(Value *Root, const AffVal &Off,
                           const SpatialCheckInst *Proto, Value *Guard) {
  // Guard identity participates in the dedup key through the guard Value
  // itself (combinedGuard caches per region, so equal regions share one).
  auto Key = std::make_tuple(Root, static_cast<int64_t>(Off.C), Off.KI,
                             Off.KL, Proto->bounds(), Guard);
  auto It = Emitted.find(Key);
  if (It != Emitted.end() && It->second.first >= Proto->accessSize() &&
      (It->second.second || !Proto->isStoreCheck()))
    return; // An equal-or-stronger hull for these bytes already exists.

  Value *Ptr = byteView(Root);
  if (!Off.isConst()) {
    Value *OffV = nullptr;
    if (Off.KI != 0)
      OffV = scaled(sym64(Syms.I), Off.KI, Root->name() + ".kxi");
    if (Off.KL != 0) {
      Value *T = scaled(sym64(Syms.L), Off.KL, Root->name() + ".kxl");
      OffV = OffV ? insertAtEnd(L.Preheader,
                                new BinOpInst(BinOpInst::Op::Add, OffV, T,
                                              Root->name() + ".kx"))
                  : T;
    }
    if (Off.C != 0)
      OffV = insertAtEnd(L.Preheader,
                         new BinOpInst(BinOpInst::Op::Add, OffV,
                                       M.constI64(static_cast<int64_t>(Off.C)),
                                       Root->name() + ".off"));
    Ptr = insertAtEnd(L.Preheader,
                      new GEPInst(cast<PointerType>(Ptr->type()), M.ctx().i8(),
                                  Ptr, {OffV}, Root->name() + ".hull"));
  } else if (Off.C != 0) {
    Ptr = insertAtEnd(L.Preheader,
                      new GEPInst(cast<PointerType>(Ptr->type()), M.ctx().i8(),
                                  Ptr, {M.constI64(static_cast<int64_t>(Off.C))},
                                  Root->name() + ".hull"));
  }
  insertAtEnd(L.Preheader,
              new SpatialCheckInst(Proto->type(), Ptr, Proto->bounds(),
                                   Proto->accessSize(), Proto->isStoreCheck(),
                                   Guard));
  Emitted[Key] = {std::max(It == Emitted.end() ? 0 : It->second.first,
                           Proto->accessSize()),
                  (It != Emitted.end() && It->second.second) ||
                      Proto->isStoreCheck()};
  ++Stats.HoistedChecksInserted;
  if (Guard)
    ++Stats.RuntimeHullChecks;
}

/// Collects the in-loop instructions (operands-first) that must move to
/// the preheader for \p V to be available there. Every node must be pure,
/// non-trapping, and rooted in loop-invariant leaves. Returns false when
/// \p V cannot be made available.
bool LoopHoister::collectAvailChain(Value *V,
                                    std::vector<Instruction *> &PostOrder,
                                    std::set<const Value *> &Visited,
                                    int Budget) {
  if (L.isInvariant(V))
    return true;
  if (Visited.count(V))
    return true;
  if (static_cast<int>(PostOrder.size()) >= Budget)
    return false;
  auto *I = dyn_cast<Instruction>(V);
  if (!I || !isSpeculatable(I))
    return false;
  Visited.insert(V);
  for (Value *Op : I->operands())
    if (!collectAvailChain(Op, PostOrder, Visited, Budget))
      return false;
  PostOrder.push_back(I);
  return true;
}

void LoopHoister::commitAvailChain(const std::vector<Instruction *> &PostOrder) {
  auto &Target = L.Preheader->instructions();
  for (Instruction *I : PostOrder) {
    BasicBlock *From = I->parent();
    auto &Src = From->instructions();
    for (auto It = Src.begin(); It != Src.end(); ++It) {
      if (It->get() != I)
        continue;
      Target.splice(std::prev(Target.end()), Src, It);
      I->setParent(L.Preheader);
      break;
    }
  }
}

void LoopHoister::hoistInBlock(BasicBlock *BB) {
  bool InHeader = BB == L.Header;
  for (auto It = BB->begin(); It != BB->end();) {
    auto *Chk = dyn_cast<SpatialCheckInst>(It->get());
    if (!Chk || !L.isInvariant(Chk->bounds())) {
      ++It;
      continue;
    }

    if (!CL.isSymbolic() && !InHeader && CL.BodyCount == 0) {
      // Provably dead body: the check never executes at all.
      It = BB->erase(It);
      ++Stats.LoopChecksHoisted;
      continue;
    }

    // --- Path 1: pointer (and guard) available on entry, possibly after
    // moving a pure chain. Covers plain invariant checks and the guarded
    // hull checks an inner loop's pass planted in its preheader.
    {
      Value *P = Chk->pointer();
      Value *G = Chk->guard();
      std::vector<Instruction *> Chain;
      std::set<const Value *> Visited;
      bool Avail = collectAvailChain(P, Chain, Visited, 64) &&
                   (!G || collectAvailChain(G, Chain, Visited, 64));
      if (Avail) {
        // Splice the moved chain in FIRST: everything emitted below (the
        // trip test, the conjoined guard, the hoisted check) must follow
        // the chain's definitions in the preheader, or the And would read
        // its guard operand before it is computed.
        commitAvailChain(Chain);
        if (eraseIfZeroTrip(BB, It))
          continue;
        Value *NewGuard = G;
        if (CL.isSymbolic()) {
          // A check hoisted out of a symbolic loop must not run on a
          // zero-trip pass: conjoin the *exact* trip test (false <=> the
          // body, and hence the original check, never executed) — unless
          // the propagated symbol ranges settle it (an unconstrained
          // region: only the trip is in question).
          if (rangeDischarges(SymRegion{}, /*NeedTrip=*/true,
                              /*NeedDiv=*/false))
            noteDischarge();
          else
            NewGuard = G ? insertAtEnd(L.Preheader,
                                       new BinOpInst(BinOpInst::Op::And,
                                                     tripGuard(), G, "hull.g"))
                         : tripGuard();
        }
        insertAtEnd(L.Preheader,
                    new SpatialCheckInst(Chk->type(), P, Chk->bounds(),
                                         Chk->accessSize(), Chk->isStoreCheck(),
                                         NewGuard));
        ++Stats.HoistedChecksInserted;
        if (NewGuard)
          ++Stats.RuntimeHullChecks;
        ++Stats.LoopChecksHoisted;
        It = BB->erase(It);
        continue;
      }
    }

    // --- Path 2: affine hull. Guarded checks never take it: their guard
    // conditions belong to the pass invocation that emitted them.
    if (Chk->isGuarded()) {
      ++It;
      continue;
    }

    // IV values this check observes: body blocks run the body IV span;
    // a (constant-loop) header check additionally observes the exit IV.
    IVBox Box = Enclosing;
    Box[CL.IV] = spanOf(CL, InHeader);

    SymRegion Win;
    LinPtr LP;
    std::set<const Value *> UsedDims;
    if (!linearizePtr(Chk->pointer(), L, Box, Syms, Win, UsedDims, LP)) {
      ++It;
      continue;
    }
    // Widening over an enclosing IV is only sound when the root pointer
    // and bounds are themselves invariant in that enclosing loop:
    // otherwise the corner check would pair the *current* iteration's root
    // with another iteration's offset — an address the original program
    // never computes.
    bool EnclosingOk = true;
    for (const auto &[IV, A] : LP.Off.Coef) {
      if (A == 0 || IV == CL.IV)
        continue;
      const NaturalLoop *E = EnclosingLoops.at(IV);
      if (!E->isInvariant(LP.Root) || !E->isInvariant(Chk->bounds())) {
        EnclosingOk = false;
        break;
      }
      // Widening over E is equally unsound when a hull *symbol* varies
      // inside E: the corner would pair the live symbol value with other
      // E iterations' span points — a triangular nest (`i = j+1`), whose
      // mixed corners are addresses the program never computes. (A symbol
      // that IS E's IV never reaches here: that dimension was dropped
      // from the box up front and reads through the symbol instead.)
      if ((Syms.I && !E->isInvariant(Syms.I)) ||
          (Syms.L && !E->isInvariant(Syms.L))) {
        EnclosingOk = false;
        break;
      }
    }
    if (!EnclosingOk) {
      ++It;
      continue;
    }
    // The ancestor's span (and hence every obligation evaluated over it)
    // is only the true iteration set while the ancestor's own IV cannot
    // wrap — required whenever the expression *touched* that dimension,
    // even if its coefficient cancelled out of the final offset.
    bool AncestorSymUsed =
        AncestorSym && UsedDims.count(AncestorSym->IV) != 0;

    // The region: per-node obligations are already in Win; add the
    // IV-wrap windows of every symbolic dimension the hull relies on.
    // The hoisted loop's own trip test is a separate exact conjunct (its
    // hull checks run even when the loop would not); the ancestor's trip
    // is execution-implied (this preheader only runs inside its body),
    // so only its wrap window — and, for strided shapes, divisibility —
    // is needed.
    bool NeedTrip = CL.isSymbolic();
    // Divisibility validates only a strided span's closed-form endpoint,
    // so it is needed exactly when the expression touched that span's
    // dimension — for the hoisted loop just as for the ancestor. (Only
    // the symbolic form sets NeedDivis.)
    bool NeedDiv =
        (CL.NeedDivis && UsedDims.count(CL.IV) != 0) ||
        (AncestorSymUsed && AncestorSym->NeedDivis);
    if (NeedTrip) {
      requireMin(Win, limitAff(CL), CL.LimitMin);
      requireMax(Win, limitAff(CL), CL.LimitMax);
    }
    if (AncestorSymUsed) {
      requireMin(Win, limitAff(*AncestorSym), AncestorSym->LimitMin);
      requireMax(Win, limitAff(*AncestorSym), AncestorSym->LimitMax);
    }
    if (NeedDiv) {
      // Keep the divisibility test's i64 subtraction exact.
      requireMin(Win, initAff(*SymSrc), -CrossCMax);
      requireMax(Win, initAff(*SymSrc), CrossCMax);
      requireMin(Win, limitAff(*SymSrc), -CrossCMax);
      requireMax(Win, limitAff(*SymSrc), CrossCMax);
    }

    AffVal Min, Max;
    if (!extremes(LP.Off, Box, Min, Max)) {
      ++It;
      continue;
    }
    // Emitted `KI*I + KL*L + C` hull arithmetic must not wrap i64: each
    // product term stays far from the edge, and C must be emittable as
    // an i64 immediate with headroom (the final sum is region-bounded to
    // |offset| <= MaxFoldedOffset already).
    for (const AffVal *Corner : {&Min, &Max})
      if (!Corner->isConst()) {
        if (!fitsWidth(Corner->C, 64) || Corner->C > __int128(CrossCMax) ||
            Corner->C < -__int128(CrossCMax)) {
          Win.Empty = true;
          break;
        }
        if (Corner->KI != 0) {
          requireMin(Win, AffVal{0, Corner->KI, 0}, -MaxProductTerm);
          requireMax(Win, AffVal{0, Corner->KI, 0}, MaxProductTerm);
        }
        if (Corner->KL != 0) {
          requireMin(Win, AffVal{0, 0, Corner->KL}, -MaxProductTerm);
          requireMax(Win, AffVal{0, 0, Corner->KL}, MaxProductTerm);
        }
      }
    if (Win.Empty) {
      ++It;
      continue;
    }

    bool WantGuard = NeedTrip || NeedDiv || Win.bounded();
    Value *Guard = nullptr;
    if (WantGuard) {
      if (eraseIfZeroTrip(BB, It))
        continue;
      if (rangeDischarges(Win, NeedTrip, NeedDiv))
        noteDischarge();
      else
        Guard = combinedGuard(Win, NeedTrip, NeedDiv);
    }

    emitHull(LP.Root, Min, Chk, Guard);
    if (Max.C != Min.C || Max.KI != Min.KI || Max.KL != Min.KL)
      emitHull(LP.Root, Max, Chk, Guard);
    ++Stats.LoopChecksHoisted;
    if (Guard) {
      // Outside the region the loop keeps its original per-iteration
      // check: re-insert it guarded by the complement.
      BB->insertBefore(It, std::unique_ptr<Instruction>(new SpatialCheckInst(
                               Chk->type(), Chk->pointer(), Chk->bounds(),
                               Chk->accessSize(), Chk->isStoreCheck(),
                               notOf(Guard))));
      ++Stats.RuntimeGuardedFallbacks;
    }
    It = BB->erase(It);
  }
}

} // namespace

namespace softbound {
namespace checkopt {

void hoistLoopChecks(Function &F, const DomTree &DT, const CallGraph &CG,
                     CheckOptStats &Stats, const CheckOptConfig &Cfg,
                     const ArgRangeTable *ArgRanges,
                     bool &ArgRangeDischargeUsed) {
  std::vector<NaturalLoop> Loops = findSimpleLoops(F, DT);
  Stats.LoopsAnalyzed += Loops.size();
  Module &M = *F.parent();

  // One function-order index shared by every loop's hoister (block visit
  // order must be deterministic; see LoopHoister::run).
  LoopHoister::BlockPosMap BlockPos;
  {
    unsigned Pos = 0;
    for (const auto &BB : F.blocks())
      BlockPos[BB.get()] = Pos++;
  }

  // Counted-loop analysis and body-safety for every loop up front, so each
  // loop can borrow the IV ranges of its safe counted ancestors.
  std::vector<LoopShape> Shapes(Loops.size());
  for (size_t I = 0; I < Loops.size(); ++I) {
    CountedLoop &CL = Shapes[I].CL;
    if (!analyzeCountedLoop(Loops[I], Cfg.RuntimeLimitHulls, CL))
      continue;
    if (!CL.isSymbolic()) {
      ++Stats.LoopsCounted;
    } else {
      ++Stats.LoopsCountedRuntime;
      if (CL.Init.Sym)
        ++Stats.LoopsCountedSymInit;
      if (CL.NeedDivis)
        ++Stats.LoopsCountedStrided;
    }
    Shapes[I].Usable = loopBodyIsSafe(Loops[I], CG);
  }

  for (size_t I = 0; I < Loops.size(); ++I) {
    if (!Shapes[I].Usable)
      continue;
    const NaturalLoop &L = Loops[I];
    // Enclosing counted loops whose every iteration runs this loop in
    // full: the nest is rectangular, so their IV ranges may widen hulls
    // (subject to the per-check root/bounds invariance test above). At
    // most one symbolic dimension may exist per hull — the hoisted loop's
    // own bounds win; otherwise the first symbolic ancestor claims it.
    std::vector<size_t> Encl;
    for (size_t E = 0; E < Loops.size(); ++E) {
      if (E == I || !Shapes[E].Usable || !Loops[E].contains(L.Header))
        continue;
      if (!DT.dominates(L.Header, Loops[E].Latch))
        continue;
      Encl.push_back(E);
    }
    const CountedLoop &Own = Shapes[I].CL;
    const CountedLoop *AncestorSym = nullptr;
    if (!Own.isSymbolic())
      for (size_t E : Encl)
        if (Shapes[E].CL.isSymbolic()) {
          AncestorSym = &Shapes[E].CL;
          break;
        }
    const CountedLoop *SymSrc = Own.isSymbolic() ? &Own : AncestorSym;
    const Value *SymI = SymSrc ? SymSrc->Init.Sym : nullptr;
    const Value *SymL = SymSrc ? SymSrc->Limit.Sym : nullptr;

    IVBox Enclosing;
    LoopHoister::LoopOfIV EnclosingLoops;
    for (size_t E : Encl) {
      const CountedLoop &CE = Shapes[E].CL;
      // Only the symbolic ancestor that claimed the dimension widens; of
      // the exact ones, a zero-trip loop has no span, and a dimension
      // whose IV *is* one of the symbols is never widened: the hull would
      // pair the symbol's one live value with other iterations' span
      // points — addresses the program never computes. Dropping the
      // dimension makes in-expression uses of the IV linearize through
      // the symbol leaf instead, which reads exactly the current
      // iteration's value.
      if (CE.isSymbolic() ? &CE != AncestorSym
                          : CE.BodyCount <= 0 || CE.IV == SymI || CE.IV == SymL)
        continue;
      Enclosing[CE.IV] = spanOf(CE, false);
      EnclosingLoops[CE.IV] = &Loops[E];
    }
    LoopHoister(M, L, Own, DT, BlockPos, Enclosing, EnclosingLoops,
                AncestorSym, ArgRanges, ArgRangeDischargeUsed, Stats)
        .run();
  }
}

} // namespace checkopt
} // namespace softbound
