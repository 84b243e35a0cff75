//===- opt/checks/Loops.h - natural & counted loop recognition --*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loop recognition for the check hoister. Deliberately restrictive: only
/// loops whose shape lets us *prove* the exact set of induction-variable
/// values are usable (single latch, dedicated unconditional preheader,
/// single exit edge from the header, constant init/step/limit). Anything
/// else is skipped — missing an optimization is fine, a false trap is not.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_OPT_CHECKS_LOOPS_H
#define SOFTBOUND_OPT_CHECKS_LOOPS_H

#include "ir/Function.h"
#include "opt/checks/Predicates.h"

#include <cstdint>
#include <set>
#include <vector>

namespace softbound {

class DomTree;

namespace checkopt {

/// True when \p V fits a signed \p Bits-wide integer; widths past 64
/// count as 64.
inline bool fitsWidth(__int128 V, unsigned Bits) {
  if (Bits > 64)
    Bits = 64;
  __int128 Max = (__int128(1) << (Bits - 1)) - 1;
  __int128 Min = -(__int128(1) << (Bits - 1));
  return V >= Min && V <= Max;
}

/// A natural loop in hoistable shape.
struct NaturalLoop {
  BasicBlock *Header = nullptr;
  BasicBlock *Latch = nullptr;     ///< The unique back-edge source.
  BasicBlock *Preheader = nullptr; ///< Unique entry; ends in `br Header`.
  std::set<BasicBlock *> Blocks;   ///< Header + body (includes Latch).

  bool contains(const BasicBlock *BB) const {
    return Blocks.count(const_cast<BasicBlock *>(BB)) != 0;
  }
  /// True when \p V is available on entry to the loop (constant, argument,
  /// or instruction defined outside the loop body). One definition shared
  /// with the inter-procedural engine: see availableOnEntry (Predicates.h).
  bool isInvariant(const Value *V) const {
    return availableOnEntry(V,
                            [this](const BasicBlock *BB) { return contains(BB); });
  }
};

/// Finds loops satisfying the shape restrictions above, innermost first
/// (sorted by block count, so nested hoisting cascades outward).
std::vector<NaturalLoop> findSimpleLoops(Function &F, const DomTree &DT);

/// A loop whose exact iteration-variable sequence is known statically:
/// IV takes Init, Init+Step, ... ; body blocks run BodyCount times; the
/// header runs BodyCount+1 times and additionally observes ExitIV.
struct CountedLoop {
  PhiInst *IV = nullptr;
  int64_t Init = 0;
  int64_t Step = 0;
  int64_t BodyCount = 0; ///< Executions of non-header loop blocks.
  int64_t LastBody = 0;  ///< IV value of the final body execution.
  int64_t ExitIV = 0;    ///< IV value the header sees on the exiting pass.
};

/// Recognizes \p L as a counted loop: header phi with constant init from
/// the preheader and `phi +/- constant` from the latch, exit branch
/// controlled by `icmp IV, constant` (through the frontend's
/// `(zext i1) != 0` re-test wrapper). Rejects any sequence that would
/// wrap its bit width or fail to terminate.
bool analyzeCountedLoop(const NaturalLoop &L, CountedLoop &Out);

/// A counted loop with up to two run-time bounds — the generalized
/// `for (i = lo; i < hi; i += s)` family. The IV starts at the init value
/// I (a compile-time constant, or the run-time value of the loop-invariant
/// SSA value InitV) and steps by the constant Step until the oriented
/// relational predicate against the limit value L (constant, or the
/// run-time value of the loop-invariant Limit) fails, so the body's IV
/// set is an interval with up to two run-time endpoints:
///
///   up   (Step > 0): IV in [I, L + EndAdj]  (EndAdj: SLT -Step, SLE 0)
///   down (Step < 0): IV in [L + EndAdj, I]  (EndAdj: SGT -Step, SGE 0)
///
/// At least one endpoint is symbolic (both constant is the constant
/// analyzer's territory). The closed form is valid only when
///
///   (a) the loop runs at least one body iteration — exactly the stay
///       predicate Pred(I, L), testable as one icmp on the live values;
///   (b) L lies in [LimitMin, LimitMax], the window inside which the IV
///       provably reaches the exit value without wrapping its bit width
///       (I needs no window: canonical values already fit the IV width;
///       when the limit is a compile-time constant the window has been
///       checked statically by the analyzer); and
///   (c) when |Step| > 1 (NeedDivis), the span (L - I) is divisible by
///       |Step| — otherwise the IV steps *past* the limit and the body
///       endpoint L + EndAdj is not the true last IV.
///
/// All three are run-time conditions on (I, L); the hoister
/// (LoopHoist.cpp) narrows the region further with its own
/// arithmetic-fidelity constraints and either proves it from
/// inter-procedural argument ranges (over both symbols) or tests it with
/// an emitted guard.
struct SymbolicCountedLoop {
  PhiInst *IV = nullptr;
  Value *InitV = nullptr; ///< Loop-invariant symbolic init, or null.
  int64_t InitC = 0;      ///< Constant init value when InitV is null.
  Value *Limit = nullptr; ///< Loop-invariant symbolic limit, or null.
  int64_t LimitC = 0;     ///< Constant limit value when Limit is null.
  int64_t Step = 0;       ///< Nonzero; |Step| may exceed 1.
  bool Up = false;        ///< True for Step > 0 loops (SLT/SLE).
  ICmpInst::Pred Pred = ICmpInst::Pred::SLT; ///< Oriented stay-predicate.
  int64_t EndAdj = 0;     ///< Run-time body-IV endpoint = L + EndAdj.
  bool NeedDivis = false; ///< |Step| > 1: closed form needs (L-I) % |Step| == 0.
  int64_t LimitMin = INT64_MIN; ///< IV-wrap window on L (inclusive).
  int64_t LimitMax = INT64_MAX;
};

/// Recognizes \p L as a symbolic counted loop: header phi whose preheader
/// incoming is a constant or any SSA value (SSA dominance makes it
/// available on loop entry by construction), `phi +/- constant` from the
/// latch, exit branch controlled by `icmp IV, limit` (through the
/// frontend's re-test wrapper and value-preserving sign extensions on
/// either side) where the limit is a constant or available on entry to
/// the loop, and at least one of init/limit is symbolic. Only the signed
/// relational predicates are accepted: unsigned and equality forms have
/// no sound interval closed form under unknown bounds. |Step| > 1 is
/// accepted with NeedDivis set (the hoister must guard divisibility);
/// a constant limit outside the IV-wrap window is rejected outright.
bool analyzeSymbolicCountedLoop(const NaturalLoop &L, SymbolicCountedLoop &Out);

/// True when no instruction in the loop can let a run finish *normally*
/// without executing every remaining iteration: no exit/setjmp/longjmp
/// and no indirect calls, transitively through every defined callee.
/// This is what makes it sound to assume "the program completes
/// normally => every iteration's checks executed". Instructions that can
/// only *trap* (division, nested checks, step limits) are deliberately
/// allowed: a trapped run did not complete, so the hoisted check firing
/// first merely reports a different — equally fatal — trap kind on a run
/// that was doomed either way.
bool loopBodyIsSafe(const NaturalLoop &L);

} // namespace checkopt
} // namespace softbound

#endif // SOFTBOUND_OPT_CHECKS_LOOPS_H
