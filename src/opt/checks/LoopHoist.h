//===- opt/checks/LoopHoist.h - loop check hoisting entry point -*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Entry point of the loop-hull hoisting sub-pass (LoopHoist.cpp). The
/// implementation notes — the affine-form model, the obligation region,
/// the guarded-fallback design and its soundness argument — live at the
/// top of LoopHoist.cpp; this header states only the caller contract.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_OPT_CHECKS_LOOPHOIST_H
#define SOFTBOUND_OPT_CHECKS_LOOPHOIST_H

#include "ir/Function.h"
#include "opt/checks/InterProc.h"

namespace softbound {

struct CheckOptConfig;
struct CheckOptStats;

namespace checkopt {

/// Replaces per-iteration spatial checks in counted loops of \p F with
/// pre-loop checks over the access range's convex hull, in place.
///
/// Contract and soundness preconditions:
///  * \p F must be verifier-clean; it stays verifier-clean.
///  * The pass only ever strengthens-or-moves-earlier the checked
///    conditions on any path: a run that would have trapped still traps
///    (possibly earlier, possibly reported as a spatial violation where
///    the original trap was of another kind), and a clean run stays
///    clean and keeps its exact observable behaviour.
///  * Checks it emits with an i1 guard operand may be skipped at run
///    time; they are valid *fact sources for no other pass* (see the
///    guarded-check rules in RedundantChecks.cpp / InterProc.cpp).
///  * \p DT is \p F's dominator tree and \p CG the enclosing module's
///    call graph; hoisting adds and deletes instructions but never edits
///    the CFG or a call, so both stay valid. Loop-body safety reads
///    CG's mayExitOrJump summary.
///  * \p ArgRanges (optional) must be InterProcEngine::argumentRanges()
///    of the enclosing module, computed before any check pass changed a
///    call argument's value. When a hull guard is discharged from it,
///    \p ArgRangeDischargeUsed is set and the caller MUST record the entry
///    contract on the module (Module::recordInterProcContract with the
///    call graph's non-externally-reachable functions) before the module
///    runs.
void hoistLoopChecks(Function &F, const DomTree &DT, const CallGraph &CG,
                     CheckOptStats &Stats, const CheckOptConfig &Cfg,
                     const ArgRangeTable *ArgRanges,
                     bool &ArgRangeDischargeUsed);

} // namespace checkopt
} // namespace softbound

#endif // SOFTBOUND_OPT_CHECKS_LOOPHOIST_H
