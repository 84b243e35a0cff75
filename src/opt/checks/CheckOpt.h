//===- opt/checks/CheckOpt.h - static spatial-check optimization *- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static check-optimization subsystem that runs after the SoftBound
/// transformation and before VM execution. It implements the §6.1 claim
/// that re-running the optimizers removes most redundant bounds checks,
/// with three cooperating sub-passes (each independently toggleable):
///
///   1. Value-range analysis (RangeAnalysis.h): pointers are decomposed
///      into an SSA root plus a constant byte offset, and a scoped table
///      of proven-in-bounds byte intervals per (root, bounds) pair is
///      carried down the dominator tree.
///   2. Dominance-based redundant-check elimination (RedundantChecks.cpp):
///      a spatial check dominated by an equal-or-stronger check on the
///      same pointer — or, with range subsumption, on any pointer whose
///      proven interval covers it — is deleted. Checks consume only SSA
///      values (the pointer and its bounds), so no call or store can
///      invalidate an established fact; this generalizes the paper's
///      "monotonically increasing pointer" example beyond single blocks.
///   3. Loop-invariant check hoisting with range widening (LoopHoist.cpp):
///      in counted loops, per-iteration checks on loop-invariant pointers
///      collapse to one pre-loop check, and checks on `base[affine(iv)]`
///      are replaced by checks at the two endpoints of the access range's
///      convex hull (à la CHOP), turning O(trip-count) dynamic checks
///      into O(1).
///   4. CCured-SAFE check elision (SafeElision.cpp): a check whose
///      pointer is an all-constant, per-index-validated GEP chain into a
///      known-size stack or global object, with the access contained in
///      the object, is deleted outright. Not a checkopt sub-pass: it runs
///      only as the standalone `safe-elision` pass of the §6.5 CCured
///      comparison, after checkopt, so hull hoisting sees every check.
///   5. Inter-procedural bounds propagation (InterProc.h, module-level):
///      a call-graph pass that elides callee-side checks every direct
///      call site already proves, turns callee-guaranteed checks into
///      caller-side facts, and settles global-array checks whose
///      argument-propagated index range stays inside the object.
///   6. Checked-region partitioning (Partition.h, module-level): after
///      every other sub-pass has run, classify each function fully-proven
///      (no checks left, no escaping metadata obligations) or
///      instrumented, and strip metadata propagation from the
///      fully-proven ones — the CheckedCBox-style checked/unchecked
///      region split. On by default, left off by explicit knob lists
///      (the A/B convention).
///
/// Soundness contract: sub-passes 1-3 only ever *strengthen or move
/// earlier* the set of conditions checked on any path — a program that
/// would have trapped still traps (possibly at an earlier instruction),
/// and a program that ran clean still runs clean. Every transformation is
/// gated on static proofs (constant trip counts, single-exit loops, no
/// in-loop control-flow escapes) described in LoopHoist.cpp. The SAFE
/// elision (4) is the deliberate exception: its leading pointer-arithmetic
/// step is judged against the *whole* object, so a sub-object overflow
/// reached through a derived field pointer plus constant arithmetic can
/// lose its (field-shrunk) check — the CCured-SAFE trade-off §6.5
/// measures — and it is therefore not part of the default pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_OPT_CHECKS_CHECKOPT_H
#define SOFTBOUND_OPT_CHECKS_CHECKOPT_H

#include "ir/Module.h"

namespace softbound {

class DomTree;
class InstOrder;

/// Per-sub-pass toggles (ablation knobs).
struct CheckOptConfig {
  /// Delete checks dominated by an equal-or-stronger check on the same
  /// pointer SSA value.
  bool EliminateDominated = true;
  /// Use value-range analysis to also delete checks covered by dominating
  /// checks on *different* pointers into the same object (constant-offset
  /// subsumption with interval merging).
  bool RangeSubsumption = true;
  /// Hoist loop-invariant and affine-indexed checks out of counted loops.
  bool HoistLoopChecks = true;
  /// Extend hull hoisting to loops counted by loop-invariant *symbolic*
  /// bounds — `for (i = 0; i < n; i++)`, symbolic init
  /// (`for (i = lo; i < hi; i++)`), the decreasing
  /// `for (i = n-1; i >= 0; i--)` shape, and |step| > 1 sweeps behind a
  /// stride-divisibility test: hull endpoints are computed from the live
  /// bound values in the preheader behind a trip/wrap region guard, with
  /// the original in-loop check kept as the out-of-region fallback
  /// (LoopHoist.cpp "Run-time bounds"). Sub-knob of HoistLoopChecks;
  /// `checkopt(hoist,runtime-limit)` in pipeline specs.
  bool RuntimeLimitHulls = true;
  /// Inter-procedural bounds propagation (opt/checks/InterProc.h): elide
  /// callee checks proven at every call site, reuse callee-guaranteed
  /// checks as caller facts, and settle global-array checks via
  /// inter-procedural integer ranges.
  bool InterProc = true;
  /// Checked-region partitioning (opt/checks/Partition.h): classify each
  /// function as fully-proven or instrumented after the other sub-passes
  /// have run, and strip metadata propagation (meta.load/meta.store) from
  /// the fully-proven ones. Leans on the closed-module contract like
  /// InterProc.
  bool Partition = true;
};

/// One function's checked-region classification (Partition.cpp). Verdicts
/// are reported for every defined function the partition pass inspected,
/// in module order.
struct PartitionVerdict {
  std::string Func;           ///< Post-transform (`_sb_`) function name.
  bool FullyProven = false;   ///< Checked region: instrumentation stripped.
  std::string Reason;         ///< First blocking reason, or "proven".
  unsigned MetaLoadsRemoved = 0;  ///< meta.load instructions stripped.
  unsigned MetaStoresRemoved = 0; ///< meta.store instructions stripped.
};

/// Every summed CheckOptStats counter, listed once: the list declares
/// the fields and generates operator+=. The per-function Partition
/// verdicts sit outside it and concatenate.
#define SOFTBOUND_CHECKOPT_COUNTERS(X)                                         \
  X(ChecksBefore)          /* Static spatial checks entering the pass. */      \
  X(ChecksAfter)           /* Static spatial checks remaining. */              \
  X(DominatedEliminated)   /* Same-pointer dominance deletions. */             \
  X(RangeEliminated)       /* Range-subsumption deletions. */                  \
  X(FuncPtrEliminated)     /* Duplicate function-pointer checks. */            \
  X(SafeChecksElided)      /* CCured-SAFE static elisions. */                  \
  X(LoopChecksHoisted)     /* In-loop checks replaced/deleted. */              \
  X(HoistedChecksInserted) /* Pre-loop hull checks added. */                   \
  X(LoopsAnalyzed)         /* Natural loops inspected. */                      \
  X(LoopsCounted)          /* Loops with a provable constant trip set. */      \
  /* Runtime-bound hull hoisting (LoopHoist.cpp "Run-time bounds"). */         \
  X(LoopsCountedRuntime)     /* Symbolic-bound counted loops. */               \
  X(LoopsCountedSymInit)     /* ... with a symbolic init (incl. the */         \
                             /* decreasing `i = n-1; i >= 0` shape). */        \
  X(LoopsCountedStrided)     /* ... with |step| > 1. */                        \
  X(RuntimeHullChecks)       /* Guard-protected hull checks added. */          \
  X(RuntimeGuardedFallbacks) /* In-loop fallback checks kept. */               \
  X(RuntimeGuardsDischarged) /* Guards settled by arg ranges. */               \
  X(RuntimeDivisGuards)      /* Stride-divisibility tests emitted. */          \
  /* Inter-procedural bounds propagation (opt/checks/InterProc.h). */          \
  X(InterProcChecksElided)      /* Total checks the pass deleted. */           \
  X(InterProcCalleeElided)      /* Proven at every call site. */               \
  X(InterProcCallerElided)      /* Covered by callee/caller facts. */          \
  X(InterProcRangeElided)       /* Static index-range proofs. */               \
  X(InterProcSunkElided)        /* Duplicates sunk into callees. */            \
  X(InterProcArgSummaries)      /* Argument/global check summaries. */         \
  X(InterProcRetSummaries)      /* Functions with return summaries. */         \
  X(InterProcFunctionsAnalyzed) /* Defined functions visited. */               \
  /* Checked-region partitioning (opt/checks/Partition.h). */                  \
  X(PartitionFunctions)         /* Defined functions classified. */            \
  X(PartitionProven)            /* Classified fully-proven (stripped). */      \
  X(PartitionMetaLoadsRemoved)  /* meta.loads stripped. */                     \
  X(PartitionMetaStoresRemoved) /* meta.stores stripped. */

/// What the subsystem did (reported by benches and asserted by tests).
struct CheckOptStats {
#define SOFTBOUND_CHECKOPT_FIELD(Name) unsigned Name = 0;
  SOFTBOUND_CHECKOPT_COUNTERS(SOFTBOUND_CHECKOPT_FIELD)
#undef SOFTBOUND_CHECKOPT_FIELD
  std::vector<PartitionVerdict> Partition; ///< Per-function verdicts.

  /// Net fraction of static checks removed: 1 - ChecksAfter/ChecksBefore,
  /// at most 1. Below 0 when hull hoisting adds more pre-loop checks than
  /// it deletes (one in-loop check can become two hull-corner checks).
  double eliminationRate() const {
    return ChecksBefore
               ? 1.0 - static_cast<double>(ChecksAfter) / ChecksBefore
               : 0.0;
  }

  CheckOptStats &operator+=(const CheckOptStats &O) {
#define SOFTBOUND_CHECKOPT_ADD(Name) Name += O.Name;
    SOFTBOUND_CHECKOPT_COUNTERS(SOFTBOUND_CHECKOPT_ADD)
#undef SOFTBOUND_CHECKOPT_ADD
    Partition.insert(Partition.end(), O.Partition.begin(), O.Partition.end());
    return *this;
  }
};

/// Runs the configured sub-passes over \p M: per function, hoist, then
/// eliminate, then DCE the dead bounds arithmetic the deletions exposed;
/// then inter-procedural propagation over the whole module; then
/// partitioning. Builds one dominator tree per defined function and one
/// call graph for the run and shares them across the sub-passes, and
/// records the closed-module entry contract when any proof leaned on it.
/// The module must be verifier-clean; it stays verifier-clean.
CheckOptStats optimizeChecks(Module &M, const CheckOptConfig &Cfg = {});

/// Instruction-level dominance: true when \p A executes before \p B on
/// every path reaching \p B (strict; an instruction does not dominate
/// itself). \p DT and \p Ord must be current for the containing function.
bool instDominates(const DomTree &DT, const InstOrder &Ord,
                   const Instruction *A, const Instruction *B);

namespace checkopt {

/// CCured-SAFE elision (SafeElision.cpp), the body of the `safe-elision`
/// pass: deletes every spatial check whose pointer is a constant offset
/// into a known-size alloca/global with the access contained in the
/// object. Counts the checks it sees into ChecksBefore and the ones it
/// keeps into ChecksAfter.
void elideSafeChecks(Function &F, CheckOptStats &Stats);

} // namespace checkopt
} // namespace softbound

#endif // SOFTBOUND_OPT_CHECKS_CHECKOPT_H
