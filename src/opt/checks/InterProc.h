//===- opt/checks/InterProc.h - inter-procedural bounds propagation -*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Inter-procedural bounds propagation: the check-optimization sub-pass
/// that removes the cross-function redundancy the intra-procedural passes
/// cannot see — `_sb_` callees re-checking pointers their callers already
/// proved in bounds (the dominant remaining checks in perimeter/bh/go
/// style recursive code). Three cooperating mechanisms share one
/// propagation lattice over a CallGraph (CallGraph.h):
///
///   1. Callee-side entry-check elision ("pointer argument k is accessed
///      within [lo, hi) of its base"): every spatial check in a function
///      reachable only through direct calls is summarized as a
///      *requirement* — a root (pointer argument or global), a byte
///      interval that may be linear in one integer argument, and a bounds
///      shape (the argument's bounds parameter, a field of the argument,
///      or the whole global). If every call site in the module passes
///      arguments whose substituted requirement is covered by a fact
///      dominating the call, the callee's check is deleted.
///   2. Caller-side elision ("callee performs its own check on arg k"):
///      checks that dominate every return of a callee become facts after
///      each dominating call site, killing caller re-checks; the same
///      summaries delete a caller check immediately preceding a call that
///      re-verifies it (with no memory access in between) — the net
///      effect of sinking the callers' duplicate copies into the unique
///      callee's existing check. Return summaries ("the returned pointer
///      was checked over [lo, hi) against the returned bounds on every
///      return path") seed facts for constructor-style callees (newnode,
///      build).
///   3. Inter-procedural value-range propagation: integer argument ranges
///      flow top-down over the call graph (with threshold widening for
///      recursion), feed a per-function interval analysis with
///      branch-condition refinement, and statically settle checks on
///      global arrays whose index range provably stays inside the object
///      — `hist[(x + y + h) % 64]` in a tree walk needs no dynamic check
///      once `x, y, h >= 0` has propagated into the recursion.
///
/// Soundness. Every deletion is justified by one of: (a) the check's
/// condition is statically true (range propagation over whole-object
/// bounds — shrunk sub-object bounds never canonicalize to their global,
/// so §3.1 field protection is preserved); (b) the same condition — equal
/// SSA values, which no store, call, or metadata update can change — was
/// verified by a check that executed strictly earlier on every path
/// (dominating facts, including facts carried across call boundaries by
/// argument/return summaries); or (c) the condition is re-verified by the
/// callee before any memory access or observable effect can occur (the
/// sink case, which requires the call to follow the check in the same
/// block with only pure instructions between). Facts sourced from checks
/// that are themselves deleted stay valid by induction over execution
/// time: a deleted check's condition was verified (or statically true)
/// before its program point, so any fact derived from it refers to a
/// verification that happened strictly earlier — recursion included,
/// because the first entry into any cycle of calls is proven at an
/// external call site or by a static range proof. Function-pointer calls
/// bottom the lattice conservatively: address-taken functions and the VM
/// entry are externallyReachable, their argument ranges are unbounded,
/// and their callee-side checks are never elided.
///
/// Whole-program assumption: the module is closed — execution enters at
/// Module::entryFunction() ("main"/"_sb_main") and every other call
/// arrives through an analyzed site. Driving a transformed module from a
/// custom RunRequest::Entry naming an internally-called function would
/// bypass these proofs, so whenever the pass deletes a check the checkopt
/// driver (CheckOpt.cpp) records the contract on the module
/// (Module::recordInterProcContract) with the set of functions that must
/// not be entered directly, and runSession refuses such entries (see the
/// contract note on RunRequest::Entry).
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_OPT_CHECKS_INTERPROC_H
#define SOFTBOUND_OPT_CHECKS_INTERPROC_H

#include "ir/Module.h"
#include "opt/Dominators.h"

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

namespace softbound {

struct CheckOptStats;

namespace checkopt {

class CallGraph;

/// A signed-integer interval [Lo, Hi] (inclusive), Lo > Hi encoding the
/// empty range. The scalar lattice of the inter-procedural propagation;
/// exposed for tests.
struct IntRange {
  int64_t Lo = 1;
  int64_t Hi = 0;

  bool empty() const { return Lo > Hi; }
  bool isFull() const { return Lo == INT64_MIN && Hi == INT64_MAX; }
  bool contains(int64_t Vlo, int64_t Vhi) const {
    return !empty() && Lo <= Vlo && Vhi <= Hi;
  }
  bool operator==(const IntRange &O) const { return Lo == O.Lo && Hi == O.Hi; }
  bool operator!=(const IntRange &O) const { return !(*this == O); }

  static IntRange full() { return {INT64_MIN, INT64_MAX}; }
  static IntRange of(int64_t V) { return {V, V}; }
  static IntRange make(int64_t Lo, int64_t Hi) { return {Lo, Hi}; }
};

/// Integer argument ranges per defined function, indexed by argument
/// number.
using ArgRangeTable = std::map<const Function *, std::vector<IntRange>>;

/// One dominator tree per defined function.
using DomTreeMap = std::map<const Function *, DomTree>;

/// The propagation over one checkopt run. It borrows the run's call graph
/// and dominator trees, which stay valid across the run because no checkopt
/// sub-pass edits a CFG, a call, or whether a function's address escapes
/// (tests/test_checkopt_golden.cpp checks this over the whole corpus).
class InterProcEngine {
public:
  InterProcEngine(Module &M, const CallGraph &CG, const DomTreeMap &DTs);

  /// Top-down integer argument ranges over the call graph (threshold
  /// widening, branch refinement), computed on the first call, on the IR
  /// as it stands, and kept. Externally reachable functions (the VM
  /// entry, address-taken functions) get full-width ranges; arguments of
  /// functions with no observed call site stay empty (bottom). Every
  /// range of a non-externally-reachable function leans on the
  /// closed-module assumption: a check deleted or weakened on the
  /// strength of one obliges the caller to record the entry contract.
  /// The ranges stay sound across the per-function check passes, which
  /// never change a call argument's value (hoisting only adds pure
  /// arithmetic, elimination only deletes checks, CSE substitutes
  /// value-identical SSA names).
  const ArgRangeTable &argumentRanges();

  /// Runs the propagation: computes per-function summaries, walks every
  /// function's dominator tree collecting and consuming facts, and
  /// deletes every check the three mechanisms proved redundant (sweeping
  /// stranded bounds arithmetic with dce). Instruction order and scalar
  /// ranges are rebuilt on the current IR. Updates the InterProc*
  /// counters of \p Stats and returns the number of spatial checks
  /// deleted (the caller owns the ChecksAfter adjustment and, when it is
  /// nonzero, the entry contract).
  unsigned propagate(CheckOptStats &Stats);

private:
  const CallGraph &CG;
  const DomTreeMap &DTs;
  std::vector<Function *> Defined;
  std::optional<ArgRangeTable> Ranges;
};

} // namespace checkopt
} // namespace softbound

#endif // SOFTBOUND_OPT_CHECKS_INTERPROC_H
