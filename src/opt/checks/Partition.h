//===- opt/checks/Partition.h - checked-region partitioning -----*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-program checked-region partitioning, the `checkopt(partition)`
/// sub-pass. After the intra- and inter-procedural check optimizers have
/// run, many functions retain *no* spatial or function-pointer checks at
/// all — yet they still pay full metadata propagation: every pointer load
/// performs a `meta.load`, every pointer store a `meta.store`, and every
/// call forwards bounds through the shadow frame. On leaf-heavy pointer
/// workloads (bh, perimeter, treeadd) that propagation is now the larger
/// half of simulated cost.
///
/// This pass classifies each defined function as **fully-proven** or
/// **instrumented** (the CheckedCBox-style checked/unchecked split) and
/// strips the metadata instructions from the fully-proven ones. A function
/// is fully-proven only when:
///
///   * every spatial and function-pointer check in it was discharged
///     statically (no SpatialCheckInst/FuncPtrCheckInst remains — a
///     guarded fallback check still counts as a check);
///   * its address never escapes (CallGraph::isAddressTaken is false), so
///     the set of call sites that see its boundary is exactly the direct
///     call sites the CallGraph records;
///   * every `meta.store` it performs targets a provably non-escaping
///     local alloca (metadata no other frame can observe); and
///   * the *stripped-bounds taint* fixpoint holds: once its `meta.load`s
///     are deleted, every bounds value they produced — tracked through
///     phi/select/pack.pb/extract.bounds and across direct calls — stays
///     inside the fully-proven region. A tainted bounds value reaching an
///     instrumented callee, an indirect call, or a caller outside the
///     region (including the harness, via externallyReachable) demotes
///     the function; demotion iterates to the greatest fixpoint.
///
/// The `_sb_` ABI is left untouched: stripped functions keep their bounds
/// parameters and still pass bounds at calls (a shared `make.bounds 0, 0`
/// stands in for deleted metadata loads), so instrumented and proven
/// frames interleave freely. Because caller-set reasoning leans on the
/// closed-module assumption, any stripping obliges the checkopt driver to
/// record the entry contract via Module::recordInterProcContract — exactly
/// as checkopt(interproc)'s deletions do — and the Verifier enforces that
/// functions marked uninstrumented contain no metadata instructions.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_OPT_CHECKS_PARTITION_H
#define SOFTBOUND_OPT_CHECKS_PARTITION_H

#include "opt/checks/CheckOpt.h"

namespace softbound {
namespace checkopt {

class CallGraph;

/// Classifies every defined function and strips metadata propagation from
/// the fully-proven ones (see file comment for the proof obligations).
/// \p CG is \p M's call graph. Appends one PartitionVerdict per inspected
/// function to \p Stats and bumps the partition counters. Returns the
/// number of metadata instructions stripped from fully-proven functions;
/// when it is nonzero the caller must record the entry contract. Boundary
/// reconstruction's null-init store elisions are not counted: they hold
/// for any caller with any arguments, so they impose no entry restriction.
unsigned partitionCheckedRegions(Module &M, const CallGraph &CG,
                                 CheckOptStats &Stats);

} // namespace checkopt
} // namespace softbound

#endif // SOFTBOUND_OPT_CHECKS_PARTITION_H
