//===- opt/checks/CheckOpt.cpp - check-optimization driver ------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/checks/CheckOpt.h"

#include "opt/Passes.h"
#include "opt/checks/CallGraph.h"
#include "opt/checks/InterProc.h"
#include "opt/checks/LoopHoist.h"
#include "opt/checks/Partition.h"
#include "support/Casting.h"

#include <algorithm>
#include <optional>

using namespace softbound;

namespace softbound {
namespace checkopt {

// Sub-pass entry point (RedundantChecks.cpp).
void eliminateRedundantSpatialChecks(Function &F, const DomTree &DT,
                                     const CheckOptConfig &Cfg,
                                     CheckOptStats &Stats);

} // namespace checkopt
} // namespace softbound

namespace {

unsigned countSpatialChecks(const Function &F) {
  unsigned N = 0;
  for (const auto &BB : F.blocks())
    for (const auto &I : *BB)
      if (isa<SpatialCheckInst>(I.get()))
        ++N;
  return N;
}

} // namespace

CheckOptStats softbound::optimizeChecks(Module &M, const CheckOptConfig &Cfg) {
  CheckOptStats Stats;
  // The analyses are built once per run and shared by every sub-pass. No
  // sub-pass edits a CFG, a call, or whether a function's address escapes
  // (tests/test_checkopt_golden.cpp checks the whole corpus), so none of
  // them goes stale; instruction-level analyses are built by their users.
  checkopt::DomTreeMap DTs;
  for (const auto &F : M.functions())
    if (F->isDefinition())
      DTs.try_emplace(F.get(), *F);
  std::optional<checkopt::CallGraph> CG;
  if (Cfg.InterProc || Cfg.Partition)
    CG.emplace(M);
  std::optional<checkopt::InterProcEngine> IP;
  if (Cfg.InterProc)
    IP.emplace(M, *CG, DTs);

  // Set when a deletion leaned on the closed-module assumption; the entry
  // contract is recorded once, below.
  bool ClosedModule = false;

  // Top-down argument ranges let the runtime-limit hoister discharge its
  // trip/wrap guards statically. The fixpoint runs here, before any
  // function is edited, and propagation below reuses it.
  const checkopt::ArgRangeTable *Ranges = nullptr;
  if (Cfg.HoistLoopChecks && Cfg.RuntimeLimitHulls && IP)
    Ranges = &IP->argumentRanges();
  for (const auto &FP : M.functions()) {
    Function &F = *FP;
    if (!F.isDefinition())
      continue;
    const DomTree &DT = DTs.at(&F);
    Stats.ChecksBefore += countSpatialChecks(F);
    // Hoist before eliminating: the hull checks it plants in preheaders
    // become dominating facts that the elimination walk can use to subsume
    // checks in later loops over the same object.
    if (Cfg.HoistLoopChecks) {
      checkopt::hoistLoopChecks(F, DT, Stats, Cfg, Ranges, ClosedModule);
      // Identical hull pointers materialized for several checks of the
      // same loop collapse here, letting exact-fact elimination dedup
      // their checks.
      localCSE(F);
    }
    if (Cfg.EliminateDominated || Cfg.RangeSubsumption)
      checkopt::eliminateRedundantSpatialChecks(F, DT, Cfg, Stats);
    // Deleted checks strand their bounds/GEP arithmetic; sweep it.
    dce(F);
    Stats.ChecksAfter += countSpatialChecks(F);
  }

  // Inter-procedural propagation runs after the per-function passes so
  // hoisted hull checks and surviving dominating checks serve as call-site
  // facts. It computes the argument-range fixpoint now unless the hoister
  // already asked for it.
  if (IP) {
    unsigned Deleted = IP->propagate(Stats);
    Stats.ChecksAfter -= std::min(Deleted, Stats.ChecksAfter);
    ClosedModule |= Deleted > 0;
  }
  // Partitioning runs last: it can only prove a function once every other
  // sub-pass has discharged its checks, and it never creates or removes a
  // check itself — it converts check elision into metadata-op elision.
  if (Cfg.Partition)
    ClosedModule |= checkopt::partitionCheckedRegions(M, *CG, Stats) > 0;

  // Every proof above that leaned on the closed-module assumption makes
  // the internal functions unsafe custom entries; the run driver enforces
  // this (see RunRequest::Entry).
  if (ClosedModule) {
    std::vector<const Function *> Internal;
    for (const auto &F : M.functions())
      if (F->isDefinition() && !CG->externallyReachable(F.get()))
        Internal.push_back(F.get());
    M.recordInterProcContract(Internal);
  }
  return Stats;
}
