//===- opt/checks/CheckOpt.cpp - check-optimization driver ------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/checks/CheckOpt.h"

#include "opt/Passes.h"
#include "opt/checks/InterProc.h"
#include "opt/checks/LoopHoist.h"
#include "opt/checks/Partition.h"
#include "support/Casting.h"

#include <algorithm>

using namespace softbound;

namespace softbound {
namespace checkopt {

// Sub-pass entry point (RedundantChecks.cpp).
void eliminateRedundantSpatialChecks(Function &F, const CheckOptConfig &Cfg,
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

namespace {

/// Shared body of the function- and module-level drivers. \p ArgRanges
/// (optional) feeds the runtime-limit hull hoister's static guard
/// discharge; \p DischargeUsed reports whether any discharge leaned on it.
void optimizeChecksImpl(Function &F, const CheckOptConfig &Cfg,
                        CheckOptStats &Stats,
                        const std::map<const Argument *, checkopt::IntRange>
                            *ArgRanges,
                        bool *DischargeUsed) {
  if (!F.isDefinition())
    return;
  Stats.ChecksBefore += countSpatialChecks(F);

  // Hoist before eliminating: the hull checks it plants in preheaders
  // become dominating facts that the elimination walk can use to subsume
  // checks in later loops over the same object.
  if (Cfg.HoistLoopChecks) {
    checkopt::hoistLoopChecks(F, Stats, Cfg, ArgRanges, DischargeUsed);
    // Identical hull pointers materialized for several checks of the same
    // loop collapse here, letting exact-fact elimination dedup their checks.
    localCSE(F);
  }
  if (Cfg.EliminateDominated || Cfg.RangeSubsumption)
    checkopt::eliminateRedundantSpatialChecks(F, Cfg, Stats);

  // Deleted checks strand their bounds/GEP arithmetic; sweep it.
  dce(F);

  Stats.ChecksAfter += countSpatialChecks(F);
}

} // namespace

void softbound::optimizeChecks(Function &F, const CheckOptConfig &Cfg,
                               CheckOptStats &Stats) {
  optimizeChecksImpl(F, Cfg, Stats, nullptr, nullptr);
}

CheckOptStats softbound::optimizeChecks(Module &M, const CheckOptConfig &Cfg) {
  CheckOptStats Stats;
  // Top-down argument ranges let the runtime-limit hoister discharge its
  // trip/wrap guards statically. They lean on the closed-module
  // assumption, so any use is recorded as an entry contract below —
  // exactly as checkopt(interproc) records its own deletions. Module
  // driver only: the ranges need every call site.
  checkopt::InterProcArgRanges IPR;
  const std::map<const Argument *, checkopt::IntRange> *Ranges = nullptr;
  bool DischargeUsed = false;
  if (Cfg.HoistLoopChecks && Cfg.RuntimeLimitHulls && Cfg.InterProc) {
    IPR = checkopt::computeInterProcArgRanges(M);
    Ranges = &IPR.Ranges;
  }
  for (const auto &F : M.functions())
    optimizeChecksImpl(*F, Cfg, Stats, Ranges, &DischargeUsed);
  if (DischargeUsed)
    M.recordInterProcContract(IPR.Internal);
  // Inter-procedural propagation runs after the per-function passes so
  // hoisted hull checks and surviving dominating checks serve as call-site
  // facts; it needs every call site, so only the module driver can run it.
  // When the hoister already computed the argument-range fixpoint above,
  // the propagation adopts it instead of repeating the most expensive
  // phase (the per-function passes never change a call argument's value).
  if (Cfg.InterProc) {
    unsigned Deleted = checkopt::propagateInterProcChecks(M, Stats, Ranges);
    Stats.ChecksAfter -= std::min(Deleted, Stats.ChecksAfter);
  }
  // Partitioning runs last: it can only prove a function once every other
  // sub-pass has discharged its checks, and it never creates or removes a
  // check itself — it converts check elision into metadata-op elision.
  if (Cfg.Partition)
    checkopt::partitionCheckedRegions(M, Stats);
  return Stats;
}
