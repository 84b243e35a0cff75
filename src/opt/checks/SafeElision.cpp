//===- opt/checks/SafeElision.cpp - CCured-SAFE check elision ---------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CCured-SAFE elision behind the `safe-elision` pass (§6.5
/// comparison; it runs after `checkopt`): a spatial check is
/// deleted when its pointer reaches a stack or global object of statically
/// known size through bitcasts and GEPs whose indices are all non-negative
/// constants with every *interior* (sub-object) step in range, and the
/// checked access fits inside the object. This models CCured's
/// SAFE-pointer inference: such accesses can never leave the allocation,
/// so the dynamic check is pure overhead.
///
/// Every spatial check is eligible, including those synthesized for
/// setjmp/longjmp buffers. An out-of-range constant interior index
/// (s.buf[9] on char buf[8]) is *rejected* and its check survives to trap;
/// only containment of the leading pointer-arithmetic step is judged
/// against the whole object, so sub-object overflows through a derived
/// field pointer plus arithmetic can still be missed — the §6.5
/// compatibility/precision trade-off, and why no default pipeline runs
/// it.
///
//===----------------------------------------------------------------------===//

#include "opt/checks/CheckOpt.h"
#include "opt/checks/RangeAnalysis.h"
#include "support/Casting.h"

using namespace softbound;

namespace {

/// CCured-SAFE-style static proof: \p Ptr is a constant offset into a
/// stack or global object and [offset, offset+AccessSize) is in bounds.
bool staticallyInBounds(Value *Ptr, uint64_t AccessSize) {
  checkopt::PtrOffset PO = checkopt::constantObjectOffset(Ptr);
  uint64_t End = static_cast<uint64_t>(PO.Offset) + AccessSize;
  if (auto *AI = dyn_cast<AllocaInst>(PO.Root))
    return End <= AI->allocatedType()->sizeInBytes();
  if (auto *G = dyn_cast<GlobalVariable>(PO.Root))
    return End <= G->valueType()->sizeInBytes();
  return false;
}

} // namespace

void softbound::checkopt::elideSafeChecks(Function &F, CheckOptStats &Stats) {
  for (const auto &BB : F.blocks()) {
    for (auto It = BB->begin(); It != BB->end();) {
      auto *Chk = dyn_cast<SpatialCheckInst>(It->get());
      if (Chk)
        ++Stats.ChecksBefore;
      if (!Chk || !staticallyInBounds(Chk->pointer(), Chk->accessSize())) {
        Stats.ChecksAfter += Chk != nullptr;
        ++It;
        continue;
      }
      It = BB->erase(It);
      ++Stats.SafeChecksElided;
    }
  }
}
