//===- opt/checks/Partition.cpp - checked-region partitioning ---------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/checks/Partition.h"

#include "opt/Passes.h"
#include "opt/checks/CallGraph.h"
#include "opt/checks/RangeAnalysis.h"
#include "support/Casting.h"

#include <map>
#include <set>
#include <string>
#include <vector>

using namespace softbound;
using namespace softbound::checkopt;

namespace {

/// Strips GEP/bitcast address arithmetic down to the underlying root.
const Value *addressRoot(const Value *V) {
  while (true) {
    if (const auto *G = dyn_cast<GEPInst>(V))
      V = G->pointer();
    else if (const auto *C = dyn_cast<CastInst>(V);
             C && C->opcode() == CastInst::Op::Bitcast)
      V = C->source();
    else
      return V;
  }
}

/// True when \p Root's address provably never leaves the frame: the
/// alloca and every pointer derived from it by GEP/bitcast are used only
/// as load/store/metadata addresses (plus further derivation and bounds
/// creation — bounds are opaque, no pointer can be recovered from them).
/// Storing the address as a *value*, passing it to a call, returning it,
/// packing it, or casting it to an integer publishes it.
bool allocaStaysLocal(const AllocaInst *Root, const Function &F) {
  std::set<const Value *> Derived{Root};
  bool Grew = true;
  while (Grew) {
    Grew = false;
    for (const auto &BB : F.blocks())
      for (const auto &I : *BB) {
        if (Derived.count(I.get()))
          continue;
        if (Derived.count(addressRoot(I.get())))
          Grew = Derived.insert(I.get()).second || Grew;
      }
  }
  for (const auto &BB : F.blocks())
    for (const auto &I : *BB) {
      bool Uses = false;
      for (unsigned K = 0; K < I->numOperands() && !Uses; ++K)
        Uses = I->op(K) && Derived.count(I->op(K));
      if (!Uses || Derived.count(I.get()))
        continue;
      switch (I->kind()) {
      case ValueKind::Load:
      case ValueKind::MetaLoad:
      case ValueKind::MakeBounds:
        break;
      case ValueKind::Store:
        if (Derived.count(cast<StoreInst>(I.get())->value()))
          return false; // address stored as data
        break;
      case ValueKind::MetaStore:
        if (Derived.count(cast<MetaStoreInst>(I.get())->bounds()))
          return false;
        break;
      case ValueKind::SpatialCheck:
        break;
      default:
        return false; // call arg, ret, pack.pb, ptrtoint, phi, icmp, ...
      }
    }
  return true;
}

/// True when \p B is statically the null bounds: a make.bounds whose base
/// and bound are both zero constants. This is the value every metadata
/// facility reconstructs for an address with no entry (lookup miss =>
/// (0, 0), the bounds that fail every dereference check).
bool isNullBounds(const Value *B) {
  const auto *MB = dyn_cast<MakeBoundsInst>(B);
  if (!MB)
    return false;
  for (unsigned K = 0; K < 2; ++K) {
    const auto *CI = dyn_cast<ConstantInt>(MB->op(K));
    if (!CI || CI->value() != 0)
      return false;
  }
  return true;
}

/// If \p Addr is a constant offset into the result of a constant-size
/// malloc in the same function, with [offset, offset+8) inside the
/// block, returns that allocation call; otherwise null.
const CallInst *freshMallocSlot(Value *Addr) {
  PtrOffset PO = constantObjectOffset(Addr);
  const auto *Alloc = dyn_cast<CallInst>(PO.Root);
  if (!Alloc)
    return nullptr;
  const Function *Callee = Alloc->calledFunction();
  if (!Callee || Callee->name() != "malloc")
    return nullptr;
  const auto *Size = dyn_cast<ConstantInt>(Alloc->arg(0));
  if (!Size || Size->value() < 0 ||
      static_cast<uint64_t>(PO.Offset) + 8 >
          static_cast<uint64_t>(Size->value()))
    return nullptr;
  return Alloc;
}

/// True when no call can execute between the most recent execution of
/// \p Alloc and \p MS. SSA dominance puts Alloc's block on every path to
/// MS, and any re-entry of Alloc's block re-executes Alloc itself (a
/// newer allocation), so the walk stops there: scan MS's block above MS,
/// Alloc's block below Alloc, and every block on a predecessor path in
/// between, in full. A call is a hazard because the callee could plant
/// real metadata over the fresh slots; straight-line code in this frame
/// cannot (its own meta.stores are visited by the same analysis).
using PredMap = std::map<const BasicBlock *, std::vector<const BasicBlock *>>;

bool callFreeFromAllocTo(const CallInst *Alloc, const Instruction *MS,
                         const Function &F, const PredMap &Preds) {
  const BasicBlock *AllocBB = nullptr, *MSBB = nullptr;
  for (const auto &BB : F.blocks())
    for (const auto &I : *BB) {
      if (I.get() == Alloc)
        AllocBB = BB.get();
      if (I.get() == MS)
        MSBB = BB.get();
    }
  if (!AllocBB || !MSBB)
    return false;

  auto Hazard = [&](const Instruction *I) {
    if (const auto *C = dyn_cast<CallInst>(I))
      return C != Alloc;
    if (const auto *S = dyn_cast<MetaStoreInst>(I))
      return !isNullBounds(S->bounds());
    return false;
  };

  // Segment scans within the endpoint blocks.
  auto ScanRange = [&](const BasicBlock *BB, const Instruction *After,
                       const Instruction *Until) {
    bool Active = After == nullptr;
    for (const auto &I : *BB) {
      if (I.get() == Until)
        return false;
      if (Active && Hazard(I.get()))
        return true;
      if (I.get() == After)
        Active = true;
    }
    return false;
  };

  if (AllocBB == MSBB)
    return !ScanRange(AllocBB, Alloc, MS);

  if (ScanRange(MSBB, nullptr, MS) || ScanRange(AllocBB, Alloc, nullptr))
    return false;
  std::set<const BasicBlock *> Seen{MSBB, AllocBB};
  std::vector<const BasicBlock *> Work;
  auto Push = [&](const BasicBlock *BB) {
    if (auto It = Preds.find(BB); It != Preds.end())
      for (const BasicBlock *P : It->second)
        if (Seen.insert(P).second)
          Work.push_back(P);
  };
  Push(MSBB);
  while (!Work.empty()) {
    const BasicBlock *BB = Work.back();
    Work.pop_back();
    for (const auto &I : *BB)
      if (Hazard(I.get()))
        return false;
    Push(BB);
  }
  return true;
}

/// Boundary-reconstruction elision: a meta.store of the null bounds into
/// freshly malloc'd memory writes exactly the value a lookup miss
/// reconstructs — the runtime clears metadata on free (§5.2), so fresh
/// heap slots never carry stale entries. Deleting the store is
/// behavior-equivalent for every caller (no closed-module assumption, no
/// entry contract). This is where tree builders' kid[i] = NULL
/// initialization traffic goes: the dominant metadata cost on bh,
/// perimeter, and treeadd.
unsigned elideReconstructibleStores(Function &F) {
  PredMap Preds;
  for (const auto &BB : F.blocks())
    for (BasicBlock *S : BB->successors())
      Preds[S].push_back(BB.get());
  std::vector<Instruction *> Dead;
  for (const auto &BB : F.blocks())
    for (const auto &I : *BB) {
      auto *MS = dyn_cast<MetaStoreInst>(I.get());
      if (!MS || !isNullBounds(MS->bounds()))
        continue;
      const CallInst *Alloc = freshMallocSlot(MS->address());
      if (Alloc && callFreeFromAllocTo(Alloc, MS, F, Preds))
        Dead.push_back(MS);
    }
  if (Dead.empty())
    return 0;
  std::set<const Instruction *> DeadSet(Dead.begin(), Dead.end());
  for (const auto &BB : F.blocks())
    for (auto It = BB->begin(); It != BB->end();)
      It = DeadSet.count(It->get()) ? BB->erase(It) : std::next(It);
  dce(F);
  return Dead.size();
}

/// What phase 1 learned about one defined function.
struct FuncInfo {
  bool Candidate = false;
  std::string Reason;
  std::vector<Instruction *> MetaLoads;
  std::vector<Instruction *> MetaStores;
};

} // namespace

unsigned checkopt::partitionCheckedRegions(Module &M, const CallGraph &CG,
                                           CheckOptStats &Stats) {
  // Phase 0: boundary reconstruction. Runs before classification so a
  // function whose only metadata stores were reconstructible null inits
  // can still reach the fully-proven verdict below.
  std::map<const Function *, unsigned> Reconstructed;
  for (const auto &FP : M.functions())
    if (FP->isDefinition() && FP->isTransformed())
      if (unsigned N = elideReconstructibleStores(*FP))
        Reconstructed[FP.get()] = N;

  // Phase 1: per-function obligations — no checks left, address never
  // taken, metadata stores confined to non-escaping locals.
  std::vector<Function *> Order;
  std::map<const Function *, FuncInfo> Info;
  for (const auto &FP : M.functions()) {
    Function *F = FP.get();
    if (!F->isDefinition())
      continue;
    Order.push_back(F);
    FuncInfo &FI = Info[F];
    if (!F->isTransformed()) {
      FI.Reason = "not instrumented";
      continue;
    }
    unsigned Spatial = 0, FuncPtr = 0;
    for (const auto &BB : F->blocks())
      for (const auto &I : *BB) {
        if (isa<SpatialCheckInst>(I.get()))
          ++Spatial;
        else if (isa<FuncPtrCheckInst>(I.get()))
          ++FuncPtr;
        else if (isa<MetaLoadInst>(I.get()))
          FI.MetaLoads.push_back(I.get());
        else if (isa<MetaStoreInst>(I.get()))
          FI.MetaStores.push_back(I.get());
      }
    if (Spatial) {
      FI.Reason = std::to_string(Spatial) + " spatial check(s) remain";
      continue;
    }
    if (FuncPtr) {
      FI.Reason = std::to_string(FuncPtr) + " funcptr check(s) remain";
      continue;
    }
    if (CG.isAddressTaken(F)) {
      FI.Reason = "address taken: indirect call sites are unresolvable";
      continue;
    }
    bool Escapes = false;
    for (Instruction *MS : FI.MetaStores) {
      const auto *A =
          dyn_cast<AllocaInst>(addressRoot(cast<MetaStoreInst>(MS)->address()));
      if (!A || !allocaStaysLocal(A, *F)) {
        Escapes = true;
        break;
      }
    }
    if (Escapes) {
      FI.Reason = "meta.store through an address visible outside the frame";
      continue;
    }
    FI.Candidate = true;
  }

  // Phase 2: stripped-bounds taint fixpoint. Deleting a candidate's
  // meta.loads replaces their results with null bounds, so every value
  // they feed — through the bounds-carrying instructions and across
  // direct calls — must stay inside the fully-proven region, where
  // nothing checks against it. A leak demotes the function; demotion
  // restores real metadata, so taint is recomputed until nothing demotes.
  auto InRegion = [&Info](const Function *F) {
    auto It = Info.find(F);
    return It != Info.end() && It->second.Candidate;
  };
  bool Demoted = true;
  while (Demoted) {
    Demoted = false;
    std::set<const Value *> Tainted;
    std::set<const Argument *> TaintedArgs;
    std::set<const Function *> TaintedRet;

    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (Function *F : Order) {
        if (!InRegion(F))
          continue;
        for (unsigned AI = 0; AI < F->numArgs(); ++AI)
          if (TaintedArgs.count(F->arg(AI)))
            Changed = Tainted.insert(F->arg(AI)).second || Changed;
        for (const auto &BB : F->blocks())
          for (const auto &I : *BB) {
            Instruction *P = I.get();
            bool T = false;
            switch (P->kind()) {
            case ValueKind::MetaLoad:
              T = true;
              break;
            case ValueKind::Phi:
            case ValueKind::Select:
            case ValueKind::PackPB:
            case ValueKind::ExtractBounds:
              for (unsigned K = 0; K < P->numOperands() && !T; ++K)
                T = P->op(K) && Tainted.count(P->op(K));
              break;
            case ValueKind::Call: {
              const Function *Callee = cast<CallInst>(P)->calledFunction();
              T = Callee && TaintedRet.count(Callee);
              break;
            }
            default:
              break;
            }
            if (T)
              Changed = Tainted.insert(P).second || Changed;
          }
        for (const auto &BB : F->blocks())
          for (const auto &I : *BB) {
            if (const auto *C = dyn_cast<CallInst>(I.get())) {
              const Function *Callee = C->calledFunction();
              if (!Callee || !InRegion(Callee))
                continue;
              for (unsigned K = 0;
                   K < C->numArgs() && K < Callee->numArgs(); ++K)
                if (C->arg(K) && Tainted.count(C->arg(K)))
                  Changed =
                      TaintedArgs.insert(Callee->arg(K)).second || Changed;
            } else if (const auto *R = dyn_cast<RetInst>(I.get())) {
              if (R->hasValue() && Tainted.count(R->value()))
                Changed = TaintedRet.insert(F).second || Changed;
            }
          }
      }
    }

    for (Function *F : Order) {
      if (!InRegion(F))
        continue;
      std::string Leak;
      for (const auto &BB : F->blocks()) {
        for (const auto &I : *BB) {
          const auto *C = dyn_cast<CallInst>(I.get());
          if (!C)
            continue;
          const Function *Callee = C->calledFunction();
          if (Callee && InRegion(Callee))
            continue;
          for (unsigned K = 0; K < C->numArgs() && Leak.empty(); ++K)
            if (C->arg(K) && Tainted.count(C->arg(K)))
              Leak = Callee ? "stripped bounds reach instrumented callee @" +
                                  Callee->name()
                            : std::string(
                                  "stripped bounds reach an indirect call");
          if (!Leak.empty())
            break;
        }
        if (!Leak.empty())
          break;
      }
      if (Leak.empty() && TaintedRet.count(F)) {
        if (CG.externallyReachable(F))
          Leak = "stripped return bounds are externally visible";
        else
          for (unsigned SI : CG.callersOf(F))
            if (const Function *Caller = CG.callSites()[SI].Caller;
                !InRegion(Caller)) {
              Leak = "stripped return bounds reach instrumented caller @" +
                     Caller->name();
              break;
            }
      }
      if (!Leak.empty()) {
        Info[F].Candidate = false;
        Info[F].Reason = Leak;
        Demoted = true;
      }
    }
  }

  // Phase 3: strip the proven region and emit verdicts in module order.
  unsigned Removed = 0;
  for (Function *F : Order) {
    FuncInfo &FI = Info[F];
    PartitionVerdict V;
    V.Func = F->name();
    V.MetaStoresRemoved = Reconstructed.count(F) ? Reconstructed[F] : 0;
    ++Stats.PartitionFunctions;
    if (!FI.Candidate) {
      V.Reason = FI.Reason;
      Stats.PartitionMetaStoresRemoved += V.MetaStoresRemoved;
      Stats.Partition.push_back(std::move(V));
      continue;
    }
    V.FullyProven = true;
    V.Reason = "proven";
    V.MetaLoadsRemoved = FI.MetaLoads.size();
    V.MetaStoresRemoved += FI.MetaStores.size();

    if (!FI.MetaLoads.empty()) {
      // One shared null-bounds value stands in for every deleted
      // meta.load; the taint fixpoint proved nothing checks against it.
      auto NB = std::make_unique<MakeBoundsInst>(
          M.ctx().boundsTy(), M.constI64(0), M.constI64(0), "stripped");
      MakeBoundsInst *Stripped = NB.get();
      BasicBlock *Entry = F->entry();
      Entry->insertBefore(Entry->begin(), std::move(NB));
      for (Instruction *ML : FI.MetaLoads)
        F->replaceAllUsesWith(ML, Stripped);
    }
    std::set<const Instruction *> Dead(FI.MetaLoads.begin(),
                                       FI.MetaLoads.end());
    Dead.insert(FI.MetaStores.begin(), FI.MetaStores.end());
    for (const auto &BB : F->blocks())
      for (auto It = BB->begin(); It != BB->end();)
        It = Dead.count(It->get()) ? BB->erase(It) : std::next(It);

    Stats.PartitionMetaLoadsRemoved += V.MetaLoadsRemoved;
    Stats.PartitionMetaStoresRemoved += V.MetaStoresRemoved;
    Removed += FI.MetaLoads.size() + FI.MetaStores.size();
    ++Stats.PartitionProven;
    F->setUninstrumented();
    // Deleted metadata ops strand their address arithmetic; sweep it.
    dce(*F);
    Stats.Partition.push_back(std::move(V));
  }

  return Removed;
}
