//===- opt/Mem2Reg.cpp - scalar alloca promotion ----------------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Standard SSA construction: for each promotable alloca, place phis at the
/// iterated dominance frontier of its defining blocks, then rename via a
/// dominator-tree walk. This is the "register promotion" step the paper
/// relies on to shrink the number of memory operations SoftBound must
/// instrument (§6.1).
///
//===----------------------------------------------------------------------===//

#include "opt/Dominators.h"
#include "opt/Passes.h"

#include <map>
#include <set>
#include <unordered_map>

using namespace softbound;

namespace {

/// An alloca is promotable when it holds a scalar and its address never
/// escapes: every use is a direct load or a store *of a value through it*.
bool isPromotable(const AllocaInst *AI, Function &F) {
  if (!AI->allocatedType()->isScalar())
    return false;
  for (const auto &BB : F.blocks())
    for (const auto &I : *BB) {
      for (unsigned K = 0; K < I->numOperands(); ++K) {
        if (I->op(K) != AI)
          continue;
        if (isa<LoadInst>(I.get()) && K == 0)
          continue;
        if (isa<StoreInst>(I.get()) && K == 1)
          continue;
        return false; // Address escapes (GEP, call arg, stored value, …).
      }
    }
  return true;
}

/// Dominance frontiers of the reachable blocks (Cooper–Harvey–Kennedy): a
/// join is in the frontier of every block on a predecessor's idom chain
/// below the join's own idom. Only reachable joins appear, so every phi
/// placed from them lies on the renaming walk.
std::unordered_map<BasicBlock *, std::vector<BasicBlock *>>
frontiers(const DomTree &DT) {
  std::unordered_map<BasicBlock *, std::vector<BasicBlock *>> DF;
  for (BasicBlock *BB : DT.rpo()) {
    const std::vector<BasicBlock *> &Preds = DT.preds(BB);
    if (Preds.size() < 2)
      continue;
    BasicBlock *Stop = DT.idom(BB);
    for (BasicBlock *Runner : Preds)
      for (; Runner && Runner != Stop; Runner = DT.idom(Runner)) {
        std::vector<BasicBlock *> &Front = DF[Runner];
        if (Front.empty() || Front.back() != BB) // One join at a time.
          Front.push_back(BB);
      }
  }
  return DF;
}

} // namespace

void softbound::mem2reg(Function &F) {
  if (!F.isDefinition())
    return;

  std::vector<AllocaInst *> Promotable;
  for (auto &BB : F.blocks())
    for (auto &I : *BB)
      if (auto *AI = dyn_cast<AllocaInst>(I.get()))
        if (isPromotable(AI, F))
          Promotable.push_back(AI);
  if (Promotable.empty())
    return;

  DomTree DT(F);
  auto DF = frontiers(DT);

  std::map<AllocaInst *, unsigned> Index;
  for (unsigned I = 0; I < Promotable.size(); ++I)
    Index[Promotable[I]] = I;

  // Phi placement at iterated dominance frontiers of defining blocks.
  std::map<PhiInst *, unsigned> PhiVar;
  for (auto *AI : Promotable) {
    std::set<BasicBlock *> DefBlocks;
    for (auto &BB : F.blocks())
      for (auto &I : *BB)
        if (auto *St = dyn_cast<StoreInst>(I.get()))
          if (St->pointer() == AI)
            DefBlocks.insert(BB.get());

    std::vector<BasicBlock *> Work(DefBlocks.begin(), DefBlocks.end());
    std::set<BasicBlock *> HasPhi;
    while (!Work.empty()) {
      BasicBlock *BB = Work.back();
      Work.pop_back();
      auto It = DF.find(BB);
      if (It == DF.end())
        continue;
      for (auto *Front : It->second) {
        if (!HasPhi.insert(Front).second)
          continue;
        auto Phi = std::make_unique<PhiInst>(AI->allocatedType(),
                                             AI->name() + ".phi");
        PhiVar[Phi.get()] = Index[AI];
        Front->insertBefore(Front->begin(), std::move(Phi));
        if (!DefBlocks.count(Front))
          Work.push_back(Front);
      }
    }
  }

  // Renaming walk over the dominator tree. Promoted loads are replaced
  // in one rewrite after it, so a value the walk hands on may be a load
  // that is itself replaced; the rewrite follows such chains.
  Module *Mod = F.parent();
  ValueReplacements Repl;
  std::vector<Value *> Cur(Promotable.size(), nullptr);
  auto CurOrUndef = [&](unsigned Var) -> Value * {
    if (Cur[Var])
      return Cur[Var];
    return Mod->undef(Promotable[Var]->allocatedType());
  };

  // Entering a block records each variable it redefines with the value to
  // restore once its dominated subtree is renamed.
  using SavedDefs = std::vector<std::pair<unsigned, Value *>>;
  auto Enter = [&](BasicBlock *BB) {
    SavedDefs Saved;

    for (auto It = BB->begin(); It != BB->end();) {
      Instruction *I = It->get();
      if (auto *Phi = dyn_cast<PhiInst>(I)) {
        auto PV = PhiVar.find(Phi);
        if (PV != PhiVar.end()) {
          Saved.emplace_back(PV->second, Cur[PV->second]);
          Cur[PV->second] = Phi;
        }
        ++It;
        continue;
      }
      if (auto *Ld = dyn_cast<LoadInst>(I)) {
        if (auto *AI = dyn_cast<AllocaInst>(Ld->pointer())) {
          auto Idx = Index.find(AI);
          if (Idx != Index.end())
            Repl.record(Ld, CurOrUndef(Idx->second));
        }
        ++It;
        continue;
      }
      if (auto *St = dyn_cast<StoreInst>(I)) {
        if (auto *AI = dyn_cast<AllocaInst>(St->pointer())) {
          auto Idx = Index.find(AI);
          if (Idx != Index.end()) {
            Saved.emplace_back(Idx->second, Cur[Idx->second]);
            Cur[Idx->second] = St->value();
            It = BB->erase(It);
            continue;
          }
        }
        ++It;
        continue;
      }
      ++It;
    }

    // Fill successor phi operands.
    for (auto *S : BB->successors())
      for (auto &I : *S) {
        auto *Phi = dyn_cast<PhiInst>(I.get());
        if (!Phi)
          break;
        auto PV = PhiVar.find(Phi);
        if (PV != PhiVar.end())
          Phi->addIncoming(CurOrUndef(PV->second), BB);
      }

    return Saved;
  };
  walkDomTree(DT, F.entry(), Enter, [&](BasicBlock *, SavedDefs &Saved) {
    for (auto It = Saved.rbegin(); It != Saved.rend(); ++It)
      Cur[It->first] = It->second;
  });
  Repl.apply(F);

  // Remove the promoted allocas.
  for (auto &BB : F.blocks())
    for (auto It = BB->begin(); It != BB->end();) {
      auto *AI = dyn_cast<AllocaInst>(It->get());
      if (AI && Index.count(AI))
        It = BB->erase(It);
      else
        ++It;
    }
}
