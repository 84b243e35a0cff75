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
      for (auto *Front : DT.frontier(BB)) {
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

  // Renaming walk over the dominator tree.
  Module *Mod = F.parent();
  std::vector<Value *> Cur(Promotable.size(), nullptr);
  auto CurOrUndef = [&](unsigned Var) -> Value * {
    if (Cur[Var])
      return Cur[Var];
    return Mod->undef(Promotable[Var]->allocatedType());
  };

  // Entering a block records each variable it redefines with the value to
  // restore once its dominated subtree is renamed.
  using SavedDefs = std::vector<std::pair<unsigned, Value *>>;
  std::set<BasicBlock *> Visited;
  auto Enter = [&](BasicBlock *BB) {
    Visited.insert(BB);
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
          if (Idx != Index.end()) {
            F.replaceAllUsesWith(Ld, CurOrUndef(Idx->second));
            It = BB->erase(It);
            continue;
          }
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

  // Remove the promoted allocas.
  for (auto &BB : F.blocks())
    for (auto It = BB->begin(); It != BB->end();) {
      auto *AI = dyn_cast<AllocaInst>(It->get());
      if (AI && Index.count(AI))
        It = BB->erase(It);
      else
        ++It;
    }

  // Phis placed in unreachable blocks never got incoming values; drop them
  // (simplifyCFG removes those blocks anyway).
  for (auto &BB : F.blocks()) {
    if (Visited.count(BB.get()))
      continue;
    for (auto It = BB->begin(); It != BB->end();) {
      auto *Phi = dyn_cast<PhiInst>(It->get());
      if (Phi && PhiVar.count(Phi)) {
        F.replaceAllUsesWith(Phi, Mod->undef(Phi->type()));
        It = BB->erase(It);
      } else {
        ++It;
      }
    }
  }
}
