//===- opt/Scalar.cpp - simplifycfg, constfold, cse, dce --------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

#include "support/Compiler.h"

#include <map>
#include <set>
#include <tuple>

using namespace softbound;

//===----------------------------------------------------------------------===//
// simplifyCFG
//===----------------------------------------------------------------------===//

namespace {

/// Computes the set of blocks reachable from the entry.
std::set<BasicBlock *> reachableBlocks(Function &F) {
  std::set<BasicBlock *> Seen;
  std::vector<BasicBlock *> Work{F.entry()};
  while (!Work.empty()) {
    BasicBlock *BB = Work.back();
    Work.pop_back();
    if (!Seen.insert(BB).second)
      continue;
    for (auto *S : BB->successors())
      Work.push_back(S);
  }
  return Seen;
}

/// Drops phi entries whose incoming block is \p Pred.
void removePhiEntriesFor(BasicBlock *BB, BasicBlock *Pred) {
  for (auto &I : *BB) {
    auto *Phi = dyn_cast<PhiInst>(I.get());
    if (!Phi)
      break;
    Phi->removeIncomingFor(Pred);
  }
}

/// Replaces single-entry phis by their value.
bool foldTrivialPhis(Function &F, const std::set<BasicBlock *> &Live) {
  ValueReplacements Repl;
  for (auto &BB : F.blocks()) {
    if (!Live.count(BB.get()))
      continue;
    for (auto &I : *BB) {
      auto *Phi = dyn_cast<PhiInst>(I.get());
      if (!Phi)
        break;
      if (Phi->numIncoming() == 1)
        Repl.record(Phi, Phi->incomingValue(0));
    }
  }
  bool Changed = !Repl.empty();
  Repl.apply(F);
  return Changed;
}

} // namespace

bool softbound::simplifyCFG(Function &F) {
  if (!F.isDefinition())
    return false;
  bool Changed = false;

  // 1. Fold constant conditional branches.
  for (auto &BB : F.blocks()) {
    auto *Br = dyn_cast<BrInst>(BB->terminator());
    if (!Br || !Br->isConditional())
      continue;
    BasicBlock *Dead = nullptr;
    if (auto *CI = dyn_cast<ConstantInt>(Br->condition())) {
      BasicBlock *Taken = CI->isZero() ? Br->successor(1) : Br->successor(0);
      Dead = CI->isZero() ? Br->successor(0) : Br->successor(1);
      if (Dead == Taken)
        Dead = nullptr;
      auto It = std::prev(BB->end());
      BB->erase(It);
      BB->append(std::make_unique<BrInst>(F.parent()->ctx().voidTy(), Taken));
      if (Dead)
        removePhiEntriesFor(Dead, BB.get());
      Changed = true;
    } else if (Br->successor(0) == Br->successor(1)) {
      BasicBlock *Taken = Br->successor(0);
      auto It = std::prev(BB->end());
      BB->erase(It);
      BB->append(std::make_unique<BrInst>(F.parent()->ctx().voidTy(), Taken));
      Changed = true;
    }
  }

  // 2. Remove unreachable blocks.
  std::set<BasicBlock *> Live = reachableBlocks(F);
  for (auto &BB : F.blocks()) {
    if (Live.count(BB.get()))
      continue;
    for (auto *S : BB->successors())
      if (Live.count(S))
        removePhiEntriesFor(S, BB.get());
  }
  for (auto It = F.blocks().begin(); It != F.blocks().end();) {
    if (!Live.count(It->get())) {
      It = F.blocks().erase(It);
      Changed = true;
    } else {
      ++It;
    }
  }

  Changed |= foldTrivialPhis(F, Live);

  // 3. Merge B into P when P -> B is the only edge in either direction.
  // One pass reaches the fixpoint: a merge only changes P's terminator
  // (P is tried again at once) and turns B into P in its successors'
  // predecessor lists.
  struct BlockInfo {
    std::vector<BasicBlock *> Preds;
    Function::BlockList::iterator Where; ///< The block's place in F.
  };
  std::map<BasicBlock *, BlockInfo> Info;
  for (auto It = F.blocks().begin(); It != F.blocks().end(); ++It) {
    Info[It->get()].Where = It;
    for (auto *S : (*It)->successors())
      Info[S].Preds.push_back(It->get());
  }
  for (auto &BBPtr : F.blocks()) {
    BasicBlock *P = BBPtr.get();
    for (;;) {
      auto *Br = dyn_cast<BrInst>(P->terminator());
      if (!Br || Br->isConditional())
        break;
      BasicBlock *B = Br->successor(0);
      if (B == P || B == F.entry())
        break;
      auto &BP = Info.at(B).Preds;
      if (BP.size() != 1 || BP[0] != P)
        break;
      // B's phis have exactly one incoming (from P): fold them.
      for (auto It = B->begin(); It != B->end();) {
        auto *Phi = dyn_cast<PhiInst>(It->get());
        if (!Phi)
          break;
        F.replaceAllUsesWith(Phi, Phi->numIncoming()
                                      ? Phi->incomingValue(0)
                                      : F.parent()->undef(Phi->type()));
        It = B->erase(It);
      }
      // Remove P's terminator, splice B's instructions into P.
      P->erase(std::prev(P->end()));
      while (!B->empty()) {
        std::unique_ptr<Instruction> I = std::move(B->instructions().front());
        B->instructions().pop_front();
        I->setParent(P);
        P->instructions().push_back(std::move(I));
      }
      // Successor phis that referenced B now come from P.
      for (auto *S : P->successors()) {
        for (auto &I : *S) {
          auto *Phi = dyn_cast<PhiInst>(I.get());
          if (!Phi)
            break;
          for (unsigned K = 0; K < Phi->numIncoming(); ++K)
            if (Phi->incomingBlock(K) == B)
              Phi->setIncomingBlock(K, P);
        }
        for (auto *&Pred : Info.at(S).Preds)
          if (Pred == B)
            Pred = P;
      }
      // Delete the now-empty block B.
      F.blocks().erase(Info.at(B).Where);
      Info.erase(B);
      Changed = true;
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// constantFold
//===----------------------------------------------------------------------===//

namespace {

int64_t canonBits(uint64_t V, unsigned Bits) {
  if (Bits >= 64)
    return static_cast<int64_t>(V);
  uint64_t Mask = (1ULL << Bits) - 1;
  V &= Mask;
  if (Bits > 1 && ((V >> (Bits - 1)) & 1))
    V |= ~Mask;
  return static_cast<int64_t>(V);
}

/// Folds one instruction to a constant or simpler value, or null.
Value *foldInst(Instruction *I, Module &M) {
  if (auto *B = dyn_cast<BinOpInst>(I)) {
    auto *L = dyn_cast<ConstantInt>(B->lhs());
    auto *R = dyn_cast<ConstantInt>(B->rhs());
    auto *Ty = cast<IntType>(B->type());
    unsigned Bits = Ty->bits();
    if (L && R) {
      uint64_t A = static_cast<uint64_t>(L->value());
      uint64_t C = static_cast<uint64_t>(R->value());
      uint64_t UA = Bits >= 64 ? A : A & ((1ULL << Bits) - 1);
      uint64_t UC = Bits >= 64 ? C : C & ((1ULL << Bits) - 1);
      int64_t Out;
      switch (B->opcode()) {
      case BinOpInst::Op::Add:
        Out = canonBits(A + C, Bits);
        break;
      case BinOpInst::Op::Sub:
        Out = canonBits(A - C, Bits);
        break;
      case BinOpInst::Op::Mul:
        Out = canonBits(A * C, Bits);
        break;
      case BinOpInst::Op::SDiv:
        if (C == 0 || (L->value() == INT64_MIN && R->value() == -1))
          return nullptr;
        Out = canonBits(static_cast<uint64_t>(L->value() / R->value()), Bits);
        break;
      case BinOpInst::Op::SRem:
        if (C == 0 || (L->value() == INT64_MIN && R->value() == -1))
          return nullptr;
        Out = canonBits(static_cast<uint64_t>(L->value() % R->value()), Bits);
        break;
      case BinOpInst::Op::UDiv:
        if (UC == 0)
          return nullptr;
        Out = canonBits(UA / UC, Bits);
        break;
      case BinOpInst::Op::URem:
        if (UC == 0)
          return nullptr;
        Out = canonBits(UA % UC, Bits);
        break;
      case BinOpInst::Op::And:
        Out = canonBits(A & C, Bits);
        break;
      case BinOpInst::Op::Or:
        Out = canonBits(A | C, Bits);
        break;
      case BinOpInst::Op::Xor:
        Out = canonBits(A ^ C, Bits);
        break;
      case BinOpInst::Op::Shl:
        Out = canonBits(UA << (C & (Bits - 1)), Bits);
        break;
      case BinOpInst::Op::LShr:
        Out = canonBits(UA >> (C & (Bits - 1)), Bits);
        break;
      case BinOpInst::Op::AShr:
        Out = canonBits(
            static_cast<uint64_t>(L->value() >> (C & (Bits - 1))), Bits);
        break;
      default:
        return nullptr;
      }
      return M.constInt(Ty, Out);
    }
    // Algebraic identities with a constant on the right.
    if (R) {
      switch (B->opcode()) {
      case BinOpInst::Op::Add:
      case BinOpInst::Op::Sub:
      case BinOpInst::Op::Shl:
      case BinOpInst::Op::LShr:
      case BinOpInst::Op::AShr:
      case BinOpInst::Op::Or:
      case BinOpInst::Op::Xor:
        if (R->isZero())
          return B->lhs();
        break;
      case BinOpInst::Op::Mul:
        if (R->isZero())
          return M.constInt(Ty, 0);
        if (R->value() == 1)
          return B->lhs();
        break;
      case BinOpInst::Op::And:
        if (R->isZero())
          return M.constInt(Ty, 0);
        break;
      default:
        break;
      }
    }
    return nullptr;
  }

  if (auto *C = dyn_cast<ICmpInst>(I)) {
    auto *L = dyn_cast<ConstantInt>(C->lhs());
    auto *R = dyn_cast<ConstantInt>(C->rhs());
    if (L && R) {
      int64_t A = L->value(), B2 = R->value();
      uint64_t UA = L->zextValue(), UB = R->zextValue();
      bool Out = false;
      switch (C->pred()) {
      case ICmpInst::Pred::EQ:
        Out = A == B2;
        break;
      case ICmpInst::Pred::NE:
        Out = A != B2;
        break;
      case ICmpInst::Pred::SLT:
        Out = A < B2;
        break;
      case ICmpInst::Pred::SLE:
        Out = A <= B2;
        break;
      case ICmpInst::Pred::SGT:
        Out = A > B2;
        break;
      case ICmpInst::Pred::SGE:
        Out = A >= B2;
        break;
      case ICmpInst::Pred::ULT:
        Out = UA < UB;
        break;
      case ICmpInst::Pred::ULE:
        Out = UA <= UB;
        break;
      case ICmpInst::Pred::UGT:
        Out = UA > UB;
        break;
      case ICmpInst::Pred::UGE:
        Out = UA >= UB;
        break;
      }
      return M.constInt(M.ctx().i1(), Out ? 1 : 0);
    }
    // Null-pointer equality folds.
    if (isa<ConstantNull>(C->lhs()) && isa<ConstantNull>(C->rhs())) {
      if (C->pred() == ICmpInst::Pred::EQ)
        return M.constInt(M.ctx().i1(), 1);
      if (C->pred() == ICmpInst::Pred::NE)
        return M.constInt(M.ctx().i1(), 0);
    }
    return nullptr;
  }

  if (auto *Ca = dyn_cast<CastInst>(I)) {
    auto *C = dyn_cast<ConstantInt>(Ca->source());
    if (!C)
      return nullptr;
    switch (Ca->opcode()) {
    case CastInst::Op::Trunc:
    case CastInst::Op::SExt:
      return M.constInt(cast<IntType>(Ca->type()),
                        canonBits(static_cast<uint64_t>(C->value()),
                                  cast<IntType>(Ca->type())->bits()));
    case CastInst::Op::ZExt:
      return M.constInt(cast<IntType>(Ca->type()),
                        static_cast<int64_t>(C->zextValue()));
    default:
      return nullptr;
    }
  }

  if (auto *S = dyn_cast<SelectInst>(I)) {
    if (auto *C = dyn_cast<ConstantInt>(S->condition()))
      return C->isZero() ? S->ifFalse() : S->ifTrue();
    return nullptr;
  }

  return nullptr;
}

} // namespace

bool softbound::constantFold(Function &F, Module &M) {
  if (!F.isDefinition())
    return false;
  // Each instruction sees the folds before it in its operands, as if
  // every fold had been replaced across the body at once; the body is
  // rewritten once at the end.
  ValueReplacements Repl;
  for (auto &BB : F.blocks())
    for (auto &IP : *BB) {
      Instruction *I = IP.get();
      Repl.rewrite(*I);
      Value *Folded = I->isPure() || isa<BinOpInst>(I) ? foldInst(I, M)
                                                       : nullptr;
      if (Folded && Folded != I)
        Repl.record(I, Folded);
    }
  bool Changed = !Repl.empty();
  Repl.apply(F);
  return Changed;
}

//===----------------------------------------------------------------------===//
// dce
//===----------------------------------------------------------------------===//

bool softbound::dce(Function &F) {
  if (!F.isDefinition())
    return false;
  bool Changed = false;
  bool Local = true;
  while (Local) {
    Local = false;
    std::map<const Value *, unsigned> Uses;
    for (auto &BB : F.blocks())
      for (auto &I : *BB)
        for (unsigned K = 0; K < I->numOperands(); ++K)
          ++Uses[I->op(K)];
    for (auto &BB : F.blocks())
      for (auto It = BB->begin(); It != BB->end();) {
        Instruction *I = It->get();
        bool Removable = I->isPure() || isa<LoadInst>(I) ||
                         isa<AllocaInst>(I) || isa<MetaLoadInst>(I);
        if (Removable && Uses[I] == 0) {
          It = BB->erase(It);
          Local = Changed = true;
          continue;
        }
        ++It;
      }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// localCSE
//===----------------------------------------------------------------------===//

namespace {

/// Structural key for pure instructions (block-local value numbering).
using CSEKey = std::tuple<ValueKind, int, std::vector<Value *>, Type *,
                          const void *>;

bool makeKey(Instruction *I, CSEKey &Key) {
  int Sub = 0;
  const void *Extra = nullptr;
  switch (I->kind()) {
  case ValueKind::BinOp:
    Sub = static_cast<int>(cast<BinOpInst>(I)->opcode());
    break;
  case ValueKind::ICmp:
    Sub = static_cast<int>(cast<ICmpInst>(I)->pred());
    break;
  case ValueKind::Cast:
    Sub = static_cast<int>(cast<CastInst>(I)->opcode());
    break;
  case ValueKind::GEP:
    Extra = cast<GEPInst>(I)->sourceType();
    break;
  case ValueKind::Select:
  case ValueKind::MakeBounds:
  case ValueKind::PackPB:
  case ValueKind::ExtractPtr:
  case ValueKind::ExtractBounds:
    break;
  default:
    return false;
  }
  Key = CSEKey(I->kind(), Sub, I->operands(), I->type(), Extra);
  return true;
}

} // namespace

bool softbound::localCSE(Function &F) {
  if (!F.isDefinition())
    return false;
  // Keys see earlier replacements in their operands; the body is
  // rewritten once at the end.
  ValueReplacements Repl;
  for (auto &BB : F.blocks()) {
    std::map<CSEKey, Instruction *> Seen;
    for (auto &IP : *BB) {
      Instruction *I = IP.get();
      Repl.rewrite(*I);
      CSEKey Key;
      if (!makeKey(I, Key))
        continue;
      auto Found = Seen.find(Key);
      if (Found != Seen.end())
        Repl.record(I, Found->second);
      else
        Seen[Key] = I;
    }
  }
  bool Changed = !Repl.empty();
  Repl.apply(F);
  return Changed;
}

//===----------------------------------------------------------------------===//
// Pipeline
//===----------------------------------------------------------------------===//

void softbound::optimizeFunction(Function &F, Module &M) {
  if (!F.isDefinition())
    return;
  simplifyCFG(F); // Remove frontend dead blocks before dominance analysis.
  mem2reg(F);
  for (int Round = 0; Round < 4; ++Round) {
    bool Changed = false;
    Changed |= constantFold(F, M);
    Changed |= localCSE(F);
    Changed |= simplifyCFG(F);
    Changed |= dce(F);
    if (!Changed)
      break;
  }
}

void softbound::optimizeModule(Module &M) {
  for (const auto &F : M.functions())
    optimizeFunction(*F, M);
}

//===----------------------------------------------------------------------===//
// eliminateRedundantChecks (§6.1/§6.3 re-optimization after instrumentation)
//===----------------------------------------------------------------------===//

unsigned softbound::eliminateRedundantChecks(Function &F) {
  if (!F.isDefinition())
    return 0;
  unsigned Removed = 0;
  // Redundant meta.loads are replaced in one rewrite at the end; every
  // instruction sees the earlier replacements in its operands.
  ValueReplacements Repl;
  for (auto &BB : F.blocks()) {
    // (ptr, bounds) -> largest access size already checked in this block.
    std::map<std::pair<Value *, Value *>, uint64_t> CheckedStore;
    std::map<std::pair<Value *, Value *>, uint64_t> CheckedAny;
    std::map<Value *, Instruction *> MetaLoaded; // addr -> live meta.load

    for (auto It = BB->begin(); It != BB->end();) {
      Instruction *I = It->get();
      Repl.rewrite(*I);

      if (auto *Chk = dyn_cast<SpatialCheckInst>(I)) {
        auto Key = std::make_pair(Chk->pointer(), Chk->bounds());
        auto &Best = Chk->isStoreCheck() ? CheckedStore : CheckedAny;
        // A store check subsumes a load check for the same pointer.
        uint64_t Prior = std::max(CheckedStore.count(Key) ? CheckedStore[Key]
                                                          : 0,
                                  CheckedAny.count(Key) ? CheckedAny[Key] : 0);
        if (Prior >= Chk->accessSize()) {
          It = BB->erase(It);
          ++Removed;
          continue;
        }
        // Guarded checks may consume prior facts (above) but never supply
        // them: a skipped guard means the check did not execute.
        if (!Chk->isGuarded())
          Best[Key] = std::max(Best[Key], Chk->accessSize());
        ++It;
        continue;
      }

      if (auto *ML = dyn_cast<MetaLoadInst>(I)) {
        auto Found = MetaLoaded.find(ML->address());
        if (Found != MetaLoaded.end()) {
          Repl.record(ML, Found->second);
          ++Removed;
        } else {
          MetaLoaded[ML->address()] = ML;
        }
        ++It;
        continue;
      }

      // Calls may free memory or longjmp; metadata may change and pointers
      // may die. Conservatively invalidate both caches.
      if (isa<CallInst>(I) || isa<MetaStoreInst>(I)) {
        MetaLoaded.clear();
        if (isa<CallInst>(I)) {
          CheckedStore.clear();
          CheckedAny.clear();
        }
      }
      ++It;
    }
  }
  Repl.apply(F);
  return Removed;
}

unsigned softbound::eliminateRedundantChecks(Module &M) {
  unsigned Total = 0;
  for (const auto &F : M.functions())
    Total += eliminateRedundantChecks(*F);
  return Total;
}

unsigned softbound::reoptimizeInstrumented(Module &M) {
  unsigned Eliminated = eliminateRedundantChecks(M);
  for (const auto &F : M.functions()) {
    if (!F->isDefinition())
      continue;
    localCSE(*F);
    dce(*F);
  }
  return Eliminated;
}
