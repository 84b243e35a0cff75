//===- ir/Verifier.cpp - structural IR validation --------------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include "ir/IRPrinter.h"
#include "ir/Module.h"

#include <map>
#include <set>

using namespace softbound;

namespace {

/// Per-function verification state.
class FunctionVerifier {
public:
  FunctionVerifier(const Function &F, std::vector<std::string> &Errors)
      : F(F), Errors(Errors) {}

  void run() {
    if (!F.isDefinition())
      return;
    collectBlocksAndDefs();
    for (const auto &BB : F.blocks())
      checkBlock(*BB);
  }

private:
  void error(const std::string &Msg) {
    Errors.push_back("in @" + F.name() + ": " + Msg);
  }
  void error(const Instruction &I, const std::string &Msg) {
    error(Msg + " in '" + printInstruction(I) + "'");
  }

  void collectBlocksAndDefs() {
    for (const auto &BB : F.blocks()) {
      Blocks.insert(BB.get());
      for (const auto &I : *BB)
        Defined.insert(I.get());
    }
    for (unsigned I = 0; I < F.numArgs(); ++I)
      Defined.insert(F.arg(I));
    for (const auto &BB : F.blocks())
      for (auto *S : BB->successors())
        Preds[S].insert(BB.get());
  }

  void checkBlock(const BasicBlock &BB) {
    if (BB.empty()) {
      error("empty block " + BB.name());
      return;
    }
    if (!BB.back()->isTerminator())
      error("block " + BB.name() + " does not end in a terminator");

    bool SeenNonPhi = false;
    std::set<const Instruction *> SeenHere;
    for (auto It = BB.begin(); It != BB.end(); ++It) {
      const Instruction &I = **It;
      if (I.isTerminator() && I.parent()->back() != &I)
        error(I, "terminator in the middle of block " + BB.name());
      if (isa<PhiInst>(I)) {
        if (SeenNonPhi)
          error(I, "phi after non-phi instruction");
      } else {
        SeenNonPhi = true;
        // Same-block SSA order: an operand defined in this block must be
        // defined *above* its use. (Phis are exempt: their operands flow
        // in along edges.) Cross-block dominance is not checked here.
        for (unsigned K = 0; K < I.numOperands(); ++K)
          if (const auto *OpI =
                  I.op(K) ? dyn_cast<Instruction>(I.op(K)) : nullptr)
            if (OpI->parent() == &BB && !SeenHere.count(OpI))
              error(I, "operand " + std::to_string(K) +
                           " is used before its definition in block " +
                           BB.name());
      }
      SeenHere.insert(&I);
      // The typing rules read every operand's type: skip them on an
      // instruction with a null operand, already reported.
      if (checkOperands(I))
        checkTyping(I);
    }
  }

  /// Reports undefined and null operands; false when one is null.
  bool checkOperands(const Instruction &I) {
    bool AllPresent = true;
    for (unsigned K = 0; K < I.numOperands(); ++K) {
      const Value *Op = I.op(K);
      if (!Op) {
        error(I, "null operand " + std::to_string(K));
        AllPresent = false;
        continue;
      }
      if (isa<Constant>(Op))
        continue;
      if (!Defined.count(Op))
        error(I, "operand " + std::to_string(K) +
                     " is not defined in this function");
    }
    return AllPresent;
  }

  void checkTyping(const Instruction &I) {
    switch (I.kind()) {
    case ValueKind::Load: {
      const auto &L = cast<LoadInst>(I);
      if (!L.pointer()->type()->isPointer())
        error(I, "load from non-pointer");
      if (!I.type()->isScalar())
        error(I, "load of non-scalar type (aggregates are accessed via GEP)");
      break;
    }
    case ValueKind::Store: {
      const auto &S = cast<StoreInst>(I);
      if (!S.pointer()->type()->isPointer())
        error(I, "store to non-pointer");
      if (!S.value()->type()->isScalar())
        error(I, "store of non-scalar type");
      break;
    }
    case ValueKind::GEP: {
      const auto &G = cast<GEPInst>(I);
      if (!G.pointer()->type()->isPointer())
        error(I, "gep base is not a pointer");
      if (G.numIndices() == 0)
        error(I, "gep without indices");
      for (unsigned K = 0; K < G.numIndices(); ++K)
        if (!G.index(K)->type()->isInt())
          error(I, "gep index is not an integer");
      break;
    }
    case ValueKind::BinOp: {
      const auto &B = cast<BinOpInst>(I);
      if (B.lhs()->type() != B.rhs()->type())
        error(I, "binop operand type mismatch");
      if (!B.lhs()->type()->isInt())
        error(I, "binop on non-integer");
      break;
    }
    case ValueKind::ICmp: {
      const auto &C = cast<ICmpInst>(I);
      if (C.lhs()->type() != C.rhs()->type())
        error(I, "icmp operand type mismatch");
      break;
    }
    case ValueKind::Cast: {
      const auto &C = cast<CastInst>(I);
      Type *Src = C.source()->type();
      Type *Dst = I.type();
      switch (C.opcode()) {
      case CastInst::Op::Bitcast:
        if (!Src->isPointer() || !Dst->isPointer())
          error(I, "bitcast requires pointer operands");
        break;
      case CastInst::Op::PtrToInt:
        if (!Src->isPointer() || !Dst->isInt())
          error(I, "ptrtoint requires pointer source, int dest");
        break;
      case CastInst::Op::IntToPtr:
        if (!Src->isInt() || !Dst->isPointer())
          error(I, "inttoptr requires int source, pointer dest");
        break;
      case CastInst::Op::Trunc:
      case CastInst::Op::ZExt:
      case CastInst::Op::SExt:
        if (!Src->isInt() || !Dst->isInt())
          error(I, "integer cast on non-integers");
        break;
      }
      break;
    }
    case ValueKind::Phi: {
      const auto &P = cast<PhiInst>(I);
      if (P.numIncoming() == 0) {
        error(I, "phi with no incoming values");
        break;
      }
      for (unsigned K = 0; K < P.numIncoming(); ++K) {
        if (P.incomingValue(K)->type() != I.type())
          error(I, "phi incoming type mismatch");
        if (!Blocks.count(P.incomingBlock(K)))
          error(I, "phi incoming block not in function");
      }
      auto PIt = Preds.find(I.parent());
      const std::set<const BasicBlock *> Empty;
      const auto &BBPreds = PIt == Preds.end() ? Empty : PIt->second;
      std::set<const BasicBlock *> Incoming;
      for (unsigned K = 0; K < P.numIncoming(); ++K)
        Incoming.insert(P.incomingBlock(K));
      if (Incoming != BBPreds)
        error(I, "phi incoming blocks do not match predecessors");
      break;
    }
    case ValueKind::Call: {
      const auto &C = cast<CallInst>(I);
      const FunctionType *FTy = C.calleeType();
      if (C.numArgs() < FTy->numParams() ||
          (C.numArgs() > FTy->numParams() && !FTy->isVarArg()))
        error(I, "call argument count mismatch");
      for (unsigned K = 0; K < FTy->numParams() && K < C.numArgs(); ++K)
        if (C.arg(K)->type() != FTy->param(K))
          error(I, "call argument " + std::to_string(K) + " type mismatch");
      if (!FTy->returnType()->isVoid() && I.type() != FTy->returnType())
        error(I, "call result type mismatch");
      break;
    }
    case ValueKind::Ret: {
      const auto &R = cast<RetInst>(I);
      Type *RetTy = F.returnType();
      if (RetTy->isVoid()) {
        if (R.hasValue())
          error(I, "value returned from void function");
      } else if (!R.hasValue()) {
        error(I, "missing return value");
      } else if (R.value()->type() != RetTy) {
        error(I, "return type mismatch");
      }
      break;
    }
    case ValueKind::Br: {
      const auto &B = cast<BrInst>(I);
      for (unsigned K = 0; K < B.numSuccessors(); ++K)
        if (!Blocks.count(B.successor(K)))
          error(I, "branch to block outside function");
      if (B.isConditional() && B.condition()->type() != Ctx1())
        error(I, "branch condition is not i1");
      break;
    }
    case ValueKind::MakeBounds: {
      const auto &B = cast<MakeBoundsInst>(I);
      for (Value *Op : {B.base(), B.bound()})
        if (!Op->type()->isPointer() && !Op->type()->isInt())
          error(I, "make.bounds operand must be pointer or integer");
      break;
    }
    case ValueKind::SpatialCheck: {
      const auto &C = cast<SpatialCheckInst>(I);
      if (!C.pointer()->type()->isPointer())
        error(I, "spatial.check on non-pointer");
      if (!C.bounds()->type()->isBounds())
        error(I, "spatial.check bounds operand is not bounds-typed");
      if (C.numOperands() > 3)
        error(I, "spatial.check with more than one guard operand");
      if (const Value *G = C.guard(); G && G->type() != Ctx1())
        error(I, "spatial.check guard is not i1");
      break;
    }
    case ValueKind::FuncPtrCheck:
      if (!cast<FuncPtrCheckInst>(I).bounds()->type()->isBounds())
        error(I, "funcptr.check bounds operand is not bounds-typed");
      break;
    case ValueKind::MetaLoad:
      if (!cast<MetaLoadInst>(I).address()->type()->isPointer())
        error(I, "meta.load address is not a pointer");
      if (!I.type()->isBounds())
        error(I, "meta.load result is not bounds-typed");
      if (F.isUninstrumented())
        error(I, "meta.load inside uninstrumented function");
      break;
    case ValueKind::MetaStore: {
      const auto &MS = cast<MetaStoreInst>(I);
      if (!MS.address()->type()->isPointer())
        error(I, "meta.store address is not a pointer");
      if (!MS.bounds()->type()->isBounds())
        error(I, "meta.store bounds operand is not bounds-typed");
      if (F.isUninstrumented())
        error(I, "meta.store inside uninstrumented function");
      break;
    }
    case ValueKind::PackPB: {
      const auto &P = cast<PackPBInst>(I);
      if (!P.pointer()->type()->isPointer())
        error(I, "pack.pb pointer operand is not a pointer");
      if (!P.bounds()->type()->isBounds())
        error(I, "pack.pb bounds operand is not bounds-typed");
      break;
    }
    case ValueKind::ExtractPtr:
      if (!cast<ExtractPtrInst>(I).pair()->type()->isPtrPair())
        error(I, "extract.ptr operand is not a ptrpair");
      break;
    case ValueKind::ExtractBounds:
      if (!cast<ExtractBoundsInst>(I).pair()->type()->isPtrPair())
        error(I, "extract.bounds operand is not a ptrpair");
      break;
    default:
      break;
    }
  }

  /// The i1 type of the module's context (via any operand's context — we
  /// detect i1 by structural check instead to avoid threading the context).
  const Type *Ctx1() const {
    // i1 is unique per context; find it via the condition's own type check.
    // The caller compares pointers, so return the condition type when it is
    // an i1, forcing a mismatch otherwise.
    return I1Probe;
  }

  const Function &F;
  std::vector<std::string> &Errors;
  std::set<const BasicBlock *> Blocks;
  std::set<const Value *> Defined;
  std::map<const BasicBlock *, std::set<const BasicBlock *>> Preds;
  const Type *I1Probe = nullptr;

public:
  void setI1(const Type *T) { I1Probe = T; }
};

} // namespace

void softbound::verifyFunction(const Function &F,
                               std::vector<std::string> &Errors) {
  FunctionVerifier V(F, Errors);
  V.setI1(F.parent() ? F.parent()->ctx().i1() : nullptr);
  V.run();
}

std::vector<std::string> softbound::verifyModule(const Module &M) {
  std::vector<std::string> Errors;
  for (const auto &F : M.functions())
    verifyFunction(*F, Errors);

  // Profiling-site consistency (Module::assignCheckSites): a site ID may
  // only appear on a check/metadata instruction, must index the module's
  // site table with the recorded kind, and must be unique module-wide —
  // the VM's per-site profile indexes a dense array with it. Modules
  // that never ran site assignment (every ID -1) pass vacuously.
  std::set<int> SeenSites;
  for (const auto &F : M.functions())
    for (const auto &BB : F->blocks())
      for (const auto &I : *BB) {
        if (I->site() < 0)
          continue;
        std::string Where =
            "in @" + F->name() + ": site " + std::to_string(I->site());
        if (!Module::isSiteKind(I->kind()))
          Errors.push_back(Where + " on a non-check instruction '" +
                           printInstruction(*I) + "'");
        else if (static_cast<size_t>(I->site()) >= M.checkSites().size())
          Errors.push_back(Where + " outside the module site table (" +
                           std::to_string(M.checkSites().size()) +
                           " entries)");
        else if (!SeenSites.insert(I->site()).second)
          Errors.push_back(Where + " assigned to more than one instruction");
        else if (M.checkSites()[I->site()].Kind != I->kind())
          Errors.push_back(Where + " ('" +
                           M.checkSites()[I->site()].Name +
                           "') kind disagrees with the site table");
      }
  return Errors;
}
