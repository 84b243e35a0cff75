//===- ir/IRPrinter.cpp - textual IR dumping ------------------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"

#include "ir/Module.h"
#include "support/Compiler.h"

#include <map>

using namespace softbound;

namespace {

/// Assigns stable %N names to unnamed values while printing a function.
class NameMap {
public:
  std::string ref(const Value *V) {
    if (!V) // Only malformed IR has one; the verifier prints it to say so.
      return "<null>";
    if (const auto *CI = dyn_cast<ConstantInt>(V))
      return std::to_string(CI->value());
    if (isa<ConstantNull>(V))
      return "null";
    if (isa<ConstantUndef>(V))
      return "undef";
    if (const auto *G = dyn_cast<GlobalVariable>(V))
      return "@" + G->name();
    if (const auto *F = dyn_cast<Function>(V))
      return "@" + F->name();
    auto It = Names.find(V);
    if (It != Names.end())
      return It->second;
    std::string N = "%";
    if (!V->name().empty())
      N += V->name() + ".";
    N += std::to_string(Next++);
    Names[V] = N;
    return N;
  }

private:
  std::map<const Value *, std::string> Names;
  unsigned Next = 0;
};

/// A branch target or phi incoming block; null only in malformed IR.
std::string blockRef(const BasicBlock *BB) {
  return BB ? BB->name() : "<null>";
}

std::string typedRef(NameMap &NM, const Value *V) {
  return V ? V->type()->str() + " " + NM.ref(V) : NM.ref(V);
}

/// The ", site N" suffix carried by check/metadata instructions once
/// Module::assignCheckSites has run (empty before assignment), so textual
/// IR diffs and profile reports name the same sites.
std::string siteTag(const Instruction &I) {
  return I.site() >= 0 ? ", site " + std::to_string(I.site()) : std::string();
}

std::string renderInst(NameMap &NM, const Instruction &I) {
  std::string S = "  ";
  if (!I.type()->isVoid())
    S += NM.ref(&I) + " = ";

  switch (I.kind()) {
  case ValueKind::Alloca: {
    const auto &A = cast<AllocaInst>(I);
    S += "alloca " + A.allocatedType()->str();
    break;
  }
  case ValueKind::Load: {
    const auto &L = cast<LoadInst>(I);
    S += "load " + I.type()->str() + ", " + typedRef(NM, L.pointer());
    break;
  }
  case ValueKind::Store: {
    const auto &St = cast<StoreInst>(I);
    S += "store " + typedRef(NM, St.value()) + ", " +
         typedRef(NM, St.pointer());
    break;
  }
  case ValueKind::GEP: {
    const auto &G = cast<GEPInst>(I);
    S += "gep " + G.sourceType()->str() + ", " + typedRef(NM, G.pointer());
    for (unsigned K = 0; K < G.numIndices(); ++K)
      S += ", " + NM.ref(G.index(K));
    break;
  }
  case ValueKind::BinOp: {
    const auto &B = cast<BinOpInst>(I);
    S += std::string(BinOpInst::opcodeName(B.opcode())) + " " +
         typedRef(NM, B.lhs()) + ", " + NM.ref(B.rhs());
    break;
  }
  case ValueKind::ICmp: {
    const auto &C = cast<ICmpInst>(I);
    S += std::string("icmp ") + ICmpInst::predName(C.pred()) + " " +
         typedRef(NM, C.lhs()) + ", " + NM.ref(C.rhs());
    break;
  }
  case ValueKind::Cast: {
    const auto &C = cast<CastInst>(I);
    S += std::string(CastInst::opcodeName(C.opcode())) + " " +
         typedRef(NM, C.source()) + " to " + I.type()->str();
    break;
  }
  case ValueKind::Select: {
    const auto &Sel = cast<SelectInst>(I);
    S += "select " + NM.ref(Sel.condition()) + ", " +
         typedRef(NM, Sel.ifTrue()) + ", " + NM.ref(Sel.ifFalse());
    break;
  }
  case ValueKind::Phi: {
    const auto &P = cast<PhiInst>(I);
    S += "phi " + I.type()->str();
    for (unsigned K = 0; K < P.numIncoming(); ++K) {
      S += K ? ", [" : " [";
      S += NM.ref(P.incomingValue(K)) + ", " + blockRef(P.incomingBlock(K)) +
           "]";
    }
    break;
  }
  case ValueKind::Call: {
    const auto &C = cast<CallInst>(I);
    S += "call " + I.type()->str() + " " + NM.ref(C.callee()) + "(";
    for (unsigned K = 0; K < C.numArgs(); ++K) {
      if (K)
        S += ", ";
      S += typedRef(NM, C.arg(K));
    }
    S += ")";
    break;
  }
  case ValueKind::Ret: {
    const auto &R = cast<RetInst>(I);
    S += R.hasValue() ? "ret " + typedRef(NM, R.value()) : "ret void";
    break;
  }
  case ValueKind::Br: {
    const auto &B = cast<BrInst>(I);
    if (B.isConditional())
      S += "br " + NM.ref(B.condition()) + ", " + blockRef(B.successor(0)) +
           ", " + blockRef(B.successor(1));
    else
      S += "br " + blockRef(B.successor(0));
    break;
  }
  case ValueKind::Unreachable:
    S += "unreachable";
    break;
  case ValueKind::MakeBounds: {
    const auto &B = cast<MakeBoundsInst>(I);
    S += "make.bounds " + typedRef(NM, B.base()) + ", " +
         typedRef(NM, B.bound());
    break;
  }
  case ValueKind::SpatialCheck: {
    const auto &C = cast<SpatialCheckInst>(I);
    S += std::string("spatial.check ") + (C.isStoreCheck() ? "store " : "load ") +
         typedRef(NM, C.pointer()) + ", " + NM.ref(C.bounds()) + ", size " +
         std::to_string(C.accessSize());
    if (C.guard())
      S += ", if " + NM.ref(C.guard());
    S += siteTag(I);
    break;
  }
  case ValueKind::FuncPtrCheck: {
    const auto &C = cast<FuncPtrCheckInst>(I);
    S += "funcptr.check " + typedRef(NM, C.pointer()) + ", " +
         NM.ref(C.bounds()) + siteTag(I);
    break;
  }
  case ValueKind::MetaLoad: {
    const auto &ML = cast<MetaLoadInst>(I);
    S += "meta.load " + typedRef(NM, ML.address()) + siteTag(I);
    break;
  }
  case ValueKind::MetaStore: {
    const auto &MS = cast<MetaStoreInst>(I);
    S += "meta.store " + typedRef(NM, MS.address()) + ", " +
         NM.ref(MS.bounds()) + siteTag(I);
    break;
  }
  case ValueKind::PackPB: {
    const auto &P = cast<PackPBInst>(I);
    S += "pack.pb " + typedRef(NM, P.pointer()) + ", " + NM.ref(P.bounds());
    break;
  }
  case ValueKind::ExtractPtr:
    S += "extract.ptr " + NM.ref(cast<ExtractPtrInst>(I).pair()) + " to " +
         I.type()->str();
    break;
  case ValueKind::ExtractBounds:
    // Symmetric with extract.ptr: both component extractions name their
    // result type.
    S += "extract.bounds " + NM.ref(cast<ExtractBoundsInst>(I).pair()) +
         " to " + I.type()->str();
    break;
  default:
    sb_unreachable("non-instruction kind in renderInst");
  }
  return S;
}

} // namespace

std::string softbound::printInstruction(const Instruction &I) {
  NameMap NM;
  return renderInst(NM, I);
}

std::string softbound::printFunction(const Function &F) {
  NameMap NM;
  std::string S = F.isBuiltin() ? "declare " : "define ";
  S += F.returnType()->str() + " @" + F.name() + "(";
  for (unsigned I = 0; I < F.numArgs(); ++I) {
    if (I)
      S += ", ";
    S += F.arg(I)->type()->str() + " " + NM.ref(F.arg(I));
  }
  if (F.functionType()->isVarArg())
    S += F.numArgs() ? ", ..." : "...";
  S += ")";
  if (F.isUninstrumented())
    S += " uninstrumented";
  if (!F.isDefinition())
    return S + "\n";
  S += " {\n";
  for (const auto &BB : F.blocks()) {
    S += BB->name() + ":\n";
    for (const auto &I : *BB)
      S += renderInst(NM, *I) + "\n";
  }
  return S + "}\n";
}

std::string softbound::printModule(const Module &M) {
  std::string S;
  for (const auto &G : M.globals()) {
    S += "@" + G->name() + " = " +
         std::string(G->isConstant() ? "constant " : "global ") +
         G->valueType()->str() + " ; " +
         std::to_string(G->valueType()->sizeInBytes()) + " bytes";
    if (!G->initializer().Relocs.empty())
      S += ", " + std::to_string(G->initializer().Relocs.size()) + " relocs";
    S += "\n";
  }
  if (!M.globals().empty())
    S += "\n";
  for (const auto &F : M.functions()) {
    S += printFunction(*F);
    S += "\n";
  }
  return S;
}
