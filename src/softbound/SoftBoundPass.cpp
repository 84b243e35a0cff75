//===- softbound/SoftBoundPass.cpp - the SoftBound transformation -----------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "softbound/SoftBoundPass.h"

#include "opt/Dominators.h"
#include "opt/Passes.h"
#include "support/Compiler.h"

#include <map>
#include <set>

using namespace softbound;

namespace {

/// True if values of \p Ty can contain pointers (drives the §5.2 memcpy
/// metadata inference).
bool typeContainsPointer(const Type *Ty) {
  if (Ty->isPointer())
    return true;
  if (const auto *AT = dyn_cast<ArrayType>(Ty))
    return typeContainsPointer(AT->element());
  if (const auto *ST = dyn_cast<StructType>(Ty)) {
    for (unsigned I = 0; I < ST->numFields(); ++I)
      if (typeContainsPointer(ST->field(I)))
        return true;
  }
  return false;
}

/// The whole-module transformation driver.
class SoftBoundTransform {
public:
  SoftBoundTransform(Module &M, const SoftBoundConfig &Cfg)
      : M(M), Ctx(M.ctx()), Cfg(Cfg) {}

  SoftBoundStats run();

private:
  //===--------------------------------------------------------------------===//
  // Phase 1: signature rewriting (§3.3)
  //===--------------------------------------------------------------------===//

  void rewriteSignature(Function &F);
  FunctionType *transformedType(FunctionType *FTy);

  //===--------------------------------------------------------------------===//
  // Phase 2: per-function instrumentation
  //===--------------------------------------------------------------------===//

  void instrumentFunction(Function &F);

  /// Returns the bounds SSA value for pointer \p V, materializing constant
  /// bounds in the entry block on first use.
  Value *getBounds(Value *V);

  /// Inserts \p I before \p Where in \p BB, marks it synthetic (so the
  /// walk does not re-instrument it), and returns it.
  template <typename T>
  T *insertBefore(BasicBlock *BB, BasicBlock::iterator Where, T *I) {
    Synthetic.insert(I);
    BB->insertBefore(Where, std::unique_ptr<Instruction>(I));
    return I;
  }

  Value *makeNullBounds();
  Value *makeUnboundedBounds();

  // Per-instruction handlers; each may insert around *It and may erase the
  // current instruction (returning the next iterator position).
  void handleAlloca(AllocaInst *AI, BasicBlock *BB, BasicBlock::iterator It);
  void handleLoad(LoadInst *LI, BasicBlock *BB, BasicBlock::iterator It);
  void handleStore(StoreInst *SI, BasicBlock *BB, BasicBlock::iterator It);
  void handleGEP(GEPInst *GI, BasicBlock *BB, BasicBlock::iterator It);
  void handleCast(CastInst *CI);
  void handleSelect(SelectInst *SI, BasicBlock *BB, BasicBlock::iterator It);
  void handlePhi(PhiInst *PI, BasicBlock *BB, BasicBlock::iterator It);
  void handleRet(RetInst *RI, BasicBlock *BB, BasicBlock::iterator It);
  BasicBlock::iterator handleCall(CallInst *CI, BasicBlock *BB,
                                  BasicBlock::iterator It);
  BasicBlock::iterator handleBuiltinCall(CallInst *CI, Function *Callee,
                                         BasicBlock *BB,
                                         BasicBlock::iterator It);

  Function *getWrapper(const std::string &Name, Type *Ret,
                       std::vector<Type *> Params);

  Module &M;
  TypeContext &Ctx;
  const SoftBoundConfig &Cfg;
  SoftBoundStats Stats;

  // Phase-1 records.
  struct FnInfo {
    Type *OrigRetTy = nullptr;
    unsigned OrigNumParams = 0;
  };
  std::map<Function *, FnInfo> Transformed;
  std::map<FunctionType *, FunctionType *> TypeCache;

  // Phase-2 per-function state.
  std::set<Instruction *> Synthetic;
  Function *CurF = nullptr;
  std::map<Value *, Value *> BoundsOf;
  std::map<Value *, Value *> ConstBoundsCache;
  std::vector<std::pair<PhiInst *, PhiInst *>> PendingPhis; // ptr-phi, b-phi
  Value *NullBounds = nullptr;
  Value *UnboundedBounds = nullptr;
};

//===----------------------------------------------------------------------===//
// Phase 1
//===----------------------------------------------------------------------===//

FunctionType *SoftBoundTransform::transformedType(FunctionType *FTy) {
  auto It = TypeCache.find(FTy);
  if (It != TypeCache.end())
    return It->second;
  std::vector<Type *> Params(FTy->params());
  for (auto *P : FTy->params())
    if (P->isPointer())
      Params.push_back(Ctx.boundsTy());
  Type *Ret = FTy->returnType()->isPointer() ? Ctx.ptrPairTy()
                                             : FTy->returnType();
  FunctionType *NewTy = Ctx.funcTy(Ret, std::move(Params), FTy->isVarArg());
  TypeCache[FTy] = NewTy;
  return NewTy;
}

void SoftBoundTransform::rewriteSignature(Function &F) {
  FnInfo Info;
  Info.OrigRetTy = F.returnType();
  Info.OrigNumParams = F.numArgs();

  FunctionType *NewTy = transformedType(F.functionType());
  // Append one bounds argument per original pointer argument, in order.
  for (unsigned I = 0; I < Info.OrigNumParams; ++I) {
    if (!F.arg(I)->type()->isPointer())
      continue;
    F.appendArg(Ctx.boundsTy(), F.arg(I)->name() + ".bounds", NewTy);
  }
  F.setFunctionType(NewTy);
  M.renameFunction(&F, "_sb_" + F.name());
  F.setTransformed();
  Transformed[&F] = Info;
  ++Stats.FunctionsTransformed;
}

//===----------------------------------------------------------------------===//
// Bounds sources
//===----------------------------------------------------------------------===//

Value *SoftBoundTransform::makeNullBounds() {
  if (!NullBounds) {
    auto *MB = new MakeBoundsInst(Ctx.boundsTy(), M.constI64(0),
                                  M.constI64(0), "nullb");
    Synthetic.insert(MB);
    BasicBlock *Entry = CurF->entry();
    Entry->insertBefore(Entry->begin(), std::unique_ptr<Instruction>(MB));
    NullBounds = MB;
  }
  return NullBounds;
}

Value *SoftBoundTransform::makeUnboundedBounds() {
  if (!UnboundedBounds) {
    auto *MB = new MakeBoundsInst(Ctx.boundsTy(), M.constI64(0),
                                  M.constI64(INT64_MAX), "unboundb");
    Synthetic.insert(MB);
    BasicBlock *Entry = CurF->entry();
    Entry->insertBefore(Entry->begin(), std::unique_ptr<Instruction>(MB));
    UnboundedBounds = MB;
  }
  return UnboundedBounds;
}

Value *SoftBoundTransform::getBounds(Value *V) {
  auto It = BoundsOf.find(V);
  if (It != BoundsOf.end())
    return It->second;

  // Constants: materialize in the entry block once per function.
  auto CIt = ConstBoundsCache.find(V);
  if (CIt != ConstBoundsCache.end())
    return CIt->second;

  BasicBlock *Entry = CurF->entry();
  auto InsertEntry = [&](Instruction *I) {
    Synthetic.insert(I);
    Entry->insertBefore(Entry->begin(), std::unique_ptr<Instruction>(I));
    return I;
  };

  if (auto *G = dyn_cast<GlobalVariable>(V)) {
    // Global objects: base = &g, bound = &g + sizeof(g) (§3.1).
    auto *End = new GEPInst(Ctx.ptrTo(G->valueType()), G->valueType(), G,
                            {M.constI64(1)}, G->name() + ".end");
    auto *MB =
        new MakeBoundsInst(Ctx.boundsTy(), G, End, G->name() + ".bnd");
    InsertEntry(MB);
    InsertEntry(End); // Inserted before MB (both prepend to entry).
    ConstBoundsCache[V] = MB;
    return MB;
  }
  if (auto *F = dyn_cast<Function>(V)) {
    // Function pointers use the base == bound == ptr encoding (§5.2).
    auto *MB = new MakeBoundsInst(Ctx.boundsTy(), F, F, F->name() + ".fb");
    InsertEntry(MB);
    ConstBoundsCache[V] = MB;
    return MB;
  }
  if (isa<ConstantNull>(V) || isa<ConstantUndef>(V)) {
    ConstBoundsCache[V] = makeNullBounds();
    return ConstBoundsCache[V];
  }

  // Non-constant pointer without recorded bounds: conservative null bounds
  // (any dereference traps). This matches the paper's default for pointers
  // manufactured from integers (§5.2).
  return makeNullBounds();
}

//===----------------------------------------------------------------------===//
// Instruction handlers
//===----------------------------------------------------------------------===//

void SoftBoundTransform::handleAlloca(AllocaInst *AI, BasicBlock *BB,
                                      BasicBlock::iterator It) {
  auto Next = std::next(It);
  auto *End = insertBefore(
      BB, Next,
      new GEPInst(Ctx.ptrTo(AI->allocatedType()), AI->allocatedType(), AI,
                  {M.constI64(1)}, AI->name() + ".end"));
  auto *MB = insertBefore(BB, Next,
                          new MakeBoundsInst(Ctx.boundsTy(), AI, End,
                                             AI->name() + ".bnd"));
  BoundsOf[AI] = MB;
}

void SoftBoundTransform::handleLoad(LoadInst *LI, BasicBlock *BB,
                                    BasicBlock::iterator It) {
  Value *Ptr = LI->pointer();
  // Scalar local/global direct accesses are not C-level pointer
  // dereferences; the compiler generates them correctly (§3.1).
  bool DirectScalar = isa<AllocaInst>(Ptr) || isa<GlobalVariable>(Ptr);
  if (!DirectScalar && Cfg.Mode == CheckMode::Full) {
    insertBefore(BB, It,
                 new SpatialCheckInst(Ctx.voidTy(), Ptr, getBounds(Ptr),
                                      LI->type()->sizeInBytes(),
                                      /*IsStore=*/false));
    ++Stats.ChecksInserted;
  }
  if (LI->type()->isPointer()) {
    // §3.2: pointer load pulls bounds from the disjoint metadata space.
    auto *ML = insertBefore(BB, std::next(It),
                            new MetaLoadInst(Ctx.boundsTy(), Ptr,
                                             LI->name() + ".mb"));
    BoundsOf[LI] = ML;
    ++Stats.MetaLoadsInserted;
  }
}

void SoftBoundTransform::handleStore(StoreInst *SI, BasicBlock *BB,
                                     BasicBlock::iterator It) {
  Value *Ptr = SI->pointer();
  bool DirectScalar = isa<AllocaInst>(Ptr) || isa<GlobalVariable>(Ptr);
  if (!DirectScalar) {
    insertBefore(BB, It,
                 new SpatialCheckInst(Ctx.voidTy(), Ptr, getBounds(Ptr),
                                      SI->value()->type()->sizeInBytes(),
                                      /*IsStore=*/true));
    ++Stats.ChecksInserted;
  }
  if (SI->value()->type()->isPointer()) {
    // §3.2: pointer store records bounds in the disjoint metadata space.
    insertBefore(BB, std::next(It),
                 new MetaStoreInst(Ctx.voidTy(), Ptr,
                                   getBounds(SI->value())));
    ++Stats.MetaStoresInserted;
  }
}

void SoftBoundTransform::handleGEP(GEPInst *GI, BasicBlock *BB,
                                   BasicBlock::iterator It) {
  // §3.1: pointer arithmetic inherits bounds — except struct-field
  // derivations, which shrink to the field (sub-object protection): the
  // index prefix ending at the last struct-field step gives the bounds
  // [&field, &field + sizeof(field)).
  unsigned LastStructStep = Cfg.ShrinkBounds ? GI->lastFieldStep() : 0;
  if (LastStructStep == 0) {
    BoundsOf[GI] = getBounds(GI->pointer());
    return;
  }

  std::vector<Value *> Prefix;
  for (unsigned K = 0; K <= LastStructStep; ++K)
    Prefix.push_back(GI->index(K));
  Type *FieldTy = GEPInst::resultElementType(GI->sourceType(), Prefix);

  auto Next = std::next(It);
  auto *FieldBase = insertBefore(
      BB, Next,
      new GEPInst(Ctx.ptrTo(FieldTy), GI->sourceType(), GI->pointer(),
                  Prefix, GI->name() + ".fbase"));
  auto *FieldEnd = insertBefore(
      BB, Next,
      new GEPInst(Ctx.ptrTo(FieldTy), FieldTy, FieldBase, {M.constI64(1)},
                  GI->name() + ".fend"));
  auto *MB = insertBefore(BB, Next,
                          new MakeBoundsInst(Ctx.boundsTy(), FieldBase,
                                             FieldEnd, GI->name() + ".fbnd"));
  BoundsOf[GI] = MB;
  ++Stats.BoundsShrunk;
}

void SoftBoundTransform::handleCast(CastInst *CI) {
  if (!CI->type()->isPointer())
    return;
  if (CI->opcode() == CastInst::Op::Bitcast) {
    // Arbitrary pointer casts keep their bounds — the disjoint metadata
    // cannot be coerced (§5.2 "arbitrary casts and unions").
    BoundsOf[CI] = getBounds(CI->source());
    return;
  }
  // inttoptr: null bounds by default; __setbound is the escape hatch (§5.2).
  BoundsOf[CI] = makeNullBounds();
}

void SoftBoundTransform::handleSelect(SelectInst *SI, BasicBlock *BB,
                                      BasicBlock::iterator It) {
  if (!SI->type()->isPointer())
    return;
  auto *BSel = insertBefore(
      BB, std::next(It),
      new SelectInst(SI->condition(), getBounds(SI->ifTrue()),
                     getBounds(SI->ifFalse()), SI->name() + ".bsel"));
  BoundsOf[SI] = BSel;
}

void SoftBoundTransform::handlePhi(PhiInst *PI, BasicBlock *BB,
                                   BasicBlock::iterator It) {
  if (!PI->type()->isPointer())
    return;
  // Create the bounds phi now; fill incoming values after the full walk.
  auto *BPhi = new PhiInst(Ctx.boundsTy(), PI->name() + ".bphi");
  Synthetic.insert(BPhi);
  BB->insertBefore(std::next(It), std::unique_ptr<Instruction>(BPhi));
  BoundsOf[PI] = BPhi;
  PendingPhis.emplace_back(PI, BPhi);
}

void SoftBoundTransform::handleRet(RetInst *RI, BasicBlock *BB,
                                   BasicBlock::iterator It) {
  const FnInfo &Info = Transformed.at(CurF);
  if (!Info.OrigRetTy->isPointer() || !RI->hasValue())
    return;
  Value *V = RI->value();
  auto *Pack = insertBefore(BB, It,
                            new PackPBInst(Ctx.ptrPairTy(), V, getBounds(V),
                                           "retpp"));
  RI->setOp(0, Pack);
}

Function *SoftBoundTransform::getWrapper(const std::string &Name, Type *Ret,
                                         std::vector<Type *> Params) {
  if (Function *F = M.getFunction(Name))
    return F;
  return M.createFunction(Name, Ctx.funcTy(Ret, std::move(Params)),
                          /*Builtin=*/true);
}

BasicBlock::iterator
SoftBoundTransform::handleBuiltinCall(CallInst *CI, Function *Callee,
                                      BasicBlock *BB,
                                      BasicBlock::iterator It) {
  const std::string &Name = Callee->name();
  Type *I8P = Ctx.ptrTo(Ctx.i8());
  Type *BT = Ctx.boundsTy();
  auto Next = std::next(It);

  auto ReplaceCall = [&](Function *NewCallee,
                         std::vector<Value *> Args) -> CallInst * {
    auto *NewCI = new CallInst(NewCallee->functionType(), NewCallee,
                               std::move(Args),
                               NewCallee->functionType()->returnType(),
                               CI->name());
    insertBefore(BB, It, NewCI);
    CurF->replaceAllUsesWith(CI, NewCI);
    return NewCI;
  };

  if (Name == "malloc") {
    // §3.1 "creating pointers": bounds from the allocation size, null
    // bounds when malloc fails.
    Value *Size = CI->arg(0);
    auto *End = insertBefore(BB, Next,
                             new GEPInst(cast<PointerType>(I8P), Ctx.i8(), CI,
                                         {Size}, "m.end"));
    auto *MB = insertBefore(
        BB, Next, new MakeBoundsInst(BT, CI, End, "m.bnd"));
    auto *IsNull = insertBefore(
        BB, Next,
        new ICmpInst(ICmpInst::Pred::EQ, CI,
                     M.nullPtr(cast<PointerType>(CI->type())), Ctx.i1(),
                     "m.isnull"));
    auto *Sel = insertBefore(
        BB, Next,
        new SelectInst(IsNull, makeNullBounds(), MB, "m.bsel"));
    BoundsOf[CI] = Sel;
    return Next;
  }
  if (Name == "free")
    return Next; // The runtime clears metadata on free (§5.2).

  if (Name == "memcpy") {
    Value *Dst = CI->arg(0), *Src = CI->arg(1), *N = CI->arg(2);
    // §5.2 inference: look through the cast at the call site to decide
    // whether the copied data can contain pointers.
    bool MayHavePointers = true;
    if (Cfg.InferMemcpyPointerFree) {
      Value *Probe = Src;
      if (auto *BC = dyn_cast<CastInst>(Probe);
          BC && BC->opcode() == CastInst::Op::Bitcast)
        Probe = BC->source();
      if (auto *PT = dyn_cast<PointerType>(Probe->type()))
        MayHavePointers = typeContainsPointer(PT->pointee());
    }
    Function *W = getWrapper(MayHavePointers ? "_sb_memcpy"
                                             : "_sb_memcpy_nometa",
                             I8P, {I8P, I8P, Ctx.i64(), BT, BT});
    CallInst *NewCI =
        ReplaceCall(W, {Dst, Src, N, getBounds(Dst), getBounds(Src)});
    BoundsOf[NewCI] = getBounds(Dst);
    ++Stats.CallsRewritten;
    return BB->erase(It);
  }
  if (Name == "memset") {
    Value *Dst = CI->arg(0);
    Function *W =
        getWrapper("_sb_memset", I8P, {I8P, Ctx.i32(), Ctx.i64(), BT});
    CallInst *NewCI =
        ReplaceCall(W, {Dst, CI->arg(1), CI->arg(2), getBounds(Dst)});
    BoundsOf[NewCI] = getBounds(Dst);
    ++Stats.CallsRewritten;
    return BB->erase(It);
  }
  if (Name == "strcpy" || Name == "strcat") {
    Value *Dst = CI->arg(0), *Src = CI->arg(1);
    Function *W = getWrapper("_sb_" + Name, I8P, {I8P, I8P, BT, BT});
    CallInst *NewCI =
        ReplaceCall(W, {Dst, Src, getBounds(Dst), getBounds(Src)});
    BoundsOf[NewCI] = getBounds(Dst);
    ++Stats.CallsRewritten;
    return BB->erase(It);
  }
  if (Name == "strcmp") {
    Function *W = getWrapper("_sb_strcmp", Ctx.i32(), {I8P, I8P, BT, BT});
    ReplaceCall(W, {CI->arg(0), CI->arg(1), getBounds(CI->arg(0)),
                    getBounds(CI->arg(1))});
    ++Stats.CallsRewritten;
    return BB->erase(It);
  }
  if (Name == "strlen") {
    Function *W = getWrapper("_sb_strlen", Ctx.i64(), {I8P, BT});
    ReplaceCall(W, {CI->arg(0), getBounds(CI->arg(0))});
    ++Stats.CallsRewritten;
    return BB->erase(It);
  }
  if (Name == "setjmp" || Name == "longjmp") {
    // jmp_buf is written (setjmp) / read (longjmp) as a 32-byte object.
    bool IsStore = Name == "setjmp";
    if (IsStore || Cfg.Mode == CheckMode::Full) {
      insertBefore(BB, It,
                   new SpatialCheckInst(Ctx.voidTy(), CI->arg(0),
                                        getBounds(CI->arg(0)), 32, IsStore));
      ++Stats.ChecksInserted;
    }
    return Next;
  }
  if (Name == "__setbound") {
    // setbound(p, n): p with bounds [p, p+n) (§5.2 escape hatch).
    Value *P = CI->arg(0);
    auto *End = insertBefore(BB, Next,
                             new GEPInst(cast<PointerType>(I8P), Ctx.i8(), CI,
                                         {CI->arg(1)}, "sb.end"));
    auto *MB = insertBefore(BB, Next,
                            new MakeBoundsInst(BT, CI, End, "sb.bnd"));
    (void)P;
    BoundsOf[CI] = MB;
    return Next;
  }
  if (Name == "__unbound") {
    BoundsOf[CI] = makeUnboundedBounds();
    return Next;
  }

  // Remaining builtins (print_*, exit, sb_rand, …) take no checked
  // pointers; pointer results (none today) would get null bounds.
  if (CI->type()->isPointer())
    BoundsOf[CI] = makeNullBounds();
  return Next;
}

BasicBlock::iterator SoftBoundTransform::handleCall(CallInst *CI,
                                                    BasicBlock *BB,
                                                    BasicBlock::iterator It) {
  Function *Callee = CI->calledFunction();
  if (Callee && (Callee->isBuiltin() || !Callee->isDefinition()))
    return handleBuiltinCall(CI, Callee, BB, It);

  // Indirect calls are checked against the function-pointer encoding.
  if (!Callee) {
    insertBefore(BB, It,
                 new FuncPtrCheckInst(Ctx.voidTy(), CI->callee(),
                                      getBounds(CI->callee())));
    ++Stats.FuncPtrChecksInserted;
  }

  // Build the transformed argument list: originals, then bounds for each
  // pointer argument in order (§3.3).
  FunctionType *OldTy = CI->calleeType();
  FunctionType *NewTy =
      Callee ? Callee->functionType() : transformedType(OldTy);

  std::vector<Value *> Args;
  for (unsigned I = 0; I < CI->numArgs(); ++I)
    Args.push_back(CI->arg(I));
  for (unsigned I = 0; I < CI->numArgs(); ++I)
    if (CI->arg(I)->type()->isPointer())
      Args.push_back(getBounds(CI->arg(I)));

  Type *NewRetTy = NewTy->returnType();
  auto *NewCI = new CallInst(NewTy, CI->callee(), std::move(Args), NewRetTy,
                             CI->name());
  insertBefore(BB, It, NewCI);
  ++Stats.CallsRewritten;

  if (OldTy->returnType()->isPointer()) {
    auto *EP = insertBefore(
        BB, It,
        new ExtractPtrInst(cast<PointerType>(OldTy->returnType()), NewCI,
                           CI->name() + ".p"));
    auto *EB = insertBefore(BB, It,
                            new ExtractBoundsInst(Ctx.boundsTy(), NewCI,
                                                  CI->name() + ".b"));
    CurF->replaceAllUsesWith(CI, EP);
    BoundsOf[EP] = EB;
  } else {
    CurF->replaceAllUsesWith(CI, NewCI);
  }
  return BB->erase(It);
}

//===----------------------------------------------------------------------===//
// Per-function driver
//===----------------------------------------------------------------------===//

void SoftBoundTransform::instrumentFunction(Function &F) {
  CurF = &F;
  Synthetic.clear();
  BoundsOf.clear();
  ConstBoundsCache.clear();
  PendingPhis.clear();
  NullBounds = nullptr;
  UnboundedBounds = nullptr;

  const FnInfo &Info = Transformed.at(&F);

  // Bind pointer parameters to their bounds parameters.
  unsigned BoundsIdx = Info.OrigNumParams;
  for (unsigned I = 0; I < Info.OrigNumParams; ++I) {
    if (!F.arg(I)->type()->isPointer())
      continue;
    BoundsOf[F.arg(I)] = F.arg(BoundsIdx++);
  }

  // Walk blocks in reverse postorder so defs are seen before (non-phi)
  // uses; SSA dominance guarantees operand bounds exist when needed.
  for (BasicBlock *BB : reversePostorder(F)) {
    for (auto It = BB->begin(); It != BB->end();) {
      Instruction *I = It->get();
      if (Synthetic.count(I)) {
        ++It;
        continue;
      }
      switch (I->kind()) {
      case ValueKind::Alloca:
        handleAlloca(cast<AllocaInst>(I), BB, It);
        ++It;
        break;
      case ValueKind::Load:
        handleLoad(cast<LoadInst>(I), BB, It);
        ++It;
        break;
      case ValueKind::Store:
        handleStore(cast<StoreInst>(I), BB, It);
        ++It;
        break;
      case ValueKind::GEP:
        handleGEP(cast<GEPInst>(I), BB, It);
        ++It;
        break;
      case ValueKind::Cast:
        handleCast(cast<CastInst>(I));
        ++It;
        break;
      case ValueKind::Select:
        handleSelect(cast<SelectInst>(I), BB, It);
        ++It;
        break;
      case ValueKind::Phi:
        handlePhi(cast<PhiInst>(I), BB, It);
        ++It;
        break;
      case ValueKind::Ret:
        handleRet(cast<RetInst>(I), BB, It);
        ++It;
        break;
      case ValueKind::Call:
        It = handleCall(cast<CallInst>(I), BB, It);
        break;
      default:
        ++It;
        break;
      }
    }
  }

  // Fill the deferred bounds phis.
  for (auto &[PtrPhi, BPhi] : PendingPhis)
    for (unsigned K = 0; K < PtrPhi->numIncoming(); ++K)
      BPhi->addIncoming(getBounds(PtrPhi->incomingValue(K)),
                        PtrPhi->incomingBlock(K));
}

//===----------------------------------------------------------------------===//
// Module driver
//===----------------------------------------------------------------------===//

SoftBoundStats SoftBoundTransform::run() {
  // Phase 1: rewrite all signatures first so call rewrites see final types.
  std::vector<Function *> Work;
  for (const auto &F : M.functions()) {
    if (F->isBuiltin() || !F->isDefinition() || F->isTransformed())
      continue;
    Work.push_back(F.get());
  }
  for (Function *F : Work)
    rewriteSignature(*F);

  // Phase 2: instrument bodies.
  for (Function *F : Work)
    instrumentFunction(*F);

  // Phase 3: re-optimize (the paper re-runs LLVM's optimizers after
  // instrumentation, §6.1).
  if (Cfg.ReoptimizeAfter)
    Stats.ChecksEliminated = reoptimizeInstrumented(M);
  return Stats;
}

} // namespace

SoftBoundStats softbound::applySoftBound(Module &M,
                                         const SoftBoundConfig &Cfg) {
  SoftBoundTransform T(M, Cfg);
  return T.run();
}

//===----------------------------------------------------------------------===//
// `_sb_` calling-convention queries (§3.3)
//===----------------------------------------------------------------------===//

unsigned softbound::sbabi::originalParamCount(const Function &F) {
  if (!F.isTransformed())
    return F.numArgs();
  // Bounds parameters are appended, and the source language has no bounds
  // type, so the original list is everything before the trailing boundsTy
  // run.
  unsigned N = F.numArgs();
  while (N > 0 && F.arg(N - 1)->type()->isBounds())
    --N;
  return N;
}

int softbound::sbabi::boundsParamIndex(const Function &F, unsigned PtrParam) {
  if (!F.isTransformed())
    return -1;
  unsigned Orig = originalParamCount(F);
  if (PtrParam >= Orig || !F.arg(PtrParam)->type()->isPointer())
    return -1;
  unsigned Rank = 0; // Pointer parameters preceding PtrParam.
  for (unsigned I = 0; I < PtrParam; ++I)
    if (F.arg(I)->type()->isPointer())
      ++Rank;
  unsigned Idx = Orig + Rank;
  return Idx < F.numArgs() ? static_cast<int>(Idx) : -1;
}

Value *softbound::sbabi::passedBounds(const CallInst &Call,
                                      const Function &Callee,
                                      unsigned ArgIdx) {
  int Idx = boundsParamIndex(Callee, ArgIdx);
  if (Idx < 0 || Call.numArgs() != Callee.numArgs())
    return nullptr;
  return Call.arg(static_cast<unsigned>(Idx));
}
