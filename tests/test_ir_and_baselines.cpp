//===- tests/test_ir_and_baselines.cpp - IR + baseline unit tests ----------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the IR substrate (type layout, verifier diagnostics)
/// and the baseline checkers (splay tree vs std::map oracle, red-zone
/// detection profile).
///
//===----------------------------------------------------------------------===//

#include "baselines/MemcheckLite.h"
#include "baselines/ObjectTableChecker.h"
#include "baselines/SplayTree.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <map>

using namespace softbound;

namespace {

//===----------------------------------------------------------------------===//
// Type layout
//===----------------------------------------------------------------------===//

TEST(TypeLayout, CLayoutRules) {
  TypeContext Ctx;
  EXPECT_EQ(Ctx.i8()->sizeInBytes(), 1u);
  EXPECT_EQ(Ctx.i32()->sizeInBytes(), 4u);
  EXPECT_EQ(Ctx.ptrTo(Ctx.i32())->sizeInBytes(), 8u);
  EXPECT_EQ(Ctx.arrayOf(Ctx.i32(), 10)->sizeInBytes(), 40u);

  // struct { char c; long l; int i; } -> offsets 0, 8, 16; size 24.
  StructType *S = Ctx.createStruct("s");
  S->setBody({Ctx.i8(), Ctx.i64(), Ctx.i32()}, {"c", "l", "i"},
             /*IsUnion=*/false);
  EXPECT_EQ(S->fieldOffset(0), 0u);
  EXPECT_EQ(S->fieldOffset(1), 8u);
  EXPECT_EQ(S->fieldOffset(2), 16u);
  EXPECT_EQ(S->structSize(), 24u);
  EXPECT_EQ(S->structAlign(), 8u);

  // Union: size of the largest member.
  StructType *U = Ctx.createStruct("u");
  U->setBody({Ctx.i8(), Ctx.i64()}, {"c", "l"}, /*IsUnion=*/true);
  EXPECT_EQ(U->fieldOffset(1), 0u);
  EXPECT_EQ(U->structSize(), 8u);
}

TEST(TypeLayout, InterningGivesPointerEquality) {
  TypeContext Ctx;
  EXPECT_EQ(Ctx.ptrTo(Ctx.i32()), Ctx.ptrTo(Ctx.i32()));
  EXPECT_EQ(Ctx.arrayOf(Ctx.i8(), 4), Ctx.arrayOf(Ctx.i8(), 4));
  EXPECT_NE(Ctx.arrayOf(Ctx.i8(), 4), Ctx.arrayOf(Ctx.i8(), 5));
  EXPECT_EQ(Ctx.funcTy(Ctx.i32(), {Ctx.i64()}),
            Ctx.funcTy(Ctx.i32(), {Ctx.i64()}));
}

//===----------------------------------------------------------------------===//
// Verifier diagnostics
//===----------------------------------------------------------------------===//

TEST(Verifier, CatchesMissingTerminator) {
  Module M;
  Function *F =
      M.createFunction("f", M.ctx().funcTy(M.ctx().voidTy(), {}));
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  B.makeBounds(M.constI64(0), M.constI64(0)); // No terminator.
  std::vector<std::string> Errors;
  verifyFunction(*F, Errors);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("terminator"), std::string::npos);
}

TEST(Verifier, CatchesTypeMismatches) {
  Module M;
  TypeContext &Ctx = M.ctx();
  Function *F = M.createFunction("f", Ctx.funcTy(Ctx.i32(), {}));
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  B.ret(M.constI64(0)); // i64 returned from an i32 function.
  std::vector<std::string> Errors;
  verifyFunction(*F, Errors);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("return type"), std::string::npos);
}

TEST(Verifier, CatchesBadSpatialCheckOperands) {
  Module M;
  TypeContext &Ctx = M.ctx();
  Function *F = M.createFunction("f", Ctx.funcTy(Ctx.voidTy(),
                                                 {Ctx.ptrTo(Ctx.i8())}));
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  // Bounds operand is an integer, not a bounds value.
  BB->append(std::make_unique<SpatialCheckInst>(
      Ctx.voidTy(), F->arg(0), M.constI64(5), 8, true));
  B.ret();
  std::vector<std::string> Errors;
  verifyFunction(*F, Errors);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("bounds"), std::string::npos);
}

/// True when some diagnostic contains \p Needle.
bool reports(const std::vector<std::string> &Errors,
             const std::string &Needle) {
  for (const std::string &E : Errors)
    if (E.find(Needle) != std::string::npos)
      return true;
  return false;
}

std::string joined(const std::vector<std::string> &Errors) {
  std::string S;
  for (const std::string &E : Errors)
    S += E + "\n";
  return S;
}

/// `f(i64 a)` with an entry block positioned for building.
struct VerifierFixture {
  Module M;
  Function *F = nullptr;
  BasicBlock *Entry = nullptr;
  IRBuilder B{M};

  VerifierFixture() {
    TypeContext &Ctx = M.ctx();
    F = M.createFunction("f", Ctx.funcTy(Ctx.voidTy(), {Ctx.i64()}));
    Entry = F->createBlock("entry");
    B.setInsertPoint(Entry);
  }
  std::vector<std::string> errors() const { return verifyModule(M); }
};

TEST(Verifier, CatchesOperandFromAnotherFunction) {
  VerifierFixture X;
  Function *G = X.M.createFunction(
      "g", X.M.ctx().funcTy(X.M.ctx().voidTy(), {X.M.ctx().i64()}));
  X.B.add(G->arg(0), X.M.constI64(1));
  X.B.ret();
  std::vector<std::string> Errors = X.errors();
  EXPECT_TRUE(
      reports(Errors, "in @f: operand 0 is not defined in this function"))
      << joined(Errors);
}

TEST(Verifier, CatchesUseAboveDefinitionInOneBlock) {
  VerifierFixture X;
  Instruction *First = X.B.binop(BinOpInst::Op::Add, X.F->arg(0),
                                 X.M.constI64(1), "first");
  Instruction *Second = X.B.binop(BinOpInst::Op::Add, X.F->arg(0),
                                  X.M.constI64(2), "second");
  First->setOp(1, Second);
  X.B.ret();
  std::vector<std::string> Errors = X.errors();
  EXPECT_TRUE(
      reports(Errors, "operand 1 is used before its definition in block entry"))
      << joined(Errors);
}

TEST(Verifier, CatchesNullOperand) {
  // A guarded check whose guard slot is empty: neither the printer nor
  // the typing rules read a missing guard, so only the operand rule fires.
  VerifierFixture X;
  TypeContext &Ctx = X.M.ctx();
  Value *P = X.B.castOp(CastInst::Op::IntToPtr, X.F->arg(0),
                        Ctx.ptrTo(Ctx.i8()), "p");
  Value *Bounds = X.B.makeBounds(X.M.constI64(0), X.M.constI64(64));
  Value *G = X.B.icmp(ICmpInst::Pred::SGT, X.F->arg(0), X.M.constI64(0));
  SpatialCheckInst *C = X.B.spatialCheck(P, Bounds, 8, true, G);
  C->setOp(2, nullptr);
  X.B.ret();
  std::vector<std::string> Errors = X.errors();
  EXPECT_TRUE(reports(Errors, "null operand 2")) << joined(Errors);
}

/// One instruction kind the typing rules read, built into an otherwise
/// valid module around `f(i64 a)`, and the operand the test nulls out.
struct NullOperandCase {
  const char *Kind;
  unsigned Operand;
  Instruction *(*Build)(VerifierFixture &X);
};

Value *ptrArg(VerifierFixture &X) {
  return X.B.castOp(CastInst::Op::IntToPtr, X.F->arg(0),
                    X.M.ctx().ptrTo(X.M.ctx().i8()), "p");
}
Value *bounds64(VerifierFixture &X) {
  return X.B.makeBounds(X.M.constI64(0), X.M.constI64(64));
}

const NullOperandCase NullOperandCases[] = {
    {"load", 0,
     [](VerifierFixture &X) -> Instruction * {
       return X.B.load(X.M.ctx().i8(), ptrArg(X));
     }},
    {"store", 0,
     [](VerifierFixture &X) -> Instruction * {
       Value *P = X.B.castOp(CastInst::Op::IntToPtr, X.F->arg(0),
                             X.M.ctx().ptrTo(X.M.ctx().i64()), "p");
       return X.B.store(X.F->arg(0), P);
     }},
    {"gep", 1,
     [](VerifierFixture &X) -> Instruction * {
       return X.B.gep(X.M.ctx().i8(), ptrArg(X), {X.F->arg(0)});
     }},
    {"add", 1,
     [](VerifierFixture &X) -> Instruction * {
       return X.B.binop(BinOpInst::Op::Add, X.F->arg(0), X.M.constI64(1));
     }},
    {"icmp", 1,
     [](VerifierFixture &X) -> Instruction * {
       return X.B.icmp(ICmpInst::Pred::SLT, X.F->arg(0), X.M.constI64(1));
     }},
    {"inttoptr", 0,
     [](VerifierFixture &X) -> Instruction * {
       return cast<Instruction>(ptrArg(X));
     }},
    {"phi", 0,
     [](VerifierFixture &X) -> Instruction * {
       BasicBlock *Join = X.F->createBlock("join");
       X.B.br(Join);
       X.B.setInsertPoint(Join);
       PhiInst *P = X.B.phi(X.M.ctx().i64());
       P->addIncoming(X.F->arg(0), X.Entry);
       X.B.ret();
       return P;
     }},
    {"call", 1,
     [](VerifierFixture &X) -> Instruction * {
       TypeContext &Ctx = X.M.ctx();
       Function *G =
           X.M.createFunction("g", Ctx.funcTy(Ctx.voidTy(), {Ctx.i64()}));
       return X.B.call(G, {X.F->arg(0)});
     }},
    {"ret", 0,
     [](VerifierFixture &X) -> Instruction * {
       TypeContext &Ctx = X.M.ctx();
       Function *G = X.M.createFunction("g", Ctx.funcTy(Ctx.i64(), {}));
       X.B.setInsertPoint(G->createBlock("entry"));
       return X.B.ret(X.M.constI64(0));
     }},
    {"br", 0,
     [](VerifierFixture &X) -> Instruction * {
       BasicBlock *T = X.F->createBlock("t");
       BasicBlock *E = X.F->createBlock("e");
       BrInst *Br = X.B.condBr(
           X.B.icmp(ICmpInst::Pred::SLT, X.F->arg(0), X.M.constI64(1)), T, E);
       X.B.setInsertPoint(T);
       X.B.ret();
       X.B.setInsertPoint(E);
       X.B.ret();
       return Br;
     }},
    {"make.bounds", 0,
     [](VerifierFixture &X) -> Instruction * {
       return cast<Instruction>(bounds64(X));
     }},
    {"spatial.check", 0,
     [](VerifierFixture &X) -> Instruction * {
       return X.B.spatialCheck(ptrArg(X), bounds64(X), 8, true);
     }},
    {"funcptr.check", 1,
     [](VerifierFixture &X) -> Instruction * {
       return X.B.funcPtrCheck(ptrArg(X), bounds64(X));
     }},
    {"meta.load", 0,
     [](VerifierFixture &X) -> Instruction * {
       return X.B.metaLoad(ptrArg(X));
     }},
    {"meta.store", 1,
     [](VerifierFixture &X) -> Instruction * {
       return X.B.metaStore(ptrArg(X), bounds64(X));
     }},
    {"pack.pb", 0,
     [](VerifierFixture &X) -> Instruction * {
       return X.B.packPB(ptrArg(X), bounds64(X));
     }},
    {"extract.ptr", 0,
     [](VerifierFixture &X) -> Instruction * {
       return X.B.extractPtr(X.M.ctx().ptrTo(X.M.ctx().i8()),
                             X.B.packPB(ptrArg(X), bounds64(X)));
     }},
    {"extract.bounds", 0,
     [](VerifierFixture &X) -> Instruction * {
       return X.B.extractBounds(X.B.packPB(ptrArg(X), bounds64(X)));
     }},
};

TEST(Verifier, ReportsANullOperandOfEveryTypedKindWithoutCrashing) {
  // The typing rules read operand types and the diagnostic prints the
  // instruction: both must survive the null the operand rule reports.
  for (const NullOperandCase &C : NullOperandCases) {
    SCOPED_TRACE(C.Kind);
    VerifierFixture X;
    Instruction *I = C.Build(X);
    X.B.setInsertPoint(X.Entry);
    if (!X.B.blockTerminated())
      X.B.ret();
    ASSERT_TRUE(X.errors().empty()) << joined(X.errors());
    I->setOp(C.Operand, nullptr);
    std::vector<std::string> Errors = X.errors();
    EXPECT_TRUE(reports(Errors, "null operand " + std::to_string(C.Operand)))
        << joined(Errors);
    EXPECT_TRUE(reports(Errors, "<null>")) << joined(Errors);
  }
}

TEST(Verifier, CatchesTerminatorInTheMiddleOfABlock) {
  VerifierFixture X;
  BasicBlock *Next = X.F->createBlock("next");
  X.B.br(Next);
  X.B.ret();
  X.B.setInsertPoint(Next);
  X.B.ret();
  std::vector<std::string> Errors = X.errors();
  EXPECT_TRUE(reports(Errors, "terminator in the middle of block entry"))
      << joined(Errors);
}

TEST(Verifier, CatchesPhiAfterNonPhi) {
  VerifierFixture X;
  BasicBlock *Join = X.F->createBlock("join");
  X.B.br(Join);
  X.B.setInsertPoint(Join);
  X.B.add(X.F->arg(0), X.M.constI64(1));
  auto *Phi = new PhiInst(X.M.ctx().i64(), "late");
  Phi->addIncoming(X.F->arg(0), X.Entry);
  Join->append(std::unique_ptr<Instruction>(Phi));
  X.B.ret();
  std::vector<std::string> Errors = X.errors();
  EXPECT_TRUE(reports(Errors, "phi after non-phi instruction"))
      << joined(Errors);
}

TEST(Verifier, CatchesPhiIncomingBlocksThatAreNotThePredecessors) {
  VerifierFixture X;
  BasicBlock *Other = X.F->createBlock("other");
  BasicBlock *Join = X.F->createBlock("join");
  X.B.br(Join);
  X.B.setInsertPoint(Other);
  X.B.ret();
  X.B.setInsertPoint(Join);
  PhiInst *Phi = X.B.phi(X.M.ctx().i64(), "p");
  Phi->addIncoming(X.F->arg(0), Other); // Join's only predecessor is entry.
  X.B.ret();
  std::vector<std::string> Errors = X.errors();
  EXPECT_TRUE(reports(Errors, "phi incoming blocks do not match predecessors"))
      << joined(Errors);
}

TEST(Verifier, CatchesBranchToAnotherFunctionsBlock) {
  VerifierFixture X;
  Function *G =
      X.M.createFunction("g", X.M.ctx().funcTy(X.M.ctx().voidTy(), {}));
  BasicBlock *Foreign = G->createBlock("foreign");
  X.B.br(Foreign);
  X.B.setInsertPoint(Foreign);
  X.B.ret();
  std::vector<std::string> Errors = X.errors();
  EXPECT_TRUE(reports(Errors, "in @f: branch to block outside function"))
      << joined(Errors);
}

TEST(Verifier, ReportsANullBranchTargetWithoutCrashing) {
  VerifierFixture X;
  X.B.br(nullptr);
  std::vector<std::string> Errors = X.errors();
  EXPECT_TRUE(reports(Errors, "branch to block outside function"))
      << joined(Errors);
  EXPECT_TRUE(reports(Errors, "br <null>'")) << joined(Errors);
}

TEST(Verifier, ReportsANullPhiIncomingBlockWithoutCrashing) {
  VerifierFixture X;
  BasicBlock *Join = X.F->createBlock("join");
  X.B.br(Join);
  X.B.setInsertPoint(Join);
  PhiInst *Phi = X.B.phi(X.M.ctx().i64(), "p");
  Phi->addIncoming(X.F->arg(0), nullptr);
  X.B.ret();
  std::vector<std::string> Errors = X.errors();
  EXPECT_TRUE(reports(Errors, "phi incoming block not in function"))
      << joined(Errors);
  EXPECT_TRUE(reports(Errors, "<null>]")) << joined(Errors);
}

/// `f` holding one spatial check and one meta.load, the two carrying
/// module-assigned sites 0 and 1.
struct SiteFixture : VerifierFixture {
  Instruction *Add = nullptr;
  SpatialCheckInst *Check = nullptr;
  MetaLoadInst *Meta = nullptr;

  SiteFixture() {
    TypeContext &Ctx = M.ctx();
    Value *P = B.castOp(CastInst::Op::IntToPtr, F->arg(0),
                        Ctx.ptrTo(Ctx.i8()), "p");
    Add = B.binop(BinOpInst::Op::Add, F->arg(0), M.constI64(1), "sum");
    Check = B.spatialCheck(P, B.makeBounds(M.constI64(0), M.constI64(64)), 8,
                           false);
    Meta = B.metaLoad(P);
    B.ret();
    M.assignCheckSites();
  }
};

TEST(Verifier, SiteTableIsConsistentAfterAssignment) {
  SiteFixture X;
  EXPECT_EQ(X.Check->site(), 0);
  EXPECT_EQ(X.Meta->site(), 1);
  EXPECT_TRUE(X.errors().empty()) << joined(X.errors());
}

TEST(Verifier, CatchesSiteOnANonCheckInstruction) {
  SiteFixture X;
  X.Add->setSite(0);
  EXPECT_TRUE(reports(X.errors(), "in @f: site 0 on a non-check instruction"))
      << joined(X.errors());
}

TEST(Verifier, CatchesSiteOutsideTheTable) {
  SiteFixture X;
  X.Meta->setSite(5);
  EXPECT_TRUE(
      reports(X.errors(), "site 5 outside the module site table (2 entries)"))
      << joined(X.errors());
}

TEST(Verifier, CatchesSiteOnTwoInstructions) {
  SiteFixture X;
  X.Meta->setSite(0);
  EXPECT_TRUE(
      reports(X.errors(), "site 0 assigned to more than one instruction"))
      << joined(X.errors());
}

TEST(Verifier, CatchesSiteKindThatDisagreesWithTheTable) {
  SiteFixture X;
  X.Check->setSite(1);
  X.Meta->setSite(0);
  EXPECT_TRUE(reports(X.errors(), "site 1 ('f#1') kind disagrees"))
      << joined(X.errors());
  EXPECT_TRUE(reports(X.errors(), "site 0 ('f#0') kind disagrees"))
      << joined(X.errors());
}

//===----------------------------------------------------------------------===//
// Splay tree vs std::map oracle
//===----------------------------------------------------------------------===//

TEST(SplayTree, MatchesMapOracle) {
  IntervalSplayTree T;
  std::map<uint64_t, uint64_t> Oracle;
  RNG R(99);
  for (int Op = 0; Op < 10000; ++Op) {
    switch (R.below(3)) {
    case 0: { // Insert a fresh disjoint interval.
      uint64_t Start = (R.below(1 << 16)) << 8;
      if (Oracle.count(Start))
        break;
      // Ensure disjointness with the oracle.
      auto It = Oracle.upper_bound(Start);
      if (It != Oracle.end() && Start + 64 > It->first)
        break;
      if (It != Oracle.begin()) {
        auto Prev = std::prev(It);
        if (Prev->first + Prev->second > Start)
          break;
      }
      T.insert(Start, 64);
      Oracle[Start] = 64;
      break;
    }
    case 1: { // Erase a random known interval.
      if (Oracle.empty())
        break;
      auto It = Oracle.begin();
      std::advance(It, R.below(Oracle.size()));
      EXPECT_EQ(T.erase(It->first), It->second);
      Oracle.erase(It);
      break;
    }
    default: { // Query a random address.
      uint64_t Addr = (R.below(1 << 16)) << 8 | R.below(256);
      uint64_t Start, Size, Comparisons = 0;
      bool Found = T.find(Addr, Start, Size, Comparisons);
      auto It = Oracle.upper_bound(Addr);
      bool OFound = false;
      if (It != Oracle.begin()) {
        --It;
        OFound = Addr >= It->first && Addr < It->first + It->second;
      }
      ASSERT_EQ(Found, OFound) << "op " << Op;
      if (Found) {
        ASSERT_EQ(Start, It->first);
      }
      break;
    }
    }
  }
  EXPECT_EQ(T.size(), Oracle.size());
}

//===----------------------------------------------------------------------===//
// Baseline detection profiles
//===----------------------------------------------------------------------===//

TEST(MemcheckLite, HeapOnlyProfile) {
  MemcheckLite M;
  M.onAlloc(ObjectRegion::Heap, 0x2000'0000, 32);
  // Heap in-bounds / out-of-bounds.
  EXPECT_TRUE(M.checkAccess(0x2000'0000 + 31, 1, true));
  EXPECT_FALSE(M.checkAccess(0x2000'0000 + 32, 1, true));
  // Stack and global addresses are never flagged.
  EXPECT_TRUE(M.checkAccess(0x7000'0000, 8, true));
  EXPECT_TRUE(M.checkAccess(0x1000'0000, 8, true));
  // Freed memory is flagged.
  M.onFree(ObjectRegion::Heap, 0x2000'0000, 32);
  EXPECT_FALSE(M.checkAccess(0x2000'0000, 1, false));
}

TEST(ObjectTableChecker, ObjectGranularityProfile) {
  ObjectTableChecker C;
  C.onAlloc(ObjectRegion::Global, 0x1000, 24); // A struct-sized object.
  // Anywhere inside the object passes — including "sub-object overflow"
  // offsets; that is precisely the §2.1 incompleteness.
  EXPECT_TRUE(C.checkAccess(0x1000 + 20, 4, true));
  // Past the object fails.
  EXPECT_FALSE(C.checkAccess(0x1000 + 24, 1, true));
  // Stack objects are tracked too (unlike the heap-only red zone).
  C.onAlloc(ObjectRegion::Stack, 0x7000'0000, 16);
  EXPECT_TRUE(C.checkAccess(0x7000'0008, 8, true));
  C.onFree(ObjectRegion::Stack, 0x7000'0000, 16);
  EXPECT_FALSE(C.checkAccess(0x7000'0008, 8, true));
}

TEST(ObjectTableChecker, DerivationCheckingMode) {
  ObjectTableChecker C(/*CheckDerivations=*/true);
  C.onAlloc(ObjectRegion::Heap, 0x2000, 64);
  EXPECT_TRUE(C.checkDerive(0x2000, 0x2000 + 32)); // Inside.
  EXPECT_TRUE(C.checkDerive(0x2000, 0x2000 + 64)); // One past: legal C.
  EXPECT_FALSE(C.checkDerive(0x2000, 0x2000 + 65)); // Beyond.
}

} // namespace
