//===- tests/test_checkopt.cpp - check-optimization subsystem tests ---------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the static check-optimization subsystem (opt/checks/):
///
///   * Soundness: with every sub-pass enabled (and each enabled alone),
///     the full Table 3 attack corpus and the BugBench kernels are still
///     detected — the optimizer never removes a check that would have
///     fired — and correct programs keep their exact behaviour.
///   * Precision: deterministic elimination counts on the monotonic-loop
///     and struct-field exemplars, hull placement for counted loops, and
///     unit tests of the range analysis and instruction-dominance helper.
///
/// Source-level builds go through the PipelinePlan API
/// (driver/PassManager.h); spec-parser and default-pipeline baseline
/// coverage lives in test_pipeline.cpp.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/InstOrder.h"
#include "ir/Verifier.h"
#include "opt/Dominators.h"
#include "opt/Passes.h"
#include "opt/checks/RangeAnalysis.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace softbound;

namespace {

unsigned countChecks(const Module &M) {
  unsigned N = 0;
  for (const auto &F : M.functions())
    for (const auto &BB : F->blocks())
      for (const auto &I : *BB)
        if (isa<SpatialCheckInst>(I.get()))
          ++N;
  return N;
}

/// The instrumenting pipeline through the PassManager API (the source-level
/// tests below all ablate via the softbound/checkopt pass configs).
PipelinePlan plan(const std::string &Src, const SoftBoundConfig &SB = {},
                  const CheckOptConfig &CO = {}) {
  return PipelinePlan().frontend(Src).optimize().softbound(SB).checkOpt(CO);
}

/// The same pipeline without checkopt: the unoptimized reference build.
PipelinePlan unoptPlan(const std::string &Src) {
  return PipelinePlan().frontend(Src).optimize().softbound();
}

BuildResult planBuild(const std::string &Src, const SoftBoundConfig &SB = {},
                      const CheckOptConfig &CO = {}) {
  return plan(Src, SB, CO).build();
}

RunResult planRun(const std::string &Src, const SoftBoundConfig &SB = {},
                  const CheckOptConfig &CO = {}, const RunRequest &RO = {}) {
  return runSession(plan(Src, SB, CO), RO).Combined;
}

//===----------------------------------------------------------------------===//
// Range analysis units
//===----------------------------------------------------------------------===//

TEST(IntervalSet, MergesAdjacentAndOverlapping) {
  checkopt::IntervalSet S;
  S.add(0, 4);
  S.add(8, 16);
  EXPECT_EQ(S.size(), 2u);
  EXPECT_TRUE(S.covers(0, 4));
  EXPECT_FALSE(S.covers(0, 8));
  S.add(4, 8); // Bridges the two: one interval [0, 16).
  EXPECT_EQ(S.size(), 1u);
  EXPECT_TRUE(S.covers(0, 16));
  EXPECT_FALSE(S.covers(0, 17));
  S.add(-8, -4);
  EXPECT_FALSE(S.covers(-8, 0));
  EXPECT_TRUE(S.covers(-8, -5));
}

TEST(RangeAnalysis, DecomposesConstantGEPChains) {
  Module M;
  TypeContext &Ctx = M.ctx();
  auto *FTy = Ctx.funcTy(Ctx.voidTy(), {Ctx.ptrTo(Ctx.i64())});
  Function *F = M.createFunction("probe", FTy);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  Value *P = F->arg(0);
  Value *G1 = B.gep(Ctx.i64(), P, {M.constI64(2)});   // +16 bytes
  Value *BC = B.bitcast(G1, Ctx.ptrTo(Ctx.i8()));
  Value *G2 = B.gep(Ctx.i8(), BC, {M.constI64(-4)});  // -4 bytes
  B.ret();

  checkopt::PtrOffset PO = checkopt::decomposePointer(G2);
  EXPECT_EQ(PO.Root, P);
  EXPECT_EQ(PO.Offset, 12);
}

//===----------------------------------------------------------------------===//
// PointerWalk: the shared GEP layout walk under each caller's policy
//===----------------------------------------------------------------------===//

/// Probe IR for the pointer-walk cases. Inner = {i8 c, i64 d} (16 bytes,
/// d at 8) and Outer = {i32 a, [3 x Inner] arr} (56 bytes, arr at 8), each
/// case built once per root: an Outer* argument, an alloca, a global and
/// a malloc(56).
struct WalkFixture {
  Module M;
  IRBuilder B{M};
  StructType *Inner = nullptr, *Outer = nullptr;
  BasicBlock *BB = nullptr;
  Argument *I32Arg = nullptr;
  Value *Idx = nullptr; ///< sext(I32Arg) to i64.
  /// (pointer a case starts from, the object root the walks should reach)
  std::vector<std::pair<Value *, Value *>> Roots;

  WalkFixture() {
    TypeContext &Ctx = M.ctx();
    Inner = Ctx.createStruct("inner");
    Inner->setBody({Ctx.i8(), Ctx.i64()}, {"c", "d"}, false);
    Outer = Ctx.createStruct("outer");
    Outer->setBody({Ctx.i32(), Ctx.arrayOf(Inner, 3)}, {"a", "arr"}, false);
    Function *Malloc = M.createFunction(
        "malloc", Ctx.funcTy(Ctx.ptrTo(Ctx.i8()), {Ctx.i64()}), true);
    Function *F = M.createFunction(
        "probe", Ctx.funcTy(Ctx.voidTy(), {Ctx.ptrTo(Outer), Ctx.i32()}));
    BB = F->createBlock("entry");
    B.setInsertPoint(BB);
    I32Arg = F->arg(1);
    Idx = B.castOp(CastInst::Op::SExt, I32Arg, Ctx.i64(), "idx");
    Value *Alloca = B.alloca_(Outer, "obj");
    Value *Global = M.createGlobal("g", Outer, {});
    CallInst *Heap = B.call(Malloc, {M.constI64(56)}, "heap");
    Roots = {{F->arg(0), F->arg(0)},
             {Alloca, Alloca},
             {Global, Global},
             {B.bitcast(Heap, Ctx.ptrTo(Outer)), Heap}};
  }

  Value *bytes(Value *Root) {
    return B.bitcast(Root, M.ctx().ptrTo(M.ctx().i8()));
  }
  Value *c(int64_t V) { return M.constI64(V); }
};

struct WalkCase {
  const char *Name;
  /// Builds the checked pointer from an Outer* \p Root and sets \p Stop
  /// to the GEP that a walk rejecting one of its steps ends on.
  Value *(*Build)(WalkFixture &W, Value *Root, Value *&Stop);
  int64_t Offset;     ///< Constant bytes past the object root.
  int64_t Scale;      ///< Bytes per unit of I32Arg (decomposeLinearPtr).
  bool ConstFolds;    ///< decomposePointer reaches the object root.
  bool ObjectFolds;   ///< constantObjectOffset reaches it.
  bool LinearFolds;   ///< decomposeLinearPtr reaches it.
  int64_t StopOffset; ///< Bytes past Stop for the walks that stop there.
};

constexpr int64_t Cap = checkopt::MaxFoldedOffset;

const WalkCase WalkCases[] = {
    {"NestedStructInArrayInStruct",
     [](WalkFixture &W, Value *R, Value *&Stop) -> Value * {
       // &r->arr[2].d = 8 + 2 * 16 + 8.
       return Stop = W.B.gep(W.Outer, R, {W.c(0), W.c(1), W.c(2), W.c(1)});
     },
     48, 0, true, true, true, 0},
    {"FieldAfterVariableIndex",
     [](WalkFixture &W, Value *R, Value *&Stop) -> Value * {
       // &r->arr[i].d = 8 + 16 * i + 8.
       return Stop = W.B.gep(W.Outer, R, {W.c(0), W.c(1), W.Idx, W.c(1)});
     },
     16, 16, false, false, true, 0},
    {"NegativeLeadingIndex",
     [](WalkFixture &W, Value *R, Value *&Stop) -> Value * {
       return Stop = W.B.gep(W.Outer, R, {W.c(-1), W.c(0)});
     },
     -56, 0, true, false, true, 0},
    {"NegativeArrayIndex",
     [](WalkFixture &W, Value *R, Value *&Stop) -> Value * {
       // &r->arr[-1].d = 8 - 16 + 8: inside the object, but not a
       // sub-object step constantObjectOffset accepts.
       return Stop = W.B.gep(W.Outer, R, {W.c(0), W.c(1), W.c(-1), W.c(1)});
     },
     0, 0, true, false, true, 0},
    {"ArrayIndexPastCount",
     [](WalkFixture &W, Value *R, Value *&Stop) -> Value * {
       return Stop = W.B.gep(W.Outer, R, {W.c(0), W.c(1), W.c(3), W.c(0)});
     },
     56, 0, true, false, true, 0},
    {"FieldPastStruct",
     [](WalkFixture &W, Value *R, Value *&Stop) -> Value * {
       // Outer has two fields; the builder would reject index 2.
       auto *G = new GEPInst(W.M.ctx().ptrTo(W.M.ctx().i8()), W.Outer, R,
                             {W.c(0), W.c(2)}, "bad");
       W.BB->append(std::unique_ptr<Instruction>(G));
       return Stop = G;
     },
     0, 0, false, false, false, 0},
    {"OffsetAtCap",
     [](WalkFixture &W, Value *R, Value *&Stop) -> Value * {
       return Stop = W.B.gep(W.M.ctx().i8(), W.bytes(R), {W.c(Cap)});
     },
     Cap, 0, true, true, true, 0},
    {"OffsetPastCap",
     [](WalkFixture &W, Value *R, Value *&Stop) -> Value * {
       return Stop = W.B.gep(W.M.ctx().i8(), W.bytes(R), {W.c(Cap + 1)});
     },
     0, 0, false, false, false, 0},
    {"CapCrossedAcrossTwoGEPs",
     [](WalkFixture &W, Value *R, Value *&Stop) -> Value * {
       Stop = W.B.gep(W.M.ctx().i8(), W.bytes(R), {W.c(Cap)});
       return W.B.gep(W.M.ctx().i8(), Stop, {W.c(1)});
     },
     0, 0, false, false, false, 1},
};

TEST(PointerWalk, EachCallerKeepsItsPolicy) {
  for (const WalkCase &C : WalkCases) {
    SCOPED_TRACE(C.Name);
    WalkFixture W;
    for (auto [Start, Object] : W.Roots) {
      Value *Stop = nullptr;
      Value *P = C.Build(W, Start, Stop);
      SCOPED_TRACE(Object->name());

      checkopt::PtrOffset PO = checkopt::decomposePointer(P);
      EXPECT_EQ(PO.Root, C.ConstFolds ? Object : Stop);
      EXPECT_EQ(PO.Offset, C.ConstFolds ? C.Offset : C.StopOffset);

      checkopt::LinearPtr L = checkopt::decomposeLinearPtr(P);
      EXPECT_EQ(L.Root, C.LinearFolds ? Object : Stop);
      EXPECT_EQ(L.Base, C.LinearFolds ? C.Offset : C.StopOffset);
      EXPECT_EQ(L.Scale, C.LinearFolds ? C.Scale : 0);
      EXPECT_EQ(L.Index, L.Scale ? W.I32Arg : nullptr);

      // The SAFE elision accepts an alloca or global root here, and
      // partitioning a malloc call; any other root (a GEP that breaks the
      // object rule, the argument) is neither.
      checkopt::PtrOffset OO = checkopt::constantObjectOffset(P);
      EXPECT_EQ(OO.Root, C.ObjectFolds ? Object : Stop);
      EXPECT_EQ(OO.Offset, C.ObjectFolds ? C.Offset : C.StopOffset);
    }
  }
}

TEST(PointerWalk, ScopedFactsRollBackAcrossALeave) {
  // entry -> {left, right} -> join: the dominator tree is entry over its
  // three successors (in reverse postorder: right, left, join), so a fact
  // proven in left is gone again in join.
  Module M;
  Function *F = M.createFunction("f", M.ctx().funcTy(M.ctx().voidTy(), {}));
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Left = F->createBlock("left");
  BasicBlock *Right = F->createBlock("right");
  BasicBlock *Join = F->createBlock("join");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  B.condBr(M.constI1(true), Left, Right);
  for (BasicBlock *Arm : {Left, Right}) {
    B.setInsertPoint(Arm);
    B.br(Join);
  }
  B.setInsertPoint(Join);
  B.ret();
  DomTree DT(*F);

  using Key = std::pair<int, int>;
  checkopt::ScopedFacts<Key> Facts;
  const Key K{1, 2};
  std::string Order;
  auto Name = [&](BasicBlock *BB) {
    return BB == Entry ? "entry" : BB == Left ? "left"
                               : BB == Right ? "right" : "join";
  };
  walkDomTree(
      DT, Entry,
      [&](BasicBlock *BB) {
        Order += std::string("+") + Name(BB);
        size_t Mark = Facts.mark();
        if (BB == Entry)
          Facts.add(K, 0, 8);
        if (BB == Left) {
          Facts.add(K, 8, 16);
          EXPECT_TRUE(Facts.covers(K, 0, 16)) << "merged with entry's fact";
        }
        if (BB == Right || BB == Join) {
          EXPECT_TRUE(Facts.covers(K, 0, 8)) << "the dominator's fact stays";
          EXPECT_FALSE(Facts.covers(K, 8, 16)) << "left's fact rolled back";
        }
        return Mark;
      },
      [&](BasicBlock *BB, size_t Mark) {
        Facts.rollbackTo(Mark);
        Order += std::string("-") + Name(BB);
      });
  EXPECT_EQ(Order, "+entry+right-right+left-left+join-join-entry");
  EXPECT_FALSE(Facts.covers(K, 0, 8)) << "every scope was left";
}

TEST(PointerWalk, DeepChainBuildsAndWalksWithoutHostRecursion) {
  // A 200000-block straight chain: one host frame per block would
  // overflow an 8 MB stack, in the tree's construction or in its walk.
  constexpr size_t N = 200000;
  Module M;
  Function *F = M.createFunction("f", M.ctx().funcTy(M.ctx().voidTy(), {}));
  std::vector<BasicBlock *> Chain;
  for (size_t I = 0; I < N; ++I)
    Chain.push_back(F->createBlock("b"));
  IRBuilder B(M);
  for (size_t I = 0; I + 1 < N; ++I) {
    B.setInsertPoint(Chain[I]);
    B.br(Chain[I + 1]);
  }
  B.setInsertPoint(Chain.back());
  B.ret();

  DomTree DT(*F);
  ASSERT_EQ(DT.rpo(), Chain);
  EXPECT_EQ(DT.idom(Chain[0]), nullptr);
  EXPECT_EQ(DT.idom(Chain[N / 2]), Chain[N / 2 - 1]);
  EXPECT_EQ(DT.idom(Chain.back()), Chain[N - 2]);

  size_t Depth = 0, MaxDepth = 0, Entered = 0;
  std::vector<BasicBlock *> Left;
  walkDomTree(
      DT, Chain[0],
      [&](BasicBlock *) {
        ++Entered;
        MaxDepth = std::max(MaxDepth, ++Depth);
      },
      [&](BasicBlock *BB) {
        --Depth;
        Left.push_back(BB);
      });
  EXPECT_EQ(Entered, N);
  EXPECT_EQ(MaxDepth, N);
  ASSERT_EQ(Left.size(), N);
  EXPECT_EQ(Left.front(), Chain.back()) << "the deepest scope is left first";
  EXPECT_EQ(Left.back(), Chain.front());
}

//===----------------------------------------------------------------------===//
// Instruction dominance helper
//===----------------------------------------------------------------------===//

TEST(InstDominates, OrdersWithinAndAcrossBlocks) {
  Module M;
  TypeContext &Ctx = M.ctx();
  Function *F = M.createFunction("f", Ctx.funcTy(Ctx.voidTy(), {}));
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Left = F->createBlock("left");
  BasicBlock *Right = F->createBlock("right");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  Instruction *A = B.makeBounds(M.constI64(0), M.constI64(8));
  Instruction *C = B.makeBounds(M.constI64(0), M.constI64(16));
  B.condBr(M.constI1(true), Left, Right);
  B.setInsertPoint(Left);
  Instruction *InLeft = B.makeBounds(M.constI64(0), M.constI64(24));
  B.ret();
  B.setInsertPoint(Right);
  Instruction *InRight = B.makeBounds(M.constI64(0), M.constI64(32));
  B.ret();

  DomTree DT(*F);
  InstOrder Ord(*F);
  EXPECT_TRUE(instDominates(DT, Ord, A, C));
  EXPECT_FALSE(instDominates(DT, Ord, C, A));
  EXPECT_FALSE(instDominates(DT, Ord, A, A)) << "strict dominance";
  EXPECT_TRUE(instDominates(DT, Ord, A, InLeft));
  EXPECT_FALSE(instDominates(DT, Ord, InLeft, InRight));
}

//===----------------------------------------------------------------------===//
// Precision: dominance + range elimination on hand-built IR
//===----------------------------------------------------------------------===//

namespace {

/// The intra-procedural sub-passes only: the fixtures below exercise
/// dominance and range elimination, not the module-level sub-passes.
CheckOptConfig intraOnly() {
  CheckOptConfig Cfg;
  Cfg.InterProc = false;
  Cfg.Partition = false;
  return Cfg;
}

/// Builds `probe(i8* p)` with a diamond CFG and a configurable list of
/// checks; returns the function.
struct DiamondFixture {
  Module M;
  Function *F = nullptr;
  BasicBlock *Entry = nullptr, *Left = nullptr, *Right = nullptr,
             *Merge = nullptr;
  Value *P = nullptr;
  Value *Bounds = nullptr;

  DiamondFixture() {
    TypeContext &Ctx = M.ctx();
    F = M.createFunction("probe",
                         Ctx.funcTy(Ctx.voidTy(), {Ctx.ptrTo(Ctx.i8())}));
    Entry = F->createBlock("entry");
    Left = F->createBlock("left");
    Right = F->createBlock("right");
    Merge = F->createBlock("merge");
    P = F->arg(0);
    IRBuilder B(M);
    B.setInsertPoint(Entry);
    Bounds = B.makeBounds(M.constI64(0x1000), M.constI64(0x1040));
  }

  void finish() {
    IRBuilder B(M);
    B.setInsertPoint(Entry);
    B.condBr(M.constI1(true), Left, Right);
    B.setInsertPoint(Left);
    B.br(Merge);
    B.setInsertPoint(Right);
    B.br(Merge);
    B.setInsertPoint(Merge);
    B.ret();
    ASSERT_TRUE(verifyModule(M).empty());
  }
};

} // namespace

TEST(CheckOptRCE, DominatingCheckKillsDescendants) {
  DiamondFixture D;
  IRBuilder B(D.M);
  B.setInsertPoint(D.Entry);
  B.spatialCheck(D.P, D.Bounds, 8, true); // Dominates everything below.
  B.setInsertPoint(D.Left);
  B.spatialCheck(D.P, D.Bounds, 8, true);  // Killed (equal).
  B.setInsertPoint(D.Right);
  B.spatialCheck(D.P, D.Bounds, 4, false); // Killed (weaker).
  B.setInsertPoint(D.Merge);
  B.spatialCheck(D.P, D.Bounds, 16, true); // Stronger: stays.
  D.finish();

  CheckOptStats S = optimizeChecks(D.M, intraOnly());
  EXPECT_EQ(S.DominatedEliminated, 2u);
  EXPECT_EQ(S.ChecksBefore, 4u);
  EXPECT_EQ(S.ChecksAfter, 2u);
}

TEST(CheckOptRCE, SiblingBranchFactsDoNotLeak) {
  DiamondFixture D;
  IRBuilder B(D.M);
  B.setInsertPoint(D.Left);
  B.spatialCheck(D.P, D.Bounds, 8, true);
  B.setInsertPoint(D.Right);
  B.spatialCheck(D.P, D.Bounds, 8, true); // Sibling, not dominated: stays.
  B.setInsertPoint(D.Merge);
  B.spatialCheck(D.P, D.Bounds, 8, true); // Post-merge, not dominated.
  D.finish();

  CheckOptStats S = optimizeChecks(D.M, intraOnly());
  EXPECT_EQ(S.ChecksAfter, 3u)
      << "facts from one branch must not kill checks in the sibling or "
         "below the merge";
}

TEST(CheckOptRCE, RangeSubsumptionCoversConstantOffsets) {
  // The paper's monotonically increasing pointer, generalized: a wide
  // dominating check proves narrower interior accesses through different
  // GEPs in bounds.
  DiamondFixture D;
  TypeContext &Ctx = D.M.ctx();
  IRBuilder B(D.M);
  B.setInsertPoint(D.Entry);
  B.spatialCheck(D.P, D.Bounds, 16, true); // Proves [0, 16).
  Value *G1 = B.gep(Ctx.i8(), D.P, {D.M.constI64(8)});
  B.setInsertPoint(D.Left);
  B.spatialCheck(G1, D.Bounds, 8, true);   // [8, 16): range-covered.
  B.setInsertPoint(D.Right);
  Value *G2;
  {
    IRBuilder B2(D.M);
    B2.setInsertPoint(D.Entry);
    G2 = B2.gep(Ctx.i8(), D.P, {D.M.constI64(12)});
  }
  B.spatialCheck(G2, D.Bounds, 8, true);   // [12, 20): tail out, stays.
  D.finish();

  CheckOptStats S = optimizeChecks(D.M, intraOnly());
  EXPECT_EQ(S.RangeEliminated, 1u);
  EXPECT_EQ(S.ChecksAfter, 2u);

  // With range subsumption disabled the same input keeps all checks.
  DiamondFixture D2;
  IRBuilder C(D2.M);
  C.setInsertPoint(D2.Entry);
  C.spatialCheck(D2.P, D2.Bounds, 16, true);
  Value *G3 = C.gep(Ctx.i8(), D2.P, {D2.M.constI64(8)});
  C.setInsertPoint(D2.Left);
  C.spatialCheck(G3, D2.Bounds, 8, true);
  D2.finish();
  CheckOptConfig NoRange = intraOnly();
  NoRange.RangeSubsumption = false;
  CheckOptStats S2 = optimizeChecks(D2.M, NoRange);
  EXPECT_EQ(S2.RangeEliminated, 0u);
  EXPECT_EQ(S2.ChecksAfter, 2u);
}

TEST(CheckOptRCE, AdjacentIntervalsMergeToCoverWideAccess) {
  DiamondFixture D;
  TypeContext &Ctx = D.M.ctx();
  IRBuilder B(D.M);
  B.setInsertPoint(D.Entry);
  Value *G8 = B.gep(Ctx.i8(), D.P, {D.M.constI64(8)});
  B.spatialCheck(D.P, D.Bounds, 8, true);  // [0, 8)
  B.spatialCheck(G8, D.Bounds, 8, true);   // [8, 16)
  B.spatialCheck(D.P, D.Bounds, 16, true); // [0, 16): merged cover, killed.
  D.finish();

  CheckOptStats S = optimizeChecks(D.M, intraOnly());
  EXPECT_EQ(S.RangeEliminated, 1u);
  EXPECT_EQ(S.ChecksAfter, 2u);
}

//===----------------------------------------------------------------------===//
// Precision: the monotonic-loop exemplar (source level)
//===----------------------------------------------------------------------===//

TEST(CheckOptLoops, MonotonicLoopCollapsesToHull) {
  // The §6.1 example: p[i] with i monotonically increasing over a counted
  // range. Full checking inserts one store check per iteration; the hull
  // replaces them with exactly two pre-loop checks (offsets 0 and 60).
  const char *Src = "int main() {\n"
                    "  int* p = (int*)malloc(64);\n"
                    "  int s = 0;\n"
                    "  for (int i = 0; i < 16; i++) { p[i] = i; s += p[i]; }\n"
                    "  return s;\n"
                    "}";
  BuildResult Prog = planBuild(Src);
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  EXPECT_GE(Prog.Pipeline.CheckOpt.LoopChecksHoisted, 1u);
  EXPECT_EQ(countChecks(*Prog.M), 2u) << "one hull check per endpoint";

  RunResult R = runSession(Prog).Combined;
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ExitCode, 120);
  EXPECT_EQ(R.Counters.Checks, 2u) << "O(trip count) -> O(1) dynamic checks";

  // Unoptimized build for reference: one dynamic check per iteration.
  BuildResult ProgOff = unoptPlan(Src).build();
  ASSERT_TRUE(ProgOff.ok());
  RunResult ROff = runSession(ProgOff).Combined;
  EXPECT_EQ(ROff.ExitCode, R.ExitCode);
  EXPECT_GE(ROff.Counters.Checks, 16u);
}

TEST(CheckOptLoops, HullCanAddStaticChecks) {
  // One in-loop check over an affine, constant-trip range becomes two
  // hull-corner checks: the static count grows while the dynamic count
  // falls from one per iteration to two, so the net elimination rate is
  // below 0.
  const char *Src = "int main() {\n"
                    "  int* p = (int*)malloc(64);\n"
                    "  int s = 0;\n"
                    "  for (int i = 0; i < 16; i++) s += p[i];\n"
                    "  return s;\n"
                    "}";
  BuildResult Prog = planBuild(Src);
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  const CheckOptStats &S = Prog.Pipeline.CheckOpt;
  EXPECT_EQ(S.ChecksBefore, 1u);
  EXPECT_EQ(S.ChecksAfter, 2u);
  EXPECT_GT(S.ChecksAfter, S.ChecksBefore);
  EXPECT_LT(S.eliminationRate(), 0.0);

  RunResult R = runSession(Prog).Combined;
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.Counters.Checks, 2u);
}

TEST(CheckOptLoops, NestedCountedLoopsCascade) {
  // Rectangular nest over a flat array: inner hulls are constants, so the
  // outer pass hoists them again — whole-nest checks become O(1).
  const char *Src =
      "int g[64];\n"
      "int main() {\n"
      "  for (int r = 0; r < 10; r++)\n"
      "    for (int i = 0; i < 8; i++)\n"
      "      for (int j = 0; j < 8; j++)\n"
      "        g[i * 8 + j] = g[i * 8 + j] + r;\n"
      "  return g[63];\n"
      "}";
  BuildResult Prog = planBuild(Src);
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  RunResult R = runSession(Prog).Combined;
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ExitCode, 45);
  EXPECT_LE(R.Counters.Checks, 8u)
      << "the 640 per-iteration checks must collapse to a handful of hulls";
}

TEST(CheckOptLoops, VariantRootBlocksEnclosingWidening) {
  // The base pointer is recomputed every outer iteration, so the inner
  // hull may only be widened over the inner IV: pairing the current
  // iteration's root with another outer iteration's offset would check
  // an address the program never computes. Only buf[64..71] is ever
  // written; this must stay clean.
  const char *Src = "int buf[72];\n"
                    "int main() {\n"
                    "  for (int r = 0; r < 8; r++) {\n"
                    "    int* p = buf + (64 - r * 8);\n"
                    "    for (int i = 0; i < 8; i++) p[r * 8 + i] = 1;\n"
                    "  }\n"
                    "  return buf[64] + buf[71];\n"
                    "}";
  RunResult R = planRun(Src);
  ASSERT_TRUE(R.ok()) << trapName(R.Trap) << " " << R.Message;
  EXPECT_EQ(R.ExitCode, 2);
}

TEST(CheckOptLoops, ExtremeConstantsDoNotWrapTripCount) {
  // Near-full-range i64 loop constants overflow a naive int64 Lim - Lo;
  // a wrapped trip count of zero would erase the live (and violating)
  // body check as provably dead. The analysis must reject or count this
  // loop exactly — either way the OOB store still traps.
  const char *Src =
      "int a[4];\n"
      "int main() {\n"
      "  for (long i = -9223372036854775807; i < 9223372036854775806;\n"
      "       i = i + 4611686018427387904) { a[7] = 1; }\n"
      "  return 0;\n"
      "}";
  BuildResult Prog = planBuild(Src);
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  EXPECT_EQ(runSession(Prog).Combined.Trap, TrapKind::SpatialViolation);
}

TEST(CheckOptLoops, ZeroTripLoopNeverFalselyTraps) {
  // The hull of an empty iteration space is nothing: a constant zero-trip
  // loop over out-of-bounds indices must not introduce a trap.
  const char *Src = "int main() {\n"
                    "  int a[4];\n"
                    "  a[0] = 7;\n"
                    "  for (int i = 100; i < 100; i++) a[i] = 1;\n"
                    "  return a[0];\n"
                    "}";
  RunResult R = planRun(Src);
  ASSERT_TRUE(R.ok()) << trapName(R.Trap) << " " << R.Message;
  EXPECT_EQ(R.ExitCode, 7);
}

TEST(CheckOptLoops, BreakLoopIsNotWidened) {
  // A loop with a second exit edge is not a hoisting candidate: the break
  // at i == 2 keeps the out-of-bounds tail from ever executing, and the
  // optimizer must not check it pre-loop.
  const char *Src = "int main() {\n"
                    "  int a[4];\n"
                    "  int s = 0;\n"
                    "  for (int i = 0; i < 100; i++) {\n"
                    "    if (i == 2) break;\n"
                    "    a[i] = i; s += a[i];\n"
                    "  }\n"
                    "  return s + 40;\n"
                    "}";
  RunResult R = planRun(Src);
  ASSERT_TRUE(R.ok()) << trapName(R.Trap) << " " << R.Message;
  EXPECT_EQ(R.ExitCode, 41);
}

TEST(CheckOptLoops, HoistedOverflowStillTraps) {
  // The classic off-by-one: hoisting moves the trap before the loop, but
  // it must still be a spatial violation in both checking modes.
  const char *Src = "int main() {\n"
                    "  int* p = (int*)malloc(10 * sizeof(int));\n"
                    "  for (int i = 0; i <= 10; i++) p[i] = i;\n"
                    "  return 0;\n"
                    "}";
  for (CheckMode Mode : {CheckMode::Full, CheckMode::StoreOnly}) {
    SoftBoundConfig SB;
    SB.Mode = Mode;
    RunResult R = planRun(Src, SB);
    EXPECT_EQ(R.Trap, TrapKind::SpatialViolation) << trapName(R.Trap);
  }
}

TEST(CheckOptLoops, StoreOnlyStillMissesReadOverflow) {
  // Hoisting must not manufacture load checks that store-only checking
  // deliberately omits (§6.3).
  const char *Src = "int main() {\n"
                    "  int* p = (int*)malloc(10 * sizeof(int));\n"
                    "  int sum = 0;\n"
                    "  for (int i = 0; i <= 10; i++) sum += p[i];\n"
                    "  return sum;\n"
                    "}";
  SoftBoundConfig SB;
  SB.Mode = CheckMode::StoreOnly;
  EXPECT_TRUE(planRun(Src, SB).ok());
  SB.Mode = CheckMode::Full;
  EXPECT_EQ(planRun(Src, SB).Trap, TrapKind::SpatialViolation);
}

//===----------------------------------------------------------------------===//
// Runtime-limit hull hoisting (checkopt(hoist,runtime-limit))
//===----------------------------------------------------------------------===//

TEST(RuntimeHulls, GuardedCheckShapeIsVerified) {
  Module M;
  TypeContext &Ctx = M.ctx();
  Function *F = M.createFunction(
      "probe", Ctx.funcTy(Ctx.voidTy(), {Ctx.ptrTo(Ctx.i8()), Ctx.i64()}));
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  Value *Bounds = B.makeBounds(M.constI64(0x1000), M.constI64(0x1040));
  Value *G = B.icmp(ICmpInst::Pred::SGE, F->arg(1), M.constI64(1));
  SpatialCheckInst *C = B.spatialCheck(F->arg(0), Bounds, 8, true, G);
  B.ret();
  EXPECT_TRUE(C->isGuarded());
  EXPECT_EQ(C->guard(), G);
  EXPECT_TRUE(verifyModule(M).empty());
  EXPECT_NE(printInstruction(*C).find(", if "), std::string::npos)
      << "the printer must show the guarded-check shape";

  // A non-i1 guard violates the verifier rule for the guarded shape.
  Module M2;
  TypeContext &Ctx2 = M2.ctx();
  Function *F2 = M2.createFunction(
      "probe", Ctx2.funcTy(Ctx2.voidTy(), {Ctx2.ptrTo(Ctx2.i8()), Ctx2.i64()}));
  BasicBlock *BB2 = F2->createBlock("entry");
  IRBuilder B2(M2);
  B2.setInsertPoint(BB2);
  Value *Bounds2 = B2.makeBounds(M2.constI64(0x1000), M2.constI64(0x1040));
  B2.spatialCheck(F2->arg(0), Bounds2, 8, true, F2->arg(1));
  B2.ret();
  EXPECT_FALSE(verifyModule(M2).empty());
}

/// The GlobalArrayOverflow shape: a global array swept under a limit only
/// known at run time (main's integer argument — externally reachable, so
/// no argument range can discharge the guard statically).
const char *VarLimitSweepSrc = "long buf[64];\n"
                               "int main(int n) {\n"
                               "  long s = 0;\n"
                               "  for (int i = 0; i < n; i++) {\n"
                               "    buf[i] = 7; s = s + buf[i];\n"
                               "  }\n"
                               "  return (int)(s % 100);\n"
                               "}";

TEST(RuntimeHulls, VariableLimitLoopCollapsesToGuardedHull) {
  BuildResult Prog = planBuild(VarLimitSweepSrc);
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  const CheckOptStats &S = Prog.Pipeline.CheckOpt;
  EXPECT_GE(S.LoopsCountedRuntime, 1u);
  EXPECT_EQ(S.RuntimeHullChecks, 2u) << "one guarded hull per endpoint";
  EXPECT_GE(S.RuntimeGuardedFallbacks, 1u);

  RunRequest RO;
  RO.Args = {16};
  RunResult R = runSession(Prog, RO).Combined;
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ExitCode, 12);
  EXPECT_EQ(R.Counters.Checks, 2u) << "O(n) -> O(1) dynamic checks";
  EXPECT_GE(R.Counters.CheckGuards, 2u);

  // Without the runtime-limit knob the loop keeps per-iteration checks.
  CheckOptConfig NoRT;
  NoRT.RuntimeLimitHulls = false;
  BuildResult Off = planBuild(VarLimitSweepSrc, {}, NoRT);
  ASSERT_TRUE(Off.ok());
  EXPECT_EQ(Off.Pipeline.CheckOpt.RuntimeHullChecks, 0u);
  RunResult ROff = runSession(Off, RO).Combined;
  EXPECT_EQ(ROff.ExitCode, R.ExitCode);
  EXPECT_GE(ROff.Counters.Checks, 16u);
}

TEST(RuntimeHulls, ZeroTripAndNegativeLimitsPerformNoCheck) {
  BuildResult Prog = planBuild(VarLimitSweepSrc);
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  for (int64_t N : {int64_t(0), int64_t(-3)}) {
    RunRequest RO;
    RO.Args = {N};
    RunResult R = runSession(Prog, RO).Combined;
    ASSERT_TRUE(R.ok()) << "n=" << N << " " << trapName(R.Trap) << " "
                        << R.Message;
    EXPECT_EQ(R.ExitCode, 0);
    EXPECT_EQ(R.Counters.Checks, 0u)
        << "a zero-trip loop must perform no check at all";
    EXPECT_GE(R.Counters.GuardSkips, 2u) << "hull guards tested and skipped";
  }
}

TEST(RuntimeHulls, OverflowingLimitTrapsViaHull) {
  BuildResult Prog = planBuild(VarLimitSweepSrc);
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  RunRequest RO;
  RO.Args = {64};
  EXPECT_TRUE(runSession(Prog, RO).Combined.ok()) << "n == extent is clean";
  RO.Args = {65};
  RunResult R = runSession(Prog, RO).Combined;
  EXPECT_EQ(R.Trap, TrapKind::SpatialViolation) << trapName(R.Trap);
  EXPECT_EQ(R.Counters.Checks, 2u) << "the hull traps before the loop";
}

TEST(RuntimeHulls, DecreasingLoopWithSymbolicLowerLimit) {
  const char *Src = "long buf[64];\n"
                    "int main(int n) {\n"
                    "  long s = 0;\n"
                    "  for (int i = 63; i >= n; i--) { buf[i] = 2; s = s + 1; }\n"
                    "  return (int)s;\n"
                    "}";
  BuildResult Prog = planBuild(Src);
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  EXPECT_GE(Prog.Pipeline.CheckOpt.LoopsCountedRuntime, 1u);

  RunRequest RO;
  RO.Args = {60};
  RunResult R = runSession(Prog, RO).Combined;
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ExitCode, 4);
  EXPECT_EQ(R.Counters.Checks, 2u);

  RO.Args = {64}; // Zero-trip downward loop.
  R = runSession(Prog, RO).Combined;
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Counters.Checks, 0u);

  RO.Args = {-1}; // Underflows buf[-1]: the low hull corner traps.
  EXPECT_EQ(runSession(Prog, RO).Combined.Trap, TrapKind::SpatialViolation);
}

TEST(RuntimeHulls, LimitMutatedInLoopIsRejected) {
  // The exit test reloads lim[0] every iteration and the body stores to
  // it: the limit's SSA value is defined inside the loop, so symbolic
  // recognition must refuse — behaviour stays per-iteration checked and
  // identical to the unoptimized build.
  const char *Src =
      "int a[16]; int lim[1];\n"
      "int main() {\n"
      "  lim[0] = 16;\n"
      "  long s = 0;\n"
      "  for (int i = 0; i < lim[0]; i++) {\n"
      "    a[i] = i; lim[0] = lim[0] - 1; s = s + a[i];\n"
      "  }\n"
      "  return (int)s;\n"
      "}";
  BuildResult Prog = planBuild(Src);
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  EXPECT_EQ(Prog.Pipeline.CheckOpt.LoopsCountedRuntime, 0u);
  EXPECT_EQ(Prog.Pipeline.CheckOpt.RuntimeHullChecks, 0u);
  RunResult R = runSession(Prog).Combined;
  ASSERT_TRUE(R.ok()) << R.Message;

  EXPECT_GE(R.Counters.Checks, 8u)
      << "the a[i] accesses keep one dynamic check per iteration";

  RunResult ROff = runSession(unoptPlan(Src)).Combined;
  EXPECT_EQ(R.ExitCode, ROff.ExitCode);
}

TEST(RuntimeHulls, OutOfWindowLimitFallsBackToInLoopChecks) {
  // a[i % 4] linearizes as the identity only while i stays in [0, 4), so
  // the window is n <= 4. Inside it the hull pair covers the loop;
  // outside it the guarded fallback keeps honest per-iteration checking.
  const char *Src = "long a[4];\n"
                    "int main(int n) {\n"
                    "  long s = 0;\n"
                    "  for (int i = 0; i < n; i++) {\n"
                    "    a[i % 4] = i; s = s + a[i % 4];\n"
                    "  }\n"
                    "  return (int)s;\n"
                    "}";
  BuildResult Prog = planBuild(Src);
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  EXPECT_EQ(Prog.Pipeline.CheckOpt.RuntimeHullChecks, 2u);

  RunRequest RO;
  RO.Args = {4};
  RunResult RIn = runSession(Prog, RO).Combined;
  ASSERT_TRUE(RIn.ok()) << RIn.Message;
  EXPECT_EQ(RIn.ExitCode, 6);
  EXPECT_EQ(RIn.Counters.Checks, 2u) << "inside the window: hulls only";

  RO.Args = {6};
  RunResult ROut = runSession(Prog, RO).Combined;
  ASSERT_TRUE(ROut.ok()) << ROut.Message;
  EXPECT_EQ(ROut.ExitCode, 15);
  EXPECT_EQ(ROut.Counters.Checks, 6u)
      << "outside the window every fallback check must execute and count";
  EXPECT_GE(ROut.Counters.CheckGuards, 8u);
}

TEST(RuntimeHulls, WrappingEndpointFallsBackAndStillTraps) {
  // Mirrors PR 3's WrappedI64ArithmeticIsNotRangeElided: the hull
  // endpoint (2^57+1)*8*(n-1) escapes the far-from-wrap window for every
  // n > 1, so the guard must route those runs to the unmodified in-loop
  // checks — which still trap on the wild address.
  const char *Src =
      "long a[4];\n"
      "int main(int n) {\n"
      "  long s = 0;\n"
      "  for (long i = 0; i < n; i++) { s = s + a[i * 144115188075855873]; }\n"
      "  return (int)s;\n"
      "}";
  BuildResult Prog = planBuild(Src);
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();

  RunRequest RO;
  RO.Args = {1};
  EXPECT_TRUE(runSession(Prog, RO).Combined.ok())
      << "n=1 stays inside the window";
  RO.Args = {2};
  EXPECT_EQ(runSession(Prog, RO).Combined.Trap, TrapKind::SpatialViolation);

  BuildResult POff = unoptPlan(Src).build();
  ASSERT_TRUE(POff.ok());
  EXPECT_EQ(runSession(POff, RO).Combined.Trap, TrapKind::SpatialViolation)
      << "reference: the unoptimized build traps identically";
}

TEST(RuntimeHulls, InterProcArgumentRangesDischargeGuards) {
  // Both call sites pass literal limits, so the propagated range [30, 50]
  // proves the trip and wrap windows: unguarded hulls, no fallback — and
  // the module must record the whole-program contract the proof used.
  const char *Src =
      "long buf[64];\n"
      "int fill(long* p, int n) {\n"
      "  long s = 0;\n"
      "  for (int i = 0; i < n; i++) { p[i] = i; s = s + p[i]; }\n"
      "  return (int)(s % 100);\n"
      "}\n"
      "int main() { return fill(buf, 30) + fill(buf, 50); }";
  BuildResult Prog = planBuild(Src);
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  EXPECT_GE(Prog.Pipeline.CheckOpt.RuntimeGuardsDischarged, 1u);
  EXPECT_TRUE(Prog.M->hasInterProcContract());

  RunResult R = runSession(Prog).Combined;
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ExitCode, 60);
  EXPECT_EQ(R.Counters.Checks, 4u) << "two unguarded hulls per call";
  EXPECT_EQ(R.Counters.CheckGuards, 0u) << "discharged guards emit no test";

  // Entering fill directly would bypass the range proof; refused.
  RunRequest RO;
  RO.Entry = "fill";
  RunResult RBad = runSession(Prog, RO).Combined;
  EXPECT_FALSE(RBad.ok());
}

TEST(RuntimeHulls, SymbolicNestWithDistinctLimitsStaysSound) {
  // Re-hoisting the inner loop's guarded hull out of the outer *symbolic*
  // loop conjoins the outer trip test onto the moved guard. The moved
  // guard chain (sext/icmp on m) must be spliced into the preheader
  // before the conjunction that uses it — a use-before-def there reads 0,
  // silently disabling both the hull and its fallback. Distinct limits
  // keep localCSE from accidentally repairing the order.
  const char *Src = "long a[64];\n"
                    "int main(int n, int m) {\n"
                    "  long s = 0;\n"
                    "  for (int i = 0; i < n; i++)\n"
                    "    for (int j = 0; j < m; j++) { a[j] = j; s = s + 1; }\n"
                    "  return (int)(s % 100);\n"
                    "}";
  BuildResult Prog = planBuild(Src);
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  ASSERT_TRUE(verifyModule(*Prog.M).empty())
      << verifyModule(*Prog.M).front();

  RunRequest RO;
  RO.Args = {8, 32};
  RunResult R = runSession(Prog, RO).Combined;
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ExitCode, 56);
  EXPECT_GE(R.Counters.Checks, 1u) << "the hull must actually execute";
  EXPECT_LE(R.Counters.Checks, 4u);

  RO.Args = {8, 65}; // Inner limit overruns a[64]: must trap, not run clean.
  EXPECT_EQ(runSession(Prog, RO).Combined.Trap, TrapKind::SpatialViolation);

  RO.Args = {0, 65}; // Outer zero-trip: nothing runs, nothing traps.
  RunResult RZ = runSession(Prog, RO).Combined;
  ASSERT_TRUE(RZ.ok()) << RZ.Message;
  EXPECT_EQ(RZ.Counters.Checks, 0u);
}

//===----------------------------------------------------------------------===//
// Two-symbol affine hulls: symbolic init, decreasing, strided shapes
//===----------------------------------------------------------------------===//

/// The `for (i = lo; i < hi; i++)` shape: both endpoints only known at
/// run time (main's arguments — externally reachable, so no argument
/// range can discharge the guard statically).
const char *TwoSymSweepSrc = "long buf[64];\n"
                             "int main(int lo, int hi) {\n"
                             "  long s = 0;\n"
                             "  for (int i = lo; i < hi; i++) {\n"
                             "    buf[i] = 7; s = s + buf[i];\n"
                             "  }\n"
                             "  return (int)(s % 100);\n"
                             "}";

TEST(RuntimeHulls, TwoSymbolSweepCollapsesToGuardedHull) {
  BuildResult Prog = planBuild(TwoSymSweepSrc);
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  const CheckOptStats &S = Prog.Pipeline.CheckOpt;
  EXPECT_GE(S.LoopsCountedRuntime, 1u);
  EXPECT_GE(S.LoopsCountedSymInit, 1u);
  EXPECT_EQ(S.RuntimeHullChecks, 2u) << "one guarded hull per endpoint";
  EXPECT_GE(S.RuntimeGuardedFallbacks, 1u);

  RunRequest RO;
  RO.Args = {0, 16};
  RunResult R = runSession(Prog, RO).Combined;
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ExitCode, 12);
  EXPECT_EQ(R.Counters.Checks, 2u) << "O(hi-lo) -> O(1) dynamic checks";

  RO.Args = {5, 13}; // Interior window.
  R = runSession(Prog, RO).Combined;
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ExitCode, 56);
  EXPECT_EQ(R.Counters.Checks, 2u);

  // Without the runtime-limit knob the loop keeps per-iteration checks.
  CheckOptConfig NoRT;
  NoRT.RuntimeLimitHulls = false;
  BuildResult Off = planBuild(TwoSymSweepSrc, {}, NoRT);
  ASSERT_TRUE(Off.ok());
  EXPECT_EQ(Off.Pipeline.CheckOpt.RuntimeHullChecks, 0u);
  RO.Args = {0, 16};
  RunResult ROff = runSession(Off, RO).Combined;
  EXPECT_EQ(ROff.ExitCode, 12);
  EXPECT_GE(ROff.Counters.Checks, 16u);
}

TEST(RuntimeHulls, TwoSymbolZeroTripPerformsNoCheck) {
  // lo > hi (and lo == hi): the exact trip test fails, the hull pair is
  // skipped, and the never-executing fallback performs no check either —
  // even though both "endpoints" would be wildly out of bounds.
  BuildResult Prog = planBuild(TwoSymSweepSrc);
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  for (auto [Lo, Hi] : {std::pair<int64_t, int64_t>{5, 2},
                        {9, 9},
                        {100, -100}}) {
    RunRequest RO;
    RO.Args = {Lo, Hi};
    RunResult R = runSession(Prog, RO).Combined;
    ASSERT_TRUE(R.ok()) << "lo=" << Lo << " hi=" << Hi << " "
                        << trapName(R.Trap) << " " << R.Message;
    EXPECT_EQ(R.ExitCode, 0);
    EXPECT_EQ(R.Counters.Checks, 0u)
        << "a zero-trip lo..hi loop must perform no check at all";
    EXPECT_GE(R.Counters.GuardSkips, 2u);
  }
}

TEST(RuntimeHulls, TwoSymbolHullTrapsOnEitherEndpoint) {
  BuildResult Prog = planBuild(TwoSymSweepSrc);
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  RunRequest RO;
  RO.Args = {0, 64};
  EXPECT_TRUE(runSession(Prog, RO).Combined.ok()) << "hi == extent is clean";
  RO.Args = {0, 65}; // Overflow: the high hull corner traps.
  RunResult RHi = runSession(Prog, RO).Combined;
  EXPECT_EQ(RHi.Trap, TrapKind::SpatialViolation) << trapName(RHi.Trap);
  EXPECT_EQ(RHi.Counters.Checks, 2u) << "the hull traps before the loop";
  RO.Args = {-1, 4}; // Underflow: the low hull corner traps first.
  RunResult RLo = runSession(Prog, RO).Combined;
  EXPECT_EQ(RLo.Trap, TrapKind::SpatialViolation) << trapName(RLo.Trap);
  EXPECT_EQ(RLo.Counters.Checks, 1u);
}

TEST(RuntimeHulls, DecreasingFromSymbolicInitStillTrapsUnderflow) {
  // The decreasing shape `i = n - 1; i >= 0; i--`: symbolic *init*
  // (an SSA subtraction peeled down to the live value), constant limit.
  const char *Src = "long buf[64];\n"
                    "int main(int n) {\n"
                    "  long s = 0;\n"
                    "  for (int i = n - 1; i >= 0; i--) {\n"
                    "    buf[i] = 2; s = s + 1;\n"
                    "  }\n"
                    "  return (int)s;\n"
                    "}";
  BuildResult Prog = planBuild(Src);
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  EXPECT_GE(Prog.Pipeline.CheckOpt.LoopsCountedSymInit, 1u);
  EXPECT_EQ(Prog.Pipeline.CheckOpt.RuntimeHullChecks, 2u);

  RunRequest RO;
  RO.Args = {64};
  RunResult R = runSession(Prog, RO).Combined;
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ExitCode, 64);
  EXPECT_EQ(R.Counters.Checks, 2u) << "O(n) -> O(1) dynamic checks";

  RO.Args = {0}; // i starts at -1: zero-trip downward, no check.
  R = runSession(Prog, RO).Combined;
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Counters.Checks, 0u);

  RO.Args = {65}; // buf[64] overflows: the high hull corner traps.
  EXPECT_EQ(runSession(Prog, RO).Combined.Trap, TrapKind::SpatialViolation);
}

const char *StridedSweepSrc = "long buf[96];\n"
                              "int main(int n) {\n"
                              "  long s = 0;\n"
                              "  for (int i = 0; i < n; i = i + 4) {\n"
                              "    buf[i] = 1; s = s + 1;\n"
                              "  }\n"
                              "  return (int)s;\n"
                              "}";

TEST(RuntimeHulls, StrideDivisibilityGuardGatesTheHull) {
  BuildResult Prog = planBuild(StridedSweepSrc);
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  const CheckOptStats &S = Prog.Pipeline.CheckOpt;
  EXPECT_GE(S.LoopsCountedStrided, 1u);
  EXPECT_GE(S.RuntimeDivisGuards, 1u);
  EXPECT_EQ(S.RuntimeHullChecks, 2u);

  RunRequest RO;
  RO.Args = {16}; // Divisible span: hull pair covers the loop.
  RunResult RIn = runSession(Prog, RO).Combined;
  ASSERT_TRUE(RIn.ok()) << RIn.Message;
  EXPECT_EQ(RIn.ExitCode, 4);
  EXPECT_EQ(RIn.Counters.Checks, 2u) << "divisible: hulls only";

  RO.Args = {14}; // 14 % 4 != 0: the divisibility fallback must fire.
  RunResult ROut = runSession(Prog, RO).Combined;
  ASSERT_TRUE(ROut.ok()) << ROut.Message;
  EXPECT_EQ(ROut.ExitCode, 4);
  EXPECT_EQ(ROut.Counters.Checks, 4u)
      << "non-divisible spans keep exact per-iteration checking";

  RO.Args = {100}; // buf[96] overflows; 100 % 4 == 0: the hull traps.
  RunResult RTrap = runSession(Prog, RO).Combined;
  EXPECT_EQ(RTrap.Trap, TrapKind::SpatialViolation) << trapName(RTrap.Trap);
  EXPECT_EQ(RTrap.Counters.Checks, 2u);

  RO.Args = {99}; // Overflow on a non-divisible span: the fallback traps.
  EXPECT_EQ(runSession(Prog, RO).Combined.Trap, TrapKind::SpatialViolation);
}

TEST(RuntimeHulls, MutatedBoundVariablesStaySound) {
  // `hi` is reassigned inside the loop: after mem2reg the limit is a phi
  // defined in the loop, so symbolic recognition must refuse the loop
  // outright. `lo` mutated in the body is different: the IV's init
  // operand is the *pre-loop* SSA value, which a body assignment cannot
  // change, so recognition is sound either way. Both must match the
  // unoptimized build exactly.
  const char *MutHi = "int a[16];\n"
                      "int main(int n) {\n"
                      "  int hi = 12;\n"
                      "  long s = 0;\n"
                      "  for (int i = 0; i < hi; i++) {\n"
                      "    a[i] = i; hi = hi - n; s = s + a[i];\n"
                      "  }\n"
                      "  return (int)s;\n"
                      "}";
  BuildResult Prog = planBuild(MutHi);
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  EXPECT_EQ(Prog.Pipeline.CheckOpt.LoopsCountedRuntime, 0u)
      << "an in-loop-mutated limit must not be recognized";
  for (int64_t N : {int64_t(0), int64_t(1), int64_t(3)}) {
    RunRequest RO;
    RO.Args = {N};
    RunResult R = runSession(Prog, RO).Combined;
    RunResult ROff = runSession(unoptPlan(MutHi), RO).Combined;
    ASSERT_TRUE(R.ok() && ROff.ok()) << "n=" << N;
    EXPECT_EQ(R.ExitCode, ROff.ExitCode) << "n=" << N;
  }

  const char *MutLo = "int a[16];\n"
                      "int main(int n) {\n"
                      "  int lo = n;\n"
                      "  long s = 0;\n"
                      "  for (int i = lo; i < 12; i++) {\n"
                      "    a[i] = i; lo = lo + 100; s = s + a[i];\n"
                      "  }\n"
                      "  return (int)s;\n"
                      "}";
  BuildResult Prog2 = planBuild(MutLo);
  ASSERT_TRUE(Prog2.ok()) << Prog2.errorText();
  for (int64_t N : {int64_t(0), int64_t(5), int64_t(12)}) {
    RunRequest RO;
    RO.Args = {N};
    RunResult R = runSession(Prog2, RO).Combined;
    RunResult ROff = runSession(unoptPlan(MutLo), RO).Combined;
    ASSERT_TRUE(R.ok() && ROff.ok()) << "n=" << N;
    EXPECT_EQ(R.ExitCode, ROff.ExitCode) << "n=" << N;
  }
}

TEST(RuntimeHulls, TriangularNestWithDerivedSymbolNeverFalselyTraps) {
  // The inner init `j + 1` is *derived from* the outer IV, so the nest is
  // triangular, not rectangular: widening the hull over j while the
  // corners read the live value of j+1 would mix iterations and check
  // a[16*(n-1)+7] = a[71] — an address the program never computes. The
  // hoister must refuse the widening (symbol not invariant in the
  // enclosing loop); max real index at n=5 is 4*16+3 = 67, in bounds.
  const char *Src = "int a[68];\n"
                    "int main(int n) {\n"
                    "  long s = 0;\n"
                    "  for (int j = 0; j < 8; j++)\n"
                    "    for (int i = j + 1; i < n; i++)\n"
                    "      s = s + a[i * 16 + j];\n"
                    "  return (int)s;\n"
                    "}";
  BuildResult Prog = planBuild(Src);
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  for (int64_t N : {int64_t(0), int64_t(2), int64_t(5)}) {
    RunRequest RO;
    RO.Args = {N};
    RunResult R = runSession(Prog, RO).Combined;
    RunResult ROff = runSession(unoptPlan(Src), RO).Combined;
    ASSERT_TRUE(ROff.ok()) << "n=" << N;
    ASSERT_TRUE(R.ok()) << "n=" << N << " " << trapName(R.Trap) << " "
                        << R.Message << " (clean runs are never affected)";
    EXPECT_EQ(R.ExitCode, ROff.ExitCode) << "n=" << N;
  }
  // And the genuinely violating span still traps.
  RunRequest RO;
  RO.Args = {6}; // i reaches 5: a[5*16+7] = a[87] >= 68.
  EXPECT_EQ(runSession(Prog, RO).Combined.Trap, TrapKind::SpatialViolation);
}

TEST(RuntimeHulls, TwoSymbolInterProcRangesDischargeGuards) {
  // Both call sites pass literal windows, so the propagated ranges
  // lo in [2, 10], hi in [30, 50] prove the trip and every region
  // constraint over *both* symbols: unguarded hulls, no fallback — and
  // the module must record the whole-program contract the proof used.
  const char *Src =
      "long buf[64];\n"
      "int fill(long* p, int lo, int hi) {\n"
      "  long s = 0;\n"
      "  for (int i = lo; i < hi; i++) { p[i] = i; s = s + p[i]; }\n"
      "  return (int)(s % 100);\n"
      "}\n"
      "int main() { return fill(buf, 2, 30) + fill(buf, 10, 50); }";
  BuildResult Prog = planBuild(Src);
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  EXPECT_GE(Prog.Pipeline.CheckOpt.RuntimeGuardsDischarged, 1u);
  EXPECT_TRUE(Prog.M->hasInterProcContract());

  RunResult R = runSession(Prog).Combined;
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ExitCode, 114);
  EXPECT_EQ(R.Counters.Checks, 4u) << "two unguarded hulls per call";
  EXPECT_EQ(R.Counters.CheckGuards, 0u) << "discharged guards emit no test";

  // Entering fill directly would bypass the range proof; refused.
  RunRequest RO;
  RO.Entry = "fill";
  RunResult RBad = runSession(Prog, RO).Combined;
  EXPECT_FALSE(RBad.ok());
}

TEST(RuntimeHulls, NestedConstantLoopRehoistsGuardedHulls) {
  // The inner symbolic loop's guarded hulls are invariant in the outer
  // constant loop (guard and address computed from n alone), so the outer
  // pass moves them out: the whole nest runs O(1) hull checks, not O(r).
  const char *Src =
      "long xs[2048];\n"
      "int cfg[1];\n"
      "int smooth(int n) {\n"
      "  for (int r = 0; r < 10; r++)\n"
      "    for (int i = 0; i < n; i++)\n"
      "      xs[i] = (xs[i] * 3 + 2048) / 4;\n"
      "  return (int)xs[0];\n"
      "}\n"
      "int main() {\n"
      "  cfg[0] = 1024;\n"
      "  int n = cfg[0];\n"
      "  for (int i = 0; i < n; i++) xs[i] = i;\n"
      "  return smooth(n) % 100;\n"
      "}";
  BuildResult Prog = planBuild(Src);
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  RunResult R = runSession(Prog).Combined;
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_LE(R.Counters.Checks, 4u)
      << "11k per-iteration checks collapse to one hull pair per loop nest";
}

//===----------------------------------------------------------------------===//
// Precision: the struct-field exemplar
//===----------------------------------------------------------------------===//

TEST(CheckOptRCE, StructFieldRepeatsEliminatedAcrossBlocks) {
  // Repeated accesses to the same field through one derived pointer: the
  // seed's block-local pass cannot remove the branch-body check, the
  // dominance walk can. ReoptimizeAfter is off so every elimination below
  // is attributable to the subsystem.
  const char *Src = "struct rec { long pad; long y; };\n"
                    "int main(int n) {\n"
                    "  struct rec* r = (struct rec*)malloc(16);\n"
                    "  long* q = &r->y;\n"
                    "  *q = 5;\n"
                    "  if (n) { *q = 6; }\n"
                    "  return (int)*q;\n"
                    "}";
  SoftBoundConfig SB;
  SB.ReoptimizeAfter = false;
  BuildResult Prog = planBuild(Src, SB);
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  EXPECT_GE(Prog.Pipeline.CheckOpt.DominatedEliminated +
                Prog.Pipeline.CheckOpt.RangeEliminated,
            2u)
      << "branch store and final load are both covered by the first check";
  RunRequest RO;
  RO.Args = {1};
  RunResult R = runSession(Prog, RO).Combined;
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ExitCode, 6);
}

TEST(CheckOptRCE, ShrunkFieldBoundsAreNotConflated) {
  // With sub-object shrinking, neighbouring fields carry different bounds
  // values: a check on one field must never subsume a check on another,
  // or the §2.1 sub-object overflow would slip through.
  const char *Src =
      "struct node { char str[8]; int count; };\n"
      "int main() {\n"
      "  struct node n;\n"
      "  n.count = 1000;\n"
      "  char* ptr = n.str;\n"
      "  strcpy(ptr, \"overflow...\");\n"
      "  return n.count;\n"
      "}";
  RunResult R = planRun(Src);
  EXPECT_EQ(R.Trap, TrapKind::SpatialViolation) << trapName(R.Trap);
}

//===----------------------------------------------------------------------===//
// Soundness: the attack corpus and BugBench under every knob combination
//===----------------------------------------------------------------------===//

CheckOptConfig knobConfig(int Which) {
  CheckOptConfig Cfg;
  Cfg.EliminateDominated = Which == 0 || Which == 3;
  Cfg.RangeSubsumption = Which == 1 || Which == 3;
  Cfg.HoistLoopChecks = Which == 2 || Which == 3;
  return Cfg;
}

class CheckOptAttackSweep : public ::testing::TestWithParam<int> {};

TEST_P(CheckOptAttackSweep, AttacksStillDetected) {
  // Every attack needs at least one out-of-bounds write; no sub-pass (nor
  // their combination) may lose it, in either checking mode.
  const CheckOptConfig Cfg = knobConfig(GetParam());
  for (const auto &A : attackSuite()) {
    for (CheckMode Mode : {CheckMode::Full, CheckMode::StoreOnly}) {
      SoftBoundConfig SB;
      SB.Mode = Mode;
      RunResult R = planRun(A.Source, SB, Cfg);
      EXPECT_TRUE(R.violationDetected())
          << A.Name << " knobs=" << GetParam()
          << " trap=" << trapName(R.Trap);
      EXPECT_FALSE(R.attackLanded()) << A.Name << " knobs=" << GetParam();
    }
  }
}

std::string knobName(const ::testing::TestParamInfo<int> &Info) {
  static const char *const Names[4] = {"dominated", "range", "hoist", "all"};
  return Names[Info.param];
}

INSTANTIATE_TEST_SUITE_P(AllKnobs, CheckOptAttackSweep,
                         ::testing::Range(0, 4), knobName);

TEST(CheckOptSoundness, BugBenchStillDetected) {
  for (const auto &Bug : bugbenchSuite()) {
    RunResult R = planRun(Bug.Source);
    EXPECT_TRUE(R.violationDetected())
        << Bug.Name << " trap=" << trapName(R.Trap);
  }
}

TEST(CheckOptSoundness, BenchmarksKeepExactBehaviour) {
  // Optimized instrumented runs must match the unoptimized instrumented
  // runs bit-for-bit in exit code and output on the whole suite.
  for (const auto &W : benchmarkSuite()) {
    RunResult ROn = planRun(W.Source);
    RunResult ROff = runSession(unoptPlan(W.Source)).Combined;
    ASSERT_TRUE(ROn.ok() && ROff.ok()) << W.Name;
    EXPECT_EQ(ROn.ExitCode, ROff.ExitCode) << W.Name;
    EXPECT_EQ(ROn.Output, ROff.Output) << W.Name;
    EXPECT_LE(ROn.Counters.Checks, ROff.Counters.Checks) << W.Name;
  }
}

} // namespace
