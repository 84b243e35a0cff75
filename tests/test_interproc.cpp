//===- tests/test_interproc.cpp - inter-procedural bounds propagation -------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the inter-procedural bounds propagation sub-pass
/// (opt/checks/InterProc.h) and its CallGraph substrate:
///
///   * call-graph construction: direct edges, address-taken escape,
///     recursion/SCCs, external reachability,
///   * soundness: out-of-bounds accesses through callees are still caught
///     with checkopt(interproc) on — direct, recursive, and
///     function-pointer call sites, plus the full attack and BugBench
///     suites under an interproc-only configuration,
///   * precision: callee entry checks elided when every call site proves
///     them, caller re-checks elided after calls with must-check/return
///     summaries, global-array checks settled by propagated index ranges,
///     and duplicate pre-call checks sunk into the unique callee,
///   * the acceptance criterion: strictly fewer dynamic checks on the
///     perimeter, bh, and go workloads versus checkopt(range,redundant,
///     hoist) alone, with identical program results.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "ir/IRBuilder.h"
#include "opt/checks/CallGraph.h"
#include "opt/checks/CheckOpt.h"
#include "opt/checks/InterProc.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace softbound;

namespace {

unsigned countChecksIn(const Function &F) {
  unsigned N = 0;
  for (const auto &BB : F.blocks())
    for (const auto &I : *BB)
      if (isa<SpatialCheckInst>(I.get()))
        ++N;
  return N;
}

/// Runs the propagation alone over \p M, with the analyses the checkopt
/// driver would share with it.
unsigned propagate(Module &M, CheckOptStats &Stats) {
  checkopt::CallGraph CG(M);
  checkopt::DomTreeMap DTs;
  for (const auto &F : M.functions())
    if (F->isDefinition())
      DTs.try_emplace(F.get(), *F);
  return checkopt::InterProcEngine(M, CG, DTs).propagate(Stats);
}

BuildResult buildSpec(const std::string &Src, const std::string &Spec) {
  PipelinePlan Plan;
  Plan.frontend(Src);
  std::string Err;
  EXPECT_TRUE(Plan.appendSpec(Spec, &Err)) << Err;
  BuildResult R = Plan.build();
  EXPECT_TRUE(R.ok()) << R.errorText();
  return R;
}

//===----------------------------------------------------------------------===//
// CallGraph
//===----------------------------------------------------------------------===//

TEST(CallGraph, DirectEdgesRecursionAndEscape) {
  Module M;
  TypeContext &Ctx = M.ctx();
  Type *I8P = Ctx.ptrTo(Ctx.i8());
  IRBuilder B(M);

  Function *Leaf = M.createFunction("leaf", Ctx.funcTy(Ctx.voidTy(), {}));
  B.setInsertPoint(Leaf->createBlock("entry"));
  B.ret();

  Function *Self = M.createFunction("self", Ctx.funcTy(Ctx.voidTy(), {}));
  B.setInsertPoint(Self->createBlock("entry"));
  B.call(Self, {});
  B.ret();

  Function *Escaped =
      M.createFunction("escaped", Ctx.funcTy(Ctx.voidTy(), {}));
  B.setInsertPoint(Escaped->createBlock("entry"));
  B.ret();

  Function *Main = M.createFunction("main", Ctx.funcTy(Ctx.i32(), {}));
  B.setInsertPoint(Main->createBlock("entry"));
  B.call(Leaf, {});
  B.call(Self, {});
  B.makeBounds(Escaped, Escaped); // The §5.2 encoding: address escapes.
  B.callIndirect(Escaped->functionType(), B.bitcast(Escaped, I8P), {});
  B.ret(M.constI32(0));

  checkopt::CallGraph CG(M);
  EXPECT_EQ(CG.callSites().size(), 3u); // leaf, self->self, main->self.
  EXPECT_EQ(CG.callersOf(Leaf).size(), 1u);
  EXPECT_EQ(CG.callersOf(Self).size(), 2u);

  EXPECT_FALSE(CG.isAddressTaken(Leaf));
  EXPECT_TRUE(CG.isAddressTaken(Escaped));

  EXPECT_TRUE(CG.externallyReachable(Main)) << "entry function";
  EXPECT_TRUE(CG.externallyReachable(Escaped)) << "address escapes";
  EXPECT_FALSE(CG.externallyReachable(Leaf));
  EXPECT_FALSE(CG.externallyReachable(Self));

  EXPECT_TRUE(CG.mayExitOrJump(Main)) << "indirect call";
  EXPECT_FALSE(CG.mayExitOrJump(Self));
  EXPECT_FALSE(CG.mayExitOrJump(Leaf));

  // Bottom-up: callees before callers.
  unsigned LeafScc = CG.sccId(Leaf), MainScc = CG.sccId(Main);
  EXPECT_LT(LeafScc, MainScc);
  EXPECT_EQ(CG.bottomUp(),
            (std::vector<Function *>{Leaf, Self, Escaped, Main}));

  // Two cycles, {p, r} and {s, q}, in module order s, p, q, r, main, with
  // q calling p and main calling q. Tarjan finishes r before p and q
  // before s, and the cycle holding s (first in module order) completes
  // second: bottomUp is (SCC id, module order), so ties within an SCC go
  // by module order.
  Module M2;
  auto Void = [&](const char *Name) {
    return M2.createFunction(Name, M2.ctx().funcTy(M2.ctx().voidTy(), {}));
  };
  Function *S = Void("s"), *P = Void("p"), *Q = Void("q"), *R = Void("r"),
           *Top = Void("main");
  IRBuilder B2(M2);
  auto Body = [&](Function *F, std::vector<Function *> Callees) {
    B2.setInsertPoint(F->createBlock("entry"));
    for (Function *Callee : Callees)
      B2.call(Callee, {});
    B2.ret();
  };
  Body(S, {Q});
  Body(P, {R});
  Body(Q, {S, P});
  Body(R, {P});
  Body(Top, {Q});
  checkopt::CallGraph CG2(M2);
  EXPECT_EQ(CG2.bottomUp(), (std::vector<Function *>{P, R, S, Q, Top}));
  EXPECT_EQ(CG2.sccId(P), 0u);
  EXPECT_EQ(CG2.sccId(R), 0u);
  EXPECT_EQ(CG2.sccId(S), 1u);
  EXPECT_EQ(CG2.sccId(Q), 1u);
  EXPECT_EQ(CG2.sccId(Top), 2u);
}

TEST(CallGraph, MutualRecursionFormsOneScc) {
  const char *Src = "int odd(int n);\n"
                    "int even(int n) { if (n == 0) return 1; "
                    "return odd(n - 1); }\n"
                    "int odd(int n) { if (n == 0) return 0; "
                    "return even(n - 1); }\n"
                    "int main() { return even(10); }";
  BuildResult R = buildSpec(Src, "optimize");
  ASSERT_TRUE(R.ok());
  checkopt::CallGraph CG(*R.M);
  Function *Even = R.M->getFunction("even");
  Function *Odd = R.M->getFunction("odd");
  ASSERT_NE(Even, nullptr);
  ASSERT_NE(Odd, nullptr);
  EXPECT_EQ(CG.sccId(Even), CG.sccId(Odd));
}

TEST(CallGraph, ExitOrJumpSummaryIsSharedAcrossAnScc) {
  // top -> a <-> b, and b calls exit: both members of the {a, b} cycle,
  // and everything that reaches it, may end the run without returning;
  // the unrelated leaf may not.
  Module M;
  TypeContext &Ctx = M.ctx();
  IRBuilder B(M);
  Function *Exit = M.createFunction("exit", Ctx.funcTy(Ctx.voidTy(), {}));
  Function *Leaf = M.createFunction("leaf", Ctx.funcTy(Ctx.voidTy(), {}));
  Function *A = M.createFunction("a", Ctx.funcTy(Ctx.voidTy(), {}));
  Function *Bf = M.createFunction("b", Ctx.funcTy(Ctx.voidTy(), {}));
  Function *Top = M.createFunction("top", Ctx.funcTy(Ctx.voidTy(), {}));
  B.setInsertPoint(Leaf->createBlock("entry"));
  B.ret();
  B.setInsertPoint(A->createBlock("entry"));
  B.call(Leaf, {});
  B.call(Bf, {});
  B.ret();
  B.setInsertPoint(Bf->createBlock("entry"));
  B.call(A, {});
  CallInst *ExitCall = B.call(Exit, {});
  B.ret();
  B.setInsertPoint(Top->createBlock("entry"));
  CallInst *TopCall = B.call(A, {});
  CallInst *LeafCall = B.call(Leaf, {});
  B.ret();

  checkopt::CallGraph CG(M);
  ASSERT_EQ(CG.sccId(A), CG.sccId(Bf));
  EXPECT_TRUE(CG.mayExitOrJump(A));
  EXPECT_TRUE(CG.mayExitOrJump(Bf));
  EXPECT_TRUE(CG.mayExitOrJump(Top));
  EXPECT_FALSE(CG.mayExitOrJump(Leaf));
  EXPECT_TRUE(CG.callMayExitOrJump(*ExitCall));
  EXPECT_TRUE(CG.callMayExitOrJump(*TopCall));
  EXPECT_FALSE(CG.callMayExitOrJump(*LeafCall));
}

//===----------------------------------------------------------------------===//
// Soundness: violations through callees are still detected
//===----------------------------------------------------------------------===//

TEST(InterProcSoundness, CalleeOverflowStillTrapsWhenSiteProvesLess) {
  // The caller proves [0, 4) only; the callee touches [12, 16), so its
  // check must survive and trap.
  const char *Src = "int f(int* p) { return p[3]; }\n"
                    "int main() {\n"
                    "  int* q = (int*)malloc(8);\n"
                    "  q[0] = 1;\n"
                    "  return f(q);\n"
                    "}";
  BuildResult R = buildSpec(Src, "optimize,softbound,checkopt");
  RunResult RR = runSession(R).Combined;
  EXPECT_EQ(RR.Trap, TrapKind::SpatialViolation) << trapName(RR.Trap);
}

TEST(InterProcSoundness, RecursiveCalleeOverflowStillTraps) {
  const char *Src = "int walk(int* p, int n) {\n"
                    "  if (n <= 0) return p[4];\n"
                    "  return walk(p + 1, n - 1);\n"
                    "}\n"
                    "int main() {\n"
                    "  int* q = (int*)malloc(16);\n"
                    "  q[0] = 1;\n"
                    "  return walk(q, 2);\n"
                    "}";
  BuildResult R = buildSpec(Src, "optimize,softbound,checkopt");
  RunResult RR = runSession(R).Combined;
  EXPECT_EQ(RR.Trap, TrapKind::SpatialViolation) << trapName(RR.Trap);
}

TEST(InterProcSoundness, FunctionPointerCalleeIsNeverElided) {
  // deref's address escapes into an indirect call, so its checks must
  // bottom conservatively — and still catch the overflow.
  const char *Src = "int deref(int* p) { return p[2]; }\n"
                    "int main() {\n"
                    "  int (*fn)(int*) = deref;\n"
                    "  int* q = (int*)malloc(8);\n"
                    "  q[0] = 1; q[1] = 2;\n"
                    "  return fn(q);\n"
                    "}";
  BuildResult R = buildSpec(Src, "optimize,softbound,checkopt");
  RunResult RR = runSession(R).Combined;
  EXPECT_EQ(RR.Trap, TrapKind::SpatialViolation) << trapName(RR.Trap);
}

TEST(InterProcSoundness, WrappedI64ArithmeticIsNotRangeElided) {
  // Regression: the VM wraps 64-bit arithmetic (no saturation), so the
  // interval transfers must not saturate at the i64 boundary either. x
  // climbs to 2^62 through a widened phi, the `x > 0` refinement gives
  // [1, INT64_MAX], and a *saturating* lattice would conclude
  // y = x * 2 + 61 in [63, INT64_MAX], hence y % 64 in [0, 63] —
  // statically inside hist — and delete the check. At run time y wraps
  // to INT64_MIN + 61, y % 64 == -3, and hist[-3] underflows: the check
  // must survive and trap.
  const char *Src = "int hist[64];\n"
                    "int main() {\n"
                    "  long x = 1;\n"
                    "  for (int i = 0; i < 62; i++) x = x * 2;\n"
                    "  if (x > 0) {\n"
                    "    long y = x * 2 + 61;\n"
                    "    hist[y % 64] = 1;\n"
                    "  }\n"
                    "  return 0;\n"
                    "}";
  BuildResult R = buildSpec(Src, "optimize,softbound,checkopt");
  EXPECT_EQ(R.Pipeline.CheckOpt.InterProcRangeElided, 0u)
      << "no static proof exists: y wraps";
  RunResult RR = runSession(R).Combined;
  EXPECT_EQ(RR.Trap, TrapKind::SpatialViolation) << trapName(RR.Trap);
}

TEST(InterProcSoundness, InternalEntryRejectedAfterInterProc) {
  // take's entry check was elided because its only call site proves it;
  // the module records the whole-program contract, and the run driver
  // must refuse to enter take directly (which would bypass the proof).
  const char *Src = "int take(int* p) { return p[0]; }\n"
                    "int main() {\n"
                    "  int* q = (int*)malloc(4);\n"
                    "  q[0] = 5;\n"
                    "  return take(q);\n"
                    "}";
  BuildResult On = buildSpec(Src, "optimize,softbound,checkopt");
  ASSERT_TRUE(On.M->hasInterProcContract());

  RunRequest RO;
  RO.Entry = "take";
  RunResult RR = runSession(On, RO).Combined;
  EXPECT_FALSE(RR.ok());
  EXPECT_NE(RR.Message.find("interproc"), std::string::npos) << RR.Message;

  RunResult Main = runSession(On).Combined;
  ASSERT_TRUE(Main.ok()) << Main.Message;
  EXPECT_EQ(Main.ExitCode, 5);

  // Without the interproc sub-pass no contract exists and any entry is
  // still accepted.
  BuildResult Off =
      buildSpec(Src, "optimize,softbound,checkopt(redundant,range,hoist)");
  EXPECT_FALSE(Off.M->hasInterProcContract());
  RunResult OffTake = runSession(Off, RO).Combined;
  EXPECT_EQ(OffTake.Message.find("interproc"), std::string::npos)
      << OffTake.Message;
}

TEST(InterProcSoundness, AttackAndBugBenchSuitesStayDetected) {
  // Interproc alone (no other sub-passes masking it): every Table 3
  // attack and Table 4 bug must still be detected.
  for (const AttackCase &A : attackSuite()) {
    BuildResult R =
        buildSpec(A.Source, "optimize,softbound,checkopt(interproc)");
    RunResult RR = runSession(R).Combined;
    EXPECT_TRUE(RR.violationDetected())
        << A.Name << ": trap=" << trapName(RR.Trap);
    EXPECT_FALSE(RR.attackLanded()) << A.Name;
  }
  for (const BugCase &Bug : bugbenchSuite()) {
    BuildResult R =
        buildSpec(Bug.Source, "optimize,softbound,checkopt(interproc)");
    RunResult RR = runSession(R).Combined;
    EXPECT_TRUE(RR.violationDetected())
        << Bug.Name << ": trap=" << trapName(RR.Trap);
  }
}

//===----------------------------------------------------------------------===//
// Precision: the four elision mechanisms
//===----------------------------------------------------------------------===//

TEST(InterProcPrecision, CalleeChecksElidedWhenEverySiteProves) {
  const char *Src = "int take(int* p) { return p[0] + p[1]; }\n"
                    "int main() {\n"
                    "  int* q = (int*)malloc(40);\n"
                    "  q[0] = 1; q[1] = 2;\n"
                    "  return take(q);\n"
                    "}";
  BuildResult Off =
      buildSpec(Src, "optimize,softbound,checkopt(redundant,range,hoist)");
  BuildResult On = buildSpec(Src, "optimize,softbound,checkopt");
  EXPECT_GE(On.Pipeline.CheckOpt.InterProcCalleeElided, 2u)
      << "both callee loads are caller-proven";

  Function *Take = On.M->getFunction("_sb_take");
  ASSERT_NE(Take, nullptr);
  EXPECT_EQ(countChecksIn(*Take), 0u);

  RunResult ROff = runSession(Off).Combined;
  RunResult ROn = runSession(On).Combined;
  ASSERT_TRUE(ROff.ok() && ROn.ok());
  EXPECT_EQ(ROn.ExitCode, ROff.ExitCode);
  EXPECT_LT(ROn.Counters.Checks, ROff.Counters.Checks);
}

TEST(InterProcPrecision, CallerRecheckElidedViaMustCheckSummary) {
  // f checks p[0] on every path to its return, so the caller's later
  // q[0] re-check is redundant; the q[1] access is not covered.
  const char *Src = "int f(int* p) { p[0] = 9; return p[0]; }\n"
                    "int main() {\n"
                    "  int* q = (int*)malloc(8);\n"
                    "  int a = f(q);\n"
                    "  q[1] = 5;\n"
                    "  return a + q[0];\n"
                    "}";
  BuildResult On = buildSpec(Src, "optimize,softbound,checkopt");
  EXPECT_GE(On.Pipeline.CheckOpt.InterProcCallerElided, 1u);
  RunResult RR = runSession(On).Combined;
  ASSERT_TRUE(RR.ok()) << RR.Message;
  EXPECT_EQ(RR.ExitCode, 18);
}

TEST(InterProcPrecision, ReturnSummarySeedsCallerFacts) {
  const char *Src = "int* mk() {\n"
                    "  int* p = (int*)malloc(8);\n"
                    "  p[0] = 7;\n"
                    "  return p;\n"
                    "}\n"
                    "int main() {\n"
                    "  int* q = mk();\n"
                    "  return q[0];\n"
                    "}";
  BuildResult On = buildSpec(Src, "optimize,softbound,checkopt");
  EXPECT_GE(On.Pipeline.CheckOpt.InterProcRetSummaries, 1u);
  EXPECT_GE(On.Pipeline.CheckOpt.InterProcCallerElided, 1u)
      << "q[0] was checked against the returned bounds inside mk";
  RunResult RR = runSession(On).Combined;
  ASSERT_TRUE(RR.ok()) << RR.Message;
  EXPECT_EQ(RR.ExitCode, 7);
}

TEST(InterProcPrecision, GuardedGlobalIndexElidedByRanges) {
  // `continue` makes the loop body multi-block, so constant-hull hoisting
  // skips it; the propagated range proof settles the check instead.
  const char *Src = "int tab[100];\n"
                    "int main() {\n"
                    "  long s = 0;\n"
                    "  for (int i = 0; i < 100; i++) {\n"
                    "    if (i % 3 == 0) continue;\n"
                    "    s += tab[i];\n"
                    "  }\n"
                    "  return (int)(s % 7);\n"
                    "}";
  BuildResult Off =
      buildSpec(Src, "optimize,softbound,checkopt(redundant,range,hoist)");
  BuildResult On = buildSpec(Src, "optimize,softbound,checkopt");
  EXPECT_GE(On.Pipeline.CheckOpt.InterProcRangeElided, 1u);
  RunResult ROff = runSession(Off).Combined;
  RunResult ROn = runSession(On).Combined;
  ASSERT_TRUE(ROff.ok() && ROn.ok());
  EXPECT_EQ(ROn.ExitCode, ROff.ExitCode);
  EXPECT_LT(ROn.Counters.Checks, ROff.Counters.Checks);
}

TEST(InterProcPrecision, ArgumentRangesPropagateThroughRecursion) {
  // perimeter's shape: the recursion halves a positive argument, so the
  // modulo-indexed histogram access provably stays inside the global.
  const char *Src = "int hist[64];\n"
                    "int depth2(int size) {\n"
                    "  hist[size % 64] += 1;\n"
                    "  if (size <= 1) return 1;\n"
                    "  return depth2(size / 2) + 1;\n"
                    "}\n"
                    "int main() { return depth2(64); }";
  BuildResult On = buildSpec(Src, "optimize,softbound,checkopt");
  // (The store side of `+=` is already RCE'd as dominated by the load's
  // check; the survivor settles through the propagated argument range.)
  EXPECT_GE(On.Pipeline.CheckOpt.InterProcRangeElided, 1u);
  Function *F = On.M->getFunction("_sb_depth2");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(countChecksIn(*F), 0u) << "no dynamic checks remain in depth2";
  RunResult RR = runSession(On).Combined;
  ASSERT_TRUE(RR.ok()) << RR.Message;
  EXPECT_EQ(RR.ExitCode, 7);
}

TEST(InterProcPrecision, DuplicateCallerCheckSinksIntoCallee) {
  // Hand-built IR: the caller's check immediately precedes the call (no
  // access in between) and the callee re-verifies a superset on every
  // path to its return — the caller copy is deleted, the callee's wider
  // check survives (the call site proves only [0, 4) of its [0, 8)).
  Module M;
  TypeContext &Ctx = M.ctx();
  Type *I8P = Ctx.ptrTo(Ctx.i8());
  Type *BT = Ctx.boundsTy();
  IRBuilder B(M);

  Function *F =
      M.createFunction("_sb_f", Ctx.funcTy(Ctx.voidTy(), {I8P, BT}));
  F->setTransformed();
  B.setInsertPoint(F->createBlock("entry"));
  B.spatialCheck(F->arg(0), F->arg(1), 8, /*IsStore=*/true);
  B.ret();

  Function *Caller =
      M.createFunction("_sb_caller", Ctx.funcTy(Ctx.voidTy(), {I8P, BT}));
  Caller->setTransformed();
  B.setInsertPoint(Caller->createBlock("entry"));
  B.spatialCheck(Caller->arg(0), Caller->arg(1), 4, /*IsStore=*/true);
  B.call(F, {Caller->arg(0), Caller->arg(1)});
  B.ret();

  CheckOptStats Stats;
  unsigned Deleted = propagate(M, Stats);
  EXPECT_EQ(Deleted, 1u);
  EXPECT_EQ(Stats.InterProcSunkElided, 1u);
  EXPECT_EQ(countChecksIn(*Caller), 0u);
  EXPECT_EQ(countChecksIn(*F), 1u) << "callee's wider check must survive";
}

TEST(InterProcPrecision, EqualSizeSinkKeepsExactlyOneCopy) {
  // Caller and callee check the *same* condition. The sunk caller copy
  // must not feed the fact that would let the callee's copy be
  // callee-elided too — exactly one of the two may be deleted, or an
  // out-of-bounds pointer would trap in neither.
  Module M;
  TypeContext &Ctx = M.ctx();
  Type *I8P = Ctx.ptrTo(Ctx.i8());
  Type *BT = Ctx.boundsTy();
  IRBuilder B(M);

  Function *F =
      M.createFunction("_sb_f", Ctx.funcTy(Ctx.voidTy(), {I8P, BT}));
  F->setTransformed();
  B.setInsertPoint(F->createBlock("entry"));
  B.spatialCheck(F->arg(0), F->arg(1), 8, /*IsStore=*/true);
  B.ret();

  Function *Caller =
      M.createFunction("_sb_caller", Ctx.funcTy(Ctx.voidTy(), {I8P, BT}));
  Caller->setTransformed();
  B.setInsertPoint(Caller->createBlock("entry"));
  B.spatialCheck(Caller->arg(0), Caller->arg(1), 8, /*IsStore=*/true);
  B.call(F, {Caller->arg(0), Caller->arg(1)});
  B.ret();

  CheckOptStats Stats;
  unsigned Deleted = propagate(M, Stats);
  EXPECT_EQ(Deleted, 1u);
  EXPECT_EQ(countChecksIn(*Caller) + countChecksIn(*F), 1u)
      << "one copy of the condition must survive";
}

TEST(InterProcPrecision, SinkRequiresCalleeEntryCheck) {
  // The callee's check sits behind another call (which could exit() or
  // longjmp away), so it is not a must-execute-first entry check and the
  // caller's copy must stay.
  Module M;
  TypeContext &Ctx = M.ctx();
  Type *I8P = Ctx.ptrTo(Ctx.i8());
  Type *BT = Ctx.boundsTy();
  IRBuilder B(M);

  Function *Leaf = M.createFunction("_sb_leaf", Ctx.funcTy(Ctx.voidTy(), {}));
  B.setInsertPoint(Leaf->createBlock("entry"));
  B.ret();

  Function *F =
      M.createFunction("_sb_f", Ctx.funcTy(Ctx.voidTy(), {I8P, BT}));
  F->setTransformed();
  B.setInsertPoint(F->createBlock("entry"));
  B.call(Leaf, {});
  B.spatialCheck(F->arg(0), F->arg(1), 8, true);
  B.ret();

  Function *Caller =
      M.createFunction("_sb_caller", Ctx.funcTy(Ctx.voidTy(), {I8P, BT}));
  Caller->setTransformed();
  B.setInsertPoint(Caller->createBlock("entry"));
  B.spatialCheck(Caller->arg(0), Caller->arg(1), 4, true);
  B.call(F, {Caller->arg(0), Caller->arg(1)});
  B.ret();

  CheckOptStats Stats;
  propagate(M, Stats);
  EXPECT_EQ(Stats.InterProcSunkElided, 0u);
  EXPECT_EQ(countChecksIn(*Caller), 1u);
}

TEST(InterProcPrecision, SinkBlockedByInterveningAccess) {
  // Same shape, but a store between check and call: the caller's check
  // guards it, so nothing may sink.
  Module M;
  TypeContext &Ctx = M.ctx();
  Type *I8P = Ctx.ptrTo(Ctx.i8());
  Type *BT = Ctx.boundsTy();
  IRBuilder B(M);

  Function *F =
      M.createFunction("_sb_f", Ctx.funcTy(Ctx.voidTy(), {I8P, BT}));
  F->setTransformed();
  B.setInsertPoint(F->createBlock("entry"));
  B.spatialCheck(F->arg(0), F->arg(1), 8, true);
  B.ret();

  Function *Caller =
      M.createFunction("_sb_caller", Ctx.funcTy(Ctx.voidTy(), {I8P, BT}));
  Caller->setTransformed();
  B.setInsertPoint(Caller->createBlock("entry"));
  B.spatialCheck(Caller->arg(0), Caller->arg(1), 4, true);
  B.store(M.constI32(1), B.bitcast(Caller->arg(0), Ctx.ptrTo(Ctx.i32())));
  B.call(F, {Caller->arg(0), Caller->arg(1)});
  B.ret();

  CheckOptStats Stats;
  propagate(M, Stats);
  EXPECT_EQ(Stats.InterProcSunkElided, 0u);
  EXPECT_EQ(countChecksIn(*Caller), 1u);
}

//===----------------------------------------------------------------------===//
// Scalability: pathologically deep modules must not overflow the stack
//===----------------------------------------------------------------------===//

TEST(CallGraph, DeepCallChainDoesNotOverflowHostStack) {
  // A 50000-deep direct call chain: the SCC computation must walk the
  // graph iteratively — recursing per call edge would exhaust the host
  // stack long before this depth.
  Module M;
  TypeContext &Ctx = M.ctx();
  IRBuilder B(M);
  constexpr unsigned N = 50000;
  std::vector<Function *> Fs(N);
  for (unsigned I = 0; I < N; ++I)
    Fs[I] = M.createFunction(std::string("f").append(std::to_string(I)),
                             Ctx.funcTy(Ctx.voidTy(), {}));
  for (unsigned I = 0; I < N; ++I) {
    B.setInsertPoint(Fs[I]->createBlock("entry"));
    if (I + 1 < N)
      B.call(Fs[I + 1], {});
    B.ret();
  }

  checkopt::CallGraph CG(M);
  EXPECT_EQ(CG.callSites().size(), N - 1);
  // Completion order: the leaf finishes first, the root last.
  EXPECT_EQ(CG.sccId(Fs[N - 1]), 0u);
  EXPECT_EQ(CG.sccId(Fs[0]), N - 1);
  EXPECT_FALSE(CG.externallyReachable(Fs[1]));
  EXPECT_FALSE(CG.mayExitOrJump(Fs[0]));
}

TEST(InterProcPrecision, DeepCfgChainIsWalkedIteratively) {
  // One function with a 10000-block straight-line CFG: the refinement
  // accumulation and the fact walk both traverse the dominator tree with
  // explicit worklists. The entry check dominates the identical final
  // check, which must still be elided at this depth.
  Module M;
  TypeContext &Ctx = M.ctx();
  Type *I8P = Ctx.ptrTo(Ctx.i8());
  Type *BT = Ctx.boundsTy();
  IRBuilder B(M);

  Function *F =
      M.createFunction("_sb_f", Ctx.funcTy(Ctx.voidTy(), {I8P, BT}));
  F->setTransformed();
  B.setInsertPoint(F->createBlock("b0"));
  B.spatialCheck(F->arg(0), F->arg(1), 8, /*IsStore=*/true);
  for (unsigned I = 1; I < 10000; ++I) {
    BasicBlock *Next =
        F->createBlock(std::string("b").append(std::to_string(I)));
    B.br(Next);
    B.setInsertPoint(Next);
  }
  B.spatialCheck(F->arg(0), F->arg(1), 8, /*IsStore=*/true);
  B.ret();

  CheckOptStats Stats;
  unsigned Deleted = propagate(M, Stats);
  EXPECT_EQ(Deleted, 1u);
  EXPECT_EQ(Stats.InterProcCallerElided, 1u);
  EXPECT_EQ(countChecksIn(*F), 1u) << "the dominating entry check survives";
}

//===----------------------------------------------------------------------===//
// Acceptance: recursive workloads
//===----------------------------------------------------------------------===//

TEST(InterProcAcceptance, FewerDynamicChecksOnRecursiveWorkloads) {
  for (const std::string Name : {"perimeter", "bh", "go"}) {
    const Workload *W = nullptr;
    for (const auto &Cand : benchmarkSuite())
      if (Cand.Name == Name)
        W = &Cand;
    ASSERT_NE(W, nullptr) << Name;

    BuildResult Off = buildSpec(W->Source,
                                "optimize,softbound,checkopt(redundant,"
                                "range,hoist)");
    BuildResult On = buildSpec(W->Source, "optimize,softbound,checkopt");
    RunResult ROff = runSession(Off).Combined;
    RunResult ROn = runSession(On).Combined;
    ASSERT_TRUE(ROff.ok()) << Name << ": " << ROff.Message;
    ASSERT_TRUE(ROn.ok()) << Name << ": " << ROn.Message;
    EXPECT_EQ(ROn.ExitCode, ROff.ExitCode) << Name;
    EXPECT_LT(ROn.Counters.Checks, ROff.Counters.Checks)
        << Name << ": interproc must measurably reduce dynamic checks";
    EXPECT_GT(On.Pipeline.CheckOpt.InterProcChecksElided, 0u) << Name;
  }
}

} // namespace
