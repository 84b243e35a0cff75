//===- tests/test_opt.cpp - optimizer pass tests ----------------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the optimizer the instrumentation rides on: mem2reg promotes
/// scalars (and leaves address-taken ones alone), folding/CSE/DCE shrink
/// code without changing behaviour, and the whole pipeline keeps modules
/// verifier-clean.
///
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "opt/Passes.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

using namespace softbound;

namespace {

/// Counts instructions of a kind in a function.
unsigned countKind(Function &F, ValueKind K) {
  unsigned N = 0;
  for (auto &BB : F.blocks())
    for (auto &I : *BB)
      if (I->kind() == K)
        ++N;
  return N;
}

std::unique_ptr<Module> compileOk(const std::string &Src) {
  CompileResult CR = compileC(Src);
  EXPECT_TRUE(CR.ok()) << CR.errorText();
  return std::move(CR.M);
}

TEST(Mem2Reg, PromotesScalarLocals) {
  auto M = compileOk("int main() {\n"
                     "  int a = 1;\n"
                     "  int b = 2;\n"
                     "  for (int i = 0; i < 10; i++) a += b;\n"
                     "  return a;\n"
                     "}");
  Function *F = M->getFunction("main");
  EXPECT_GT(countKind(*F, ValueKind::Alloca), 0u);
  simplifyCFG(*F);
  mem2reg(*F);
  EXPECT_EQ(countKind(*F, ValueKind::Alloca), 0u);
  EXPECT_GT(countKind(*F, ValueKind::Phi), 0u) << "loop vars need phis";
  EXPECT_TRUE(verifyModule(*M).empty());

  VM Machine(*M, VMConfig{});
  EXPECT_EQ(Machine.run("main").ExitCode, 21);
}

TEST(Mem2Reg, AddressTakenStaysInMemory) {
  auto M = compileOk("int main() {\n"
                     "  int a = 5;\n"
                     "  int* p = &a;\n"
                     "  *p = 7;\n"
                     "  return a;\n"
                     "}");
  Function *F = M->getFunction("main");
  simplifyCFG(*F);
  mem2reg(*F);
  // `a` is address-taken: must remain an alloca; `p` is promotable.
  EXPECT_EQ(countKind(*F, ValueKind::Alloca), 1u);
  VM Machine(*M, VMConfig{});
  EXPECT_EQ(Machine.run("main").ExitCode, 7);
}

TEST(Mem2Reg, ArraysAreNotPromoted) {
  auto M = compileOk("int main() {\n"
                     "  int a[4];\n"
                     "  a[0] = 3;\n"
                     "  return a[0];\n"
                     "}");
  Function *F = M->getFunction("main");
  simplifyCFG(*F);
  mem2reg(*F);
  EXPECT_EQ(countKind(*F, ValueKind::Alloca), 1u);
}

TEST(ConstantFold, FoldsArithmeticAndBranches) {
  auto M = compileOk("int main() {\n"
                     "  int x = 2 + 3 * 4;\n"
                     "  if (1) return x;\n"
                     "  return 99;\n"
                     "}");
  Function *F = M->getFunction("main");
  optimizeFunction(*F, *M);
  // Everything folds to "ret 14": no binops, no conditional branches.
  EXPECT_EQ(countKind(*F, ValueKind::BinOp), 0u);
  EXPECT_TRUE(verifyModule(*M).empty());
  VM Machine(*M, VMConfig{});
  EXPECT_EQ(Machine.run("main").ExitCode, 14);
}

TEST(LocalCSE, DeduplicatesPureExpressions) {
  auto M = compileOk("int f(int* p, int i) { return p[i] + p[i]; }\n"
                     "int main() { int a[4]; a[2] = 21; return f(a, 2); }");
  Function *F = M->getFunction("f");
  simplifyCFG(*F);
  mem2reg(*F);
  unsigned GepsBefore = countKind(*F, ValueKind::GEP);
  localCSE(*F);
  EXPECT_LT(countKind(*F, ValueKind::GEP), GepsBefore);
  EXPECT_TRUE(verifyModule(*M).empty());
  VM Machine(*M, VMConfig{});
  EXPECT_EQ(Machine.run("main").ExitCode, 42);
}

TEST(DCE, RemovesUnusedPureCode) {
  auto M = compileOk("int main() {\n"
                     "  int unused = 3 * 14;\n"
                     "  int kept = 6;\n"
                     "  return kept * 7;\n"
                     "}");
  Function *F = M->getFunction("main");
  optimizeFunction(*F, *M);
  // After the pipeline only the return path's computation remains.
  unsigned Total = 0;
  for (auto &BB : F->blocks())
    Total += BB->size();
  EXPECT_LE(Total, 2u) << printFunction(*F);
  VM Machine(*M, VMConfig{});
  EXPECT_EQ(Machine.run("main").ExitCode, 42);
}

TEST(SimplifyCFG, RemovesDeadBlocksAfterReturn) {
  auto M = compileOk("int main() {\n"
                     "  return 1;\n"
                     "  return 2;\n"
                     "}");
  Function *F = M->getFunction("main");
  simplifyCFG(*F);
  EXPECT_LE(F->blocks().size(), 2u);
  EXPECT_TRUE(verifyModule(*M).empty());
}

TEST(Pipeline, LongIfChainFoldsInOnePass) {
  // 4000 copies of `if (x) { y = y + a[k % 16]; }` with x known to be
  // 1: every branch, compare, remainder and join phi of the chain folds
  // away, leaving the blocks, compares and phis of the fill loop alone.
  // Each pass applies its replacements in one rewrite of the body, so
  // this stays well inside the test timeout (one whole-body scan per
  // replacement took seconds).
  auto Chain = [](int N) {
    std::string Src = "int a[16];\n"
                      "int main() {\n"
                      "  for (int i = 0; i < 16; i++) a[i] = i;\n"
                      "  int x = 1;\n"
                      "  int y = 0;\n";
    for (int K = 0; K < N; ++K)
      Src += "  if (x) { y = y + a[" + std::to_string(K) + " % 16]; }\n";
    return Src + "  return y;\n}\n";
  };
  constexpr int N = 4000;
  auto M = compileOk(Chain(N));
  auto Loop = compileOk(Chain(0));
  optimizeModule(*M);
  optimizeModule(*Loop);
  ASSERT_TRUE(verifyModule(*M).empty());
  Function *F = M->getFunction("main");
  Function *LoopF = Loop->getFunction("main");
  unsigned Rems = 0;
  for (auto &BB : F->blocks())
    for (auto &I : *BB)
      if (auto *B = dyn_cast<BinOpInst>(I.get()))
        Rems += B->opcode() == BinOpInst::Op::SRem;
  EXPECT_EQ(Rems, 0u);
  EXPECT_EQ(F->blocks().size(), LoopF->blocks().size());
  EXPECT_EQ(countKind(*F, ValueKind::ICmp),
            countKind(*LoopF, ValueKind::ICmp));
  EXPECT_EQ(countKind(*F, ValueKind::Phi), countKind(*LoopF, ValueKind::Phi));
  EXPECT_EQ(countKind(*F, ValueKind::Load), static_cast<unsigned>(N));
  VM Machine(*M, VMConfig{});
  // y = sum of k % 16 over k < 4000 = 250 * (0 + 1 + ... + 15).
  EXPECT_EQ(Machine.run("main").ExitCode, 250 * 120);
}

TEST(Pipeline, OptimizationPreservesRecursion) {
  auto M = compileOk("int ack(int m, int n) {\n"
                     "  if (m == 0) return n + 1;\n"
                     "  if (n == 0) return ack(m - 1, 1);\n"
                     "  return ack(m - 1, ack(m, n - 1));\n"
                     "}\n"
                     "int main() { return ack(2, 3); }");
  optimizeModule(*M);
  EXPECT_TRUE(verifyModule(*M).empty());
  VM Machine(*M, VMConfig{});
  EXPECT_EQ(Machine.run("main").ExitCode, 9);
}

TEST(CheckElim, RemovesDominatedDuplicateChecksOnly) {
  // Build a function with two identical checks and one different-size
  // check; elimination must drop exactly the duplicate and the subsumed
  // smaller check.
  Module M;
  TypeContext &Ctx = M.ctx();
  auto *FTy = Ctx.funcTy(Ctx.voidTy(), {Ctx.ptrTo(Ctx.i8())});
  Function *F = M.createFunction("probe", FTy);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  Value *P = F->arg(0);
  Value *Bounds = B.makeBounds(M.constI64(0), M.constI64(64));
  B.spatialCheck(P, Bounds, 8, /*IsStore=*/true);
  B.spatialCheck(P, Bounds, 8, /*IsStore=*/true);  // Duplicate.
  B.spatialCheck(P, Bounds, 4, /*IsStore=*/false); // Subsumed by size 8.
  B.spatialCheck(P, Bounds, 16, /*IsStore=*/true); // Larger: must stay.
  B.ret();
  ASSERT_TRUE(verifyModule(M).empty());

  unsigned Removed = eliminateRedundantChecks(*F);
  EXPECT_EQ(Removed, 2u);
  unsigned Left = 0;
  for (auto &I : *BB)
    if (isa<SpatialCheckInst>(I.get()))
      ++Left;
  EXPECT_EQ(Left, 2u);
}

} // namespace
