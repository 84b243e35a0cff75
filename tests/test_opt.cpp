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
/// verifier-clean. The dominator tree's answers and mem2reg's phi
/// placement are pinned per CFG shape.
///
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "opt/Dominators.h"
#include "opt/Passes.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>

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

//===----------------------------------------------------------------------===//
// Dominator-tree answers and phi placement, pinned per CFG shape
//===----------------------------------------------------------------------===//

/// A block's name without the ".N" suffix createBlock appends.
std::string shortName(const BasicBlock *BB) {
  const std::string &N = BB->name();
  return N.substr(0, N.rfind('.'));
}

std::string joinNames(const std::vector<BasicBlock *> &Blocks) {
  std::string S;
  for (const BasicBlock *BB : Blocks) {
    if (!S.empty())
      S += ',';
    S += shortName(BB);
  }
  return S;
}

/// "name:answer" for every block of \p F in creation order.
template <typename AnswerFn>
std::string perBlock(Function &F, AnswerFn &&Answer) {
  std::string S;
  for (const auto &BB : F.blocks()) {
    if (!S.empty())
      S += ' ';
    S += shortName(BB.get());
    S += ':';
    S += Answer(BB.get());
  }
  return S;
}

/// Builds a void function from "block>succ,succ ..." (creation order, the
/// first block is the entry): no successor ends in ret, one in br, two in
/// a conditional branch.
Function *buildCfg(Module &M, const std::string &Spec) {
  Function *F = M.createFunction("f", M.ctx().funcTy(M.ctx().voidTy(), {}));
  std::vector<std::pair<std::string, std::vector<std::string>>> Rows;
  std::istringstream In(Spec);
  for (std::string Tok; In >> Tok;) {
    size_t Arrow = Tok.find('>');
    std::vector<std::string> Succs;
    std::istringstream SuccIn(Tok.substr(Arrow + 1));
    for (std::string S; std::getline(SuccIn, S, ',');)
      Succs.push_back(S);
    Rows.emplace_back(Tok.substr(0, Arrow), Succs);
  }
  std::map<std::string, BasicBlock *> ByName;
  for (const auto &Row : Rows)
    ByName[Row.first] = F->createBlock(Row.first);
  IRBuilder B(M);
  for (const auto &[Name, Succs] : Rows) {
    B.setInsertPoint(ByName.at(Name));
    if (Succs.empty())
      B.ret();
    else if (Succs.size() == 1)
      B.br(ByName.at(Succs[0]));
    else
      B.condBr(M.constI1(true), ByName.at(Succs[0]), ByName.at(Succs[1]));
  }
  return F;
}

struct DomCase {
  const char *Shape;
  const char *Cfg;
  const char *Rpo;
  const char *IDom;     ///< "-" for none.
  const char *Children;
  const char *Preds;
  const char *Dominates; ///< Every block A dominates, over all blocks.
};

const DomCase DomCases[] = {
    {"diamond", "entry>left,right left>join right>join join>",
     "entry,right,left,join", "entry:- left:entry right:entry join:entry",
     "entry:right,left,join left: right: join:",
     "entry: left:entry right:entry join:right,left",
     "entry:entry,left,right,join left:left right:right join:join"},
    {"loop", "entry>header header>body,exit body>header exit>",
     "entry,header,exit,body", "entry:- header:entry body:header exit:header",
     "entry:header header:exit,body body: exit:",
     "entry: header:entry,body body:header exit:header",
     "entry:entry,header,body,exit header:header,body,exit body:body "
     "exit:exit"},
    {"unreachable block", "entry>next dead>next next>", "entry,next",
     "entry:- dead:- next:entry", "entry:next dead: next:",
     "entry: dead: next:entry", "entry:entry,next dead:dead next:next"},
    {"both successors one block", "entry>a,join a>join,join join>",
     "entry,a,join", "entry:- a:entry join:entry", "entry:a,join a: join:",
     "entry: a:entry join:entry,a,a", "entry:entry,a,join a:a join:join"},
    {"self-loop", "entry>loop loop>loop,exit exit>", "entry,loop,exit",
     "entry:- loop:entry exit:loop", "entry:loop loop:exit exit:",
     "entry: loop:entry,loop exit:loop",
     "entry:entry,loop,exit loop:loop,exit exit:exit"},
    {"irreducible", "entry>a,b a>b b>a,exit exit>", "entry,a,b,exit",
     "entry:- a:entry b:entry exit:b", "entry:a,b a: b:exit exit:",
     "entry: a:entry,b b:entry,a exit:b",
     "entry:entry,a,b,exit a:a b:b,exit exit:exit"},
};

TEST(DomTreeTable, AnswersPerShape) {
  for (const DomCase &C : DomCases) {
    SCOPED_TRACE(C.Shape);
    Module M;
    Function *F = buildCfg(M, C.Cfg);
    DomTree DT(*F);
    EXPECT_EQ(joinNames(DT.rpo()), C.Rpo);
    EXPECT_EQ(perBlock(*F,
                       [&](BasicBlock *BB) {
                         BasicBlock *D = DT.idom(BB);
                         return D ? shortName(D) : std::string("-");
                       }),
              C.IDom);
    EXPECT_EQ(perBlock(*F,
                       [&](BasicBlock *BB) {
                         return joinNames(DT.children(BB));
                       }),
              C.Children);
    EXPECT_EQ(perBlock(*F,
                       [&](BasicBlock *BB) { return joinNames(DT.preds(BB)); }),
              C.Preds);
    EXPECT_EQ(perBlock(*F,
                       [&](BasicBlock *A) {
                         std::vector<BasicBlock *> Dominated;
                         for (const auto &BB : F->blocks())
                           if (DT.dominates(A, BB.get()))
                             Dominated.push_back(BB.get());
                         return joinNames(Dominated);
                       }),
              C.Dominates);
  }
}

/// "block:phi,phi" for every block holding a phi, in block order.
std::string phiPlacement(Function &F) {
  std::string S;
  for (const auto &BB : F.blocks()) {
    std::vector<std::string> Phis;
    for (const auto &I : *BB)
      if (isa<PhiInst>(I.get()))
        Phis.push_back(I->name());
    if (Phis.empty())
      continue;
    if (!S.empty())
      S += ' ';
    S += shortName(BB.get());
    for (size_t K = 0; K < Phis.size(); ++K) {
      S += K ? ',' : ':';
      S += Phis[K];
    }
  }
  return S;
}

TEST(DomTreeTable, Mem2RegPhiPlacementPerShape) {
  struct PhiCase {
    const char *Shape;
    const char *Src;
    bool SimplifyFirst; ///< simplifyCFG before mem2reg, as optimize does.
    const char *Phis;
  };
  const PhiCase Cases[] = {
      {"diamond",
       "int f(int c) { int x = 0; if (c) x = 1; else x = 2; return x; }",
       false, "if.end:x.phi"},
      {"loop",
       "int f(int n) { int i = 0; int s = 0;\n"
       "  while (i < n) { s = s + i; i = i + 1; } return s; }",
       false, "while.cond:s.phi,i.phi"},
      // The block after `return 2` is unreachable and branches to if.end:
      // its edge is not a reachable predecessor, so if.end needs no phi.
      {"unreachable block",
       "int f(int c) { int x = 0; if (c) { x = 1; } else { return 2; }\n"
       "  return x; }",
       false, ""},
      {"self-loop",
       "int f(int n) { int x = 0; do { x = x + 1; } while (x < n);\n"
       "  return x; }",
       true, "do.body:x.phi"},
  };
  for (const PhiCase &C : Cases) {
    SCOPED_TRACE(C.Shape);
    auto M = compileOk(C.Src);
    Function *F = M->getFunction("f");
    if (C.SimplifyFirst)
      simplifyCFG(*F);
    mem2reg(*F);
    EXPECT_EQ(phiPlacement(*F), C.Phis);
    EXPECT_TRUE(verifyModule(*M).empty());
  }

  // Mini-C cannot spell a conditional branch whose two successors are one
  // block: entry -> {a, join}, a -> {join, join}, x stored in entry and a.
  // The phi lands in join with one incoming value per edge.
  Module M;
  Function *F = buildCfg(M, "entry>a,join a>join,join join>");
  auto Blocks = F->blocks().begin();
  BasicBlock *Entry = (Blocks++)->get(), *A = (Blocks++)->get(),
             *Join = Blocks->get();
  IRBuilder B(M);
  B.setInsertPoint(Entry, Entry->begin());
  AllocaInst *X = B.alloca_(M.ctx().i64(), "x");
  B.store(M.constI64(0), X);
  B.setInsertPoint(A, A->begin());
  B.store(M.constI64(2), X);
  B.setInsertPoint(Join, Join->begin());
  B.load(M.ctx().i64(), X);
  ASSERT_TRUE(verifyModule(M).empty());
  mem2reg(*F);
  EXPECT_EQ(phiPlacement(*F), "join:x.phi");
  auto *Phi = cast<PhiInst>(Join->begin()->get());
  ASSERT_EQ(Phi->numIncoming(), 3u);
  EXPECT_EQ(joinNames(std::vector<BasicBlock *>{Phi->incomingBlock(0),
                                               Phi->incomingBlock(1),
                                               Phi->incomingBlock(2)}),
            "entry,a,a");
  EXPECT_TRUE(verifyModule(M).empty());
}

} // namespace
