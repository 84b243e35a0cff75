//===- tests/test_partition.cpp - checked-region partitioning ---------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of checked-region partitioning (opt/checks/Partition.h) and the
/// structural invariants around it:
///
///   * the Verifier: metadata instructions are rejected inside
///     `uninstrumented` functions and with malformed operands,
///   * the verdict lattice: proven functions are stripped, functions
///     with remaining checks / taken addresses / escaping metadata
///     stores / leaking stripped bounds are demoted with the right
///     reason, including the function-pointer-table case,
///   * boundary reconstruction: null-bounds meta.stores into fresh
///     mallocs are elided, and not elided when a call intervenes or the
///     address roots at an argument,
///   * the whole-program entry contract after stripping,
///   * the acceptance criterion: fewer dynamic metadata operations on
///     bh, perimeter, and treeadd with identical results and identical
///     check counts, and zero missed detections across the attack and
///     BugBench suites under a partition-enabled pipeline.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "opt/checks/CallGraph.h"
#include "opt/checks/CheckOpt.h"
#include "opt/checks/Partition.h"
#include "support/Casting.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace softbound;

namespace {

BuildResult buildSpec(const std::string &Src, const std::string &Spec) {
  PipelinePlan Plan;
  Plan.frontend(Src);
  std::string Err;
  EXPECT_TRUE(Plan.appendSpec(Spec, &Err)) << Err;
  BuildResult R = Plan.build();
  EXPECT_TRUE(R.ok()) << R.errorText();
  return R;
}

/// Runs partitioning alone over \p M.
unsigned partition(Module &M, CheckOptStats &Stats) {
  return checkopt::partitionCheckedRegions(M, checkopt::CallGraph(M), Stats);
}

const PartitionVerdict *verdictFor(const CheckOptStats &S,
                                   const std::string &Substr) {
  auto It = std::find_if(S.Partition.begin(), S.Partition.end(),
                         [&](const PartitionVerdict &V) {
                           return V.Func.find(Substr) != std::string::npos;
                         });
  return It == S.Partition.end() ? nullptr : &*It;
}

unsigned countMetaOpsIn(const Function &F) {
  unsigned N = 0;
  for (const auto &BB : F.blocks())
    for (const auto &I : *BB)
      if (isa<MetaLoadInst>(I.get()) || isa<MetaStoreInst>(I.get()))
        ++N;
  return N;
}

const Workload &mustFindWorkload(const std::string &Name) {
  for (const Workload &W : benchmarkSuite())
    if (W.Name == Name)
      return W;
  ADD_FAILURE() << "no workload " << Name;
  static Workload Empty;
  return Empty;
}

/// The explicit knob list reproducing the pre-partition default.
constexpr const char *NoPartitionSpec =
    "optimize,softbound,checkopt(redundant,range,hoist,runtime-limit,"
    "interproc)";

} // namespace

//===----------------------------------------------------------------------===//
// Verifier: the uninstrumented contract and metadata operand rules
//===----------------------------------------------------------------------===//

TEST(PartitionVerifier, RejectsMetaLoadInUninstrumentedFunction) {
  Module M;
  TypeContext &Ctx = M.ctx();
  Type *I8P = Ctx.ptrTo(Ctx.i8());
  Function *F = M.createFunction("f", Ctx.funcTy(Ctx.voidTy(), {I8P}));
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  B.metaLoad(F->arg(0));
  B.ret();
  std::vector<std::string> Errors;
  verifyFunction(*F, Errors);
  EXPECT_TRUE(Errors.empty()) << "instrumented functions may hold metadata";

  F->setUninstrumented();
  Errors.clear();
  verifyFunction(*F, Errors);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("uninstrumented"), std::string::npos)
      << Errors[0];
}

TEST(PartitionVerifier, RejectsMetaStoreInUninstrumentedFunction) {
  Module M;
  TypeContext &Ctx = M.ctx();
  Type *I8P = Ctx.ptrTo(Ctx.i8());
  Function *F = M.createFunction("f", Ctx.funcTy(Ctx.voidTy(), {I8P}));
  F->setUninstrumented();
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  B.metaStore(F->arg(0), B.makeBounds(M.constI64(0), M.constI64(0)));
  B.ret();
  std::vector<std::string> Errors;
  verifyFunction(*F, Errors);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("meta.store inside uninstrumented"),
            std::string::npos)
      << Errors[0];
}

TEST(PartitionVerifier, RejectsNonPointerMetadataAddresses) {
  Module M;
  TypeContext &Ctx = M.ctx();
  Function *F = M.createFunction("f", Ctx.funcTy(Ctx.voidTy(), {}));
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  // Address operands are i64 constants, not pointers.
  BB->append(std::make_unique<MetaLoadInst>(Ctx.boundsTy(), M.constI64(8),
                                            "bad.ml"));
  BB->append(std::make_unique<MetaStoreInst>(
      Ctx.voidTy(), M.constI64(8),
      B.makeBounds(M.constI64(0), M.constI64(0))));
  B.ret();
  std::vector<std::string> Errors;
  verifyFunction(*F, Errors);
  ASSERT_GE(Errors.size(), 2u);
  EXPECT_NE(Errors[0].find("meta.load address is not a pointer"),
            std::string::npos)
      << Errors[0];
  EXPECT_NE(Errors[1].find("meta.store address is not a pointer"),
            std::string::npos)
      << Errors[1];
}

TEST(PartitionVerifier, RejectsNonBoundsMetaLoadResult) {
  Module M;
  TypeContext &Ctx = M.ctx();
  Type *I8P = Ctx.ptrTo(Ctx.i8());
  Function *F = M.createFunction("f", Ctx.funcTy(Ctx.voidTy(), {I8P}));
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  BB->append(
      std::make_unique<MetaLoadInst>(Ctx.i64(), F->arg(0), "bad.ml"));
  B.ret();
  std::vector<std::string> Errors;
  verifyFunction(*F, Errors);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("not bounds-typed"), std::string::npos)
      << Errors[0];
}

//===----------------------------------------------------------------------===//
// The verdict lattice on hand-built modules
//===----------------------------------------------------------------------===//

TEST(PartitionLattice, ProvenFunctionIsStrippedAndContractRecorded) {
  Module M;
  TypeContext &Ctx = M.ctx();
  Type *I8P = Ctx.ptrTo(Ctx.i8());
  IRBuilder B(M);

  // g: transformed, check-free, metadata copied within one non-escaping
  // local — the canonical fully-proven leaf.
  Function *G = M.createFunction("g", Ctx.funcTy(Ctx.voidTy(), {}));
  G->setTransformed();
  B.setInsertPoint(G->createBlock("entry"));
  Value *Slot = B.alloca_(I8P, "slot");
  B.metaStore(Slot, B.metaLoad(Slot));
  B.ret();

  Function *Main = M.createFunction("main", Ctx.funcTy(Ctx.i32(), {}));
  Main->setTransformed();
  B.setInsertPoint(Main->createBlock("entry"));
  B.call(G, {});
  B.ret(M.constI32(0));

  // Through the checkopt driver, which records the entry contract.
  CheckOptConfig PartitionOnly{false, false, false, false, false, true};
  CheckOptStats Stats = optimizeChecks(M, PartitionOnly);
  EXPECT_EQ(Stats.PartitionProven, 2u) << "g and main are both proven";
  EXPECT_EQ(Stats.PartitionMetaLoadsRemoved, 1u);
  EXPECT_EQ(Stats.PartitionMetaStoresRemoved, 1u);

  const PartitionVerdict *V = verdictFor(Stats, "g");
  ASSERT_NE(V, nullptr);
  EXPECT_TRUE(V->FullyProven);
  EXPECT_EQ(V->Reason, "proven");
  EXPECT_TRUE(G->isUninstrumented());
  EXPECT_EQ(countMetaOpsIn(*G), 0u);
  EXPECT_NE(printFunction(*G).find("uninstrumented"), std::string::npos);
  EXPECT_TRUE(verifyModule(M).empty()) << verifyModule(M).front();

  // Stripping leaned on closed-module caller reasoning: internal
  // functions are no longer safe custom entries.
  EXPECT_TRUE(M.hasInterProcContract());
  EXPECT_TRUE(M.isSafeEntry(Main));
  EXPECT_FALSE(M.isSafeEntry(G));
}

TEST(PartitionLattice, RemainingChecksBlockTheVerdict) {
  Module M;
  TypeContext &Ctx = M.ctx();
  Type *I8P = Ctx.ptrTo(Ctx.i8());
  IRBuilder B(M);
  Function *F = M.createFunction("f", Ctx.funcTy(Ctx.voidTy(), {I8P}));
  F->setTransformed();
  BasicBlock *BB = F->createBlock("entry");
  B.setInsertPoint(BB);
  Value *Bounds = B.makeBounds(F->arg(0), F->arg(0));
  BB->append(std::make_unique<SpatialCheckInst>(Ctx.voidTy(), F->arg(0),
                                                Bounds, 8, true));
  B.ret();

  CheckOptStats Stats;
  EXPECT_EQ(partition(M, Stats), 0u);
  const PartitionVerdict *V = verdictFor(Stats, "f");
  ASSERT_NE(V, nullptr);
  EXPECT_FALSE(V->FullyProven);
  EXPECT_NE(V->Reason.find("spatial check"), std::string::npos)
      << V->Reason;
  EXPECT_FALSE(F->isUninstrumented());
}

TEST(PartitionLattice, AddressTakenFunctionIsNeverProven) {
  Module M;
  TypeContext &Ctx = M.ctx();
  Type *I8P = Ctx.ptrTo(Ctx.i8());
  IRBuilder B(M);

  // h is check-free and metadata-free, but its address escapes into a
  // bounds value (the §5.2 function-pointer encoding), so unknown
  // indirect call sites could exist.
  Function *H = M.createFunction("h", Ctx.funcTy(Ctx.voidTy(), {}));
  H->setTransformed();
  B.setInsertPoint(H->createBlock("entry"));
  B.ret();

  Function *Main = M.createFunction("main", Ctx.funcTy(Ctx.i32(), {}));
  Main->setTransformed();
  B.setInsertPoint(Main->createBlock("entry"));
  B.makeBounds(H, H);
  B.callIndirect(H->functionType(), B.bitcast(H, I8P), {});
  B.ret(M.constI32(0));

  checkopt::CallGraph CG(M);
  EXPECT_TRUE(CG.isAddressTaken(H));
  EXPECT_TRUE(CG.externallyReachable(H));

  CheckOptStats Stats;
  partition(M, Stats);
  const PartitionVerdict *V = verdictFor(Stats, "h");
  ASSERT_NE(V, nullptr);
  EXPECT_FALSE(V->FullyProven);
  EXPECT_NE(V->Reason.find("address taken"), std::string::npos)
      << V->Reason;
  EXPECT_FALSE(H->isUninstrumented());
}

TEST(PartitionLattice, FunctionPointerTableMembersStayInstrumented) {
  const char *Src = "int one(int x) { return x + 1; }\n"
                    "int two(int x) { return x + 2; }\n"
                    "int main() {\n"
                    "  int (*tab[2])(int);\n"
                    "  tab[0] = one; tab[1] = two;\n"
                    "  int s = 0;\n"
                    "  for (int i = 0; i < 2; i++) s += tab[i](5);\n"
                    "  return s;\n"
                    "}";
  BuildResult R = buildSpec(Src, "optimize,softbound,checkopt");
  const CheckOptStats &S = R.Pipeline.CheckOpt;
  for (const char *Name : {"one", "two"}) {
    const PartitionVerdict *V = verdictFor(S, Name);
    ASSERT_NE(V, nullptr) << Name;
    EXPECT_FALSE(V->FullyProven) << Name;
    EXPECT_NE(V->Reason.find("address taken"), std::string::npos)
        << Name << ": " << V->Reason;
  }
  RunResult RR = runSession(R).Combined;
  ASSERT_TRUE(RR.ok()) << RR.Message;
  EXPECT_EQ(RR.ExitCode, 13);
}

TEST(PartitionLattice, EscapingMetaStoreBlocksTheVerdict) {
  Module M;
  TypeContext &Ctx = M.ctx();
  Type *I8P = Ctx.ptrTo(Ctx.i8());
  IRBuilder B(M);
  // f writes metadata through its pointer argument: instrumented code
  // could meta.load it later, so stripping would erase real bounds.
  Function *F = M.createFunction("f", Ctx.funcTy(Ctx.voidTy(), {I8P}));
  F->setTransformed();
  B.setInsertPoint(F->createBlock("entry"));
  B.metaStore(F->arg(0), B.makeBounds(F->arg(0), F->arg(0)));
  B.ret();

  CheckOptStats Stats;
  partition(M, Stats);
  const PartitionVerdict *V = verdictFor(Stats, "f");
  ASSERT_NE(V, nullptr);
  EXPECT_FALSE(V->FullyProven);
  EXPECT_NE(V->Reason.find("visible outside the frame"), std::string::npos)
      << V->Reason;
}

TEST(PartitionLattice, StrippedBoundsLeakDemotesTheFunction) {
  Module M;
  TypeContext &Ctx = M.ctx();
  Type *I8P = Ctx.ptrTo(Ctx.i8());
  IRBuilder B(M);

  // f keeps a check, so it stays instrumented and consumes its bounds
  // parameter for real.
  Function *F = M.createFunction(
      "f", Ctx.funcTy(Ctx.voidTy(), {I8P, Ctx.boundsTy()}));
  F->setTransformed();
  BasicBlock *FB = F->createBlock("entry");
  B.setInsertPoint(FB);
  FB->append(std::make_unique<SpatialCheckInst>(Ctx.voidTy(), F->arg(0),
                                                F->arg(1), 8, true));
  B.ret();

  // g is check-free, but the bounds its meta.load produces flow into
  // f's checked parameter; stripping g would feed f null bounds.
  Function *G = M.createFunction("g", Ctx.funcTy(Ctx.voidTy(), {I8P}));
  G->setTransformed();
  B.setInsertPoint(G->createBlock("entry"));
  Value *Slot = B.alloca_(I8P, "slot");
  Value *ML = B.metaLoad(Slot);
  B.call(F, {G->arg(0), ML});
  B.ret();

  Function *Main = M.createFunction("main", Ctx.funcTy(Ctx.i32(), {}));
  Main->setTransformed();
  B.setInsertPoint(Main->createBlock("entry"));
  B.call(G, {M.nullPtr(cast<PointerType>(I8P))});
  B.ret(M.constI32(0));

  CheckOptStats Stats;
  partition(M, Stats);
  const PartitionVerdict *V = verdictFor(Stats, "g");
  ASSERT_NE(V, nullptr);
  EXPECT_FALSE(V->FullyProven);
  EXPECT_NE(V->Reason.find("stripped bounds reach instrumented callee"),
            std::string::npos)
      << V->Reason;
  EXPECT_EQ(countMetaOpsIn(*G), 1u) << "demotion keeps g's metadata";
}

TEST(PartitionLattice, ExternallyVisibleReturnBoundsDemote) {
  Module M;
  TypeContext &Ctx = M.ctx();
  Type *I8P = Ctx.ptrTo(Ctx.i8());
  IRBuilder B(M);

  // k has no recorded call sites, so the call graph treats it as
  // externally reachable — its returned bounds value could reach any
  // caller, and stripping would replace it with null bounds.
  Function *K = M.createFunction("k", Ctx.funcTy(Ctx.boundsTy(), {}));
  K->setTransformed();
  B.setInsertPoint(K->createBlock("entry"));
  Value *Slot = B.alloca_(I8P, "slot");
  B.ret(B.metaLoad(Slot));

  checkopt::CallGraph CG(M);
  EXPECT_TRUE(CG.externallyReachable(K)) << "no recorded call sites";

  CheckOptStats Stats;
  partition(M, Stats);
  const PartitionVerdict *V = verdictFor(Stats, "k");
  ASSERT_NE(V, nullptr);
  EXPECT_FALSE(V->FullyProven);
  EXPECT_NE(V->Reason.find("externally visible"), std::string::npos)
      << V->Reason;
}

//===----------------------------------------------------------------------===//
// Boundary reconstruction: null-init stores into fresh mallocs
//===----------------------------------------------------------------------===//

TEST(PartitionReconstruction, NullInitStoreIntoFreshMallocElided) {
  const char *Src = "struct node { int v; struct node* next; };\n"
                    "int main() {\n"
                    "  struct node* n = (struct node*)malloc(16);\n"
                    "  n->v = 7;\n"
                    "  n->next = 0;\n"
                    "  return n->v;\n"
                    "}";
  BuildResult Off = buildSpec(Src, NoPartitionSpec);
  BuildResult On = buildSpec(Src, "optimize,softbound,checkopt");
  EXPECT_GE(On.Pipeline.CheckOpt.PartitionMetaStoresRemoved, 1u);

  RunResult ROff = runSession(Off).Combined;
  RunResult ROn = runSession(On).Combined;
  ASSERT_TRUE(ROff.ok() && ROn.ok());
  EXPECT_EQ(ROn.ExitCode, ROff.ExitCode);
  EXPECT_LT(ROn.Counters.MetaStores, ROff.Counters.MetaStores);
}

TEST(PartitionReconstruction, InterveningCallBlocksTheElision) {
  // touch() runs between the malloc and the null init: the callee could
  // have planted real metadata over the fresh slot, so the store must
  // stay.
  const char *Src = "struct node { int v; struct node* next; };\n"
                    "void touch(struct node* n) { n->v = 1; }\n"
                    "int main() {\n"
                    "  struct node* m = (struct node*)malloc(16);\n"
                    "  touch(m);\n"
                    "  m->next = 0;\n"
                    "  return 0;\n"
                    "}";
  BuildResult On = buildSpec(Src, "optimize,softbound,checkopt");
  EXPECT_EQ(On.Pipeline.CheckOpt.PartitionMetaStoresRemoved, 0u);
}

TEST(PartitionReconstruction, ArgumentRootedNullStoreIsKept) {
  // The slot roots at an argument, not a fresh allocation: the caller's
  // object may carry real metadata that the null store overwrites.
  const char *Src = "struct node { int v; struct node* next; };\n"
                    "void clearnext(struct node* n) { n->next = 0; }\n"
                    "int main() {\n"
                    "  struct node n;\n"
                    "  n.next = (struct node*)&n;\n"
                    "  clearnext(&n);\n"
                    "  return 0;\n"
                    "}";
  BuildResult On = buildSpec(Src, "optimize,softbound,checkopt");
  const CheckOptStats &S = On.Pipeline.CheckOpt;
  const PartitionVerdict *V = verdictFor(S, "clearnext");
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->MetaStoresRemoved, 0u)
      << "argument-rooted null store must not be elided";
}

//===----------------------------------------------------------------------===//
// Acceptance: metadata-op reduction, identical behavior, no missed bugs
//===----------------------------------------------------------------------===//

TEST(PartitionAcceptance, ReducesMetadataOpsOnPointerChasingWorkloads) {
  for (const char *Name : {"bh", "perimeter", "treeadd"}) {
    const Workload &W = mustFindWorkload(Name);
    BuildResult Off = buildSpec(W.Source, NoPartitionSpec);
    BuildResult On = buildSpec(W.Source, "optimize,softbound,checkopt");
    EXPECT_GE(On.Pipeline.CheckOpt.PartitionProven, 1u) << Name;

    RunResult ROff = runSession(Off).Combined;
    RunResult ROn = runSession(On).Combined;
    ASSERT_TRUE(ROff.ok() && ROn.ok()) << Name;
    EXPECT_EQ(ROn.ExitCode, ROff.ExitCode) << Name;
    EXPECT_EQ(ROn.Output, ROff.Output) << Name;
    EXPECT_EQ(ROn.Counters.Checks, ROff.Counters.Checks)
        << Name << ": partition must not touch checks";
    EXPECT_LT(ROn.Counters.metaOps(), ROff.Counters.metaOps())
        << Name << ": metadata traffic must drop";
  }
}

TEST(PartitionSoundness, AttackAndBugBenchSuitesStayDetected) {
  // Partition alone — its reconstruction elision fires without any
  // check-optimization help, so it must preserve every detection by
  // itself.
  for (const AttackCase &A : attackSuite()) {
    BuildResult R =
        buildSpec(A.Source, "optimize,softbound,checkopt(partition)");
    RunResult RR = runSession(R).Combined;
    EXPECT_TRUE(RR.violationDetected())
        << A.Name << ": trap=" << trapName(RR.Trap);
    EXPECT_FALSE(RR.attackLanded()) << A.Name;
  }
  for (const BugCase &Bug : bugbenchSuite()) {
    BuildResult R =
        buildSpec(Bug.Source, "optimize,softbound,checkopt(partition)");
    RunResult RR = runSession(R).Combined;
    EXPECT_TRUE(RR.violationDetected())
        << Bug.Name << ": trap=" << trapName(RR.Trap);
  }
}

TEST(PartitionContract, StrippedModuleRefusesCustomEntry) {
  // use() chases a pointer whose check interproc discharges; once
  // partition strips its metadata, entering it directly would bypass
  // the call-site proofs.
  // The loaded pointer crosses a call boundary, so SoftBound must
  // materialize its bounds with a meta.load; both functions end up in
  // the proven region, so the bounds value never leaks and the
  // meta.load is stripped.
  const char *Src = "int sink(int* p) { if (p == 0) return 1; return 42; }\n"
                    "int use(int** pp) { return sink(*pp); }\n"
                    "int main() {\n"
                    "  int* a = (int*)malloc(40);\n"
                    "  int** pp = (int**)malloc(8);\n"
                    "  *pp = a;\n"
                    "  return use(pp);\n"
                    "}";
  BuildResult On = buildSpec(Src, "optimize,softbound,checkopt");
  const PartitionVerdict *V = verdictFor(On.Pipeline.CheckOpt, "use");
  ASSERT_NE(V, nullptr);
  EXPECT_TRUE(V->FullyProven) << V->Reason;
  EXPECT_GE(V->MetaLoadsRemoved, 1u);
  EXPECT_TRUE(On.M->hasInterProcContract());

  RunResult Main = runSession(On).Combined;
  ASSERT_TRUE(Main.ok()) << Main.Message;
  EXPECT_EQ(Main.ExitCode, 42);

  RunRequest RO;
  RO.Entry = "use";
  RunResult RR = runSession(On, RO).Combined;
  EXPECT_FALSE(RR.ok());
  EXPECT_NE(RR.Message.find("partition"), std::string::npos) << RR.Message;
}
