//===- tests/test_checkopt_golden.cpp - checkopt golden digests -------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Refactor guards for the check optimizer (opt/checks/), over the whole
/// corpus — the 15 kernels, the 18 attacks, the 4 BugBench programs and
/// the http/ftp servers — built under every `bench_ablations` section-5
/// checkopt spec plus the §6.5 `checkopt,safe-elision` column:
///
///   * Golden: per (program, spec), a FNV-1a-64 digest of the printed
///     module, every CheckOptStats counter, the partition verdicts and
///     the functions the build marked unsafe as custom entries must match
///     tests/checkopt_golden.txt byte for byte. A behaviour-preserving
///     change to the optimizer leaves the file alone; a deliberate one
///     regenerates it from the `.actual` file the failing run writes.
///   * No CFG edits: checkopt leaves every function's block list and
///     successor edges, its set of calls, and every CallGraph
///     address-taken / external-reachability answer unchanged. The
///     optimizer builds each dominator tree and the call graph once per
///     run and shares them across sub-passes; this test is what keeps
///     that sharing sound.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "ir/IRPrinter.h"
#include "opt/checks/CallGraph.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <sstream>

using namespace softbound;

namespace {

struct Program {
  std::string Name;
  std::string Source;
};

std::vector<Program> corpus() {
  std::vector<Program> Out;
  for (const Workload &W : benchmarkSuite())
    Out.push_back({"kernel/" + W.Name, W.Source});
  for (const AttackCase &A : attackSuite())
    Out.push_back({"attack/" + A.Name, A.Source});
  for (const BugCase &B : bugbenchSuite())
    Out.push_back({"bugbench/" + B.Name, B.Source});
  Out.push_back({"server/http", httpServerSource()});
  Out.push_back({"server/ftp", ftpServerSource()});
  return Out;
}

/// bench_ablations section 5's checkopt configurations.
const char *const CheckOptSpecs[] = {
    "checkopt(none)",
    "checkopt(redundant)",
    "checkopt(range)",
    "checkopt(hoist)",
    "checkopt(hoist,runtime-limit)",
    "checkopt(interproc)",
    "checkopt(partition)",
    "checkopt(redundant,range,hoist)",
    "checkopt(redundant,range,hoist,interproc)",
    "checkopt(redundant,range,hoist,runtime-limit,interproc)",
    "checkopt",
};

const char *const Prefix = "optimize,softbound,";

uint64_t fnv1a64(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

PipelinePlan planFor(const Program &P, const std::string &Spec) {
  PipelinePlan Plan;
  Plan.frontend(P.Source);
  std::string Err;
  EXPECT_TRUE(Plan.appendSpec(Spec, &Err)) << Spec << ": " << Err;
  return Plan;
}

/// The golden record of one build.
std::string record(const Program &P, const std::string &Spec) {
  BuildResult R = planFor(P, Spec).build();
  std::ostringstream OS;
  OS << "== " << P.Name << " " << Spec << "\n";
  if (!R.ok()) {
    ADD_FAILURE() << P.Name << " " << Spec << ": " << R.errorText();
    OS << "build failed\n";
    return OS.str();
  }
  char Hex[17];
  std::snprintf(Hex, sizeof Hex, "%016llx",
                static_cast<unsigned long long>(fnv1a64(printModule(*R.M))));
  OS << "ir " << Hex << "\n";

  const CheckOptStats &S = R.Pipeline.CheckOpt;
  OS << "stats";
#define SOFTBOUND_GOLDEN_FIELD(Name)                                           \
  if (S.Name)                                                                  \
    OS << " " #Name "=" << S.Name;
  SOFTBOUND_CHECKOPT_COUNTERS(SOFTBOUND_GOLDEN_FIELD)
#undef SOFTBOUND_GOLDEN_FIELD
  OS << "\n";
  for (const PartitionVerdict &V : S.Partition)
    OS << "verdict " << V.Func << " " << (V.FullyProven ? "P" : "I") << " "
       << V.MetaLoadsRemoved << " " << V.MetaStoresRemoved << " " << V.Reason
       << "\n";

  OS << "contract " << (R.M->hasInterProcContract() ? "yes" : "no");
  for (const auto &F : R.M->functions())
    if (F->isDefinition() && !R.M->isSafeEntry(F.get()))
      OS << " " << F->name();
  OS << "\n";
  return OS.str();
}

std::string goldenPath() {
  return std::string(SB_SOURCE_DIR) + "/tests/checkopt_golden.txt";
}

//===----------------------------------------------------------------------===//
// The CFG / call shape checkopt must preserve
//===----------------------------------------------------------------------===//

/// Everything checkopt's shared analyses depend on, per defined function.
struct FunctionShape {
  std::vector<const BasicBlock *> Blocks;
  std::vector<std::vector<const BasicBlock *>> Succs;
  std::set<const Instruction *> Calls;
  bool AddressTaken = false;
  bool ExternallyReachable = false;
  bool MayExitOrJump = false;

  bool operator==(const FunctionShape &O) const {
    return Blocks == O.Blocks && Succs == O.Succs && Calls == O.Calls &&
           AddressTaken == O.AddressTaken &&
           ExternallyReachable == O.ExternallyReachable &&
           MayExitOrJump == O.MayExitOrJump;
  }
};

using ModuleShape = std::map<const Function *, FunctionShape>;

ModuleShape shapeOf(Module &M) {
  checkopt::CallGraph CG(M);
  ModuleShape Out;
  for (const auto &F : M.functions()) {
    if (!F->isDefinition())
      continue;
    FunctionShape &S = Out[F.get()];
    for (const auto &BB : F->blocks()) {
      S.Blocks.push_back(BB.get());
      std::vector<BasicBlock *> Succ = BB->successors();
      S.Succs.emplace_back(Succ.begin(), Succ.end());
      for (const auto &I : *BB)
        if (isa<CallInst>(I.get()))
          S.Calls.insert(I.get());
    }
    S.AddressTaken = CG.isAddressTaken(F.get());
    S.ExternallyReachable = CG.externallyReachable(F.get());
    S.MayExitOrJump = CG.mayExitOrJump(F.get());
  }
  return Out;
}

/// A no-op pass that snapshots (Compare = false) or compares against the
/// snapshot (Compare = true) the module's shape.
class ShapeProbe : public ModulePass {
public:
  struct State {
    ModuleShape Before;
    std::vector<std::string> Changed; ///< Functions whose shape moved.
  };
  ShapeProbe(std::shared_ptr<State> S, bool Compare)
      : S(std::move(S)), Compare(Compare) {}

  std::string_view name() const override { return "shape-probe"; }
  void run(Module &M, PassContext &) const override {
    if (!Compare) {
      S->Before = shapeOf(M);
      return;
    }
    ModuleShape After = shapeOf(M);
    for (const auto &[F, Shape] : S->Before) {
      auto It = After.find(F);
      if (It == After.end() || !(It->second == Shape))
        S->Changed.push_back(F->name());
    }
    if (After.size() != S->Before.size())
      S->Changed.push_back("<function set>");
  }

private:
  std::shared_ptr<State> S;
  bool Compare;
};

} // namespace

TEST(CheckOptGolden, CorpusDigestsMatch) {
  std::string Actual;
  for (const Program &P : corpus()) {
    for (const char *CO : CheckOptSpecs)
      Actual += record(P, std::string(Prefix) + CO);
    Actual += record(P, std::string(Prefix) + "checkopt,safe-elision");
  }

  std::ifstream In(goldenPath(), std::ios::binary);
  ASSERT_TRUE(In.good()) << "missing " << goldenPath();
  std::string Expected((std::istreambuf_iterator<char>(In)),
                       std::istreambuf_iterator<char>());
  if (Actual == Expected)
    return;

  std::string Out = ::testing::TempDir() + "checkopt_golden.actual";
  std::ofstream(Out, std::ios::binary) << Actual;
  std::istringstream A(Actual), E(Expected);
  std::string LA, LE, Where;
  for (unsigned Line = 1;; ++Line) {
    bool HA = static_cast<bool>(std::getline(A, LA));
    bool HE = static_cast<bool>(std::getline(E, LE));
    if (!HA && !HE)
      break;
    if (LA.rfind("== ", 0) == 0)
      Where = LA;
    if (!HA || !HE || LA != LE) {
      ADD_FAILURE() << "golden mismatch at line " << Line << " (" << Where
                    << ")\n  expected: " << (HE ? LE : "<eof>")
                    << "\n  actual:   " << (HA ? LA : "<eof>")
                    << "\nfull output written to " << Out
                    << "; copy it over tests/checkopt_golden.txt only for a "
                       "deliberate behaviour change";
      break;
    }
  }
}

TEST(CheckOptGolden, CheckOptLeavesCfgAndCallsUntouched) {
  for (const Program &P : corpus()) {
    for (const char *CO : CheckOptSpecs) {
      auto S = std::make_shared<ShapeProbe::State>();
      PipelinePlan Plan = planFor(P, "optimize,softbound");
      Plan.pass(std::make_shared<ShapeProbe>(S, false));
      std::string Err;
      ASSERT_TRUE(Plan.appendSpec(CO, &Err)) << Err;
      Plan.pass(std::make_shared<ShapeProbe>(S, true));
      BuildResult R = Plan.build();
      ASSERT_TRUE(R.ok()) << P.Name << " " << CO << ": " << R.errorText();
      ASSERT_FALSE(S->Before.empty()) << P.Name;
      std::string Changed;
      for (const std::string &F : S->Changed)
        Changed += " " + F;
      EXPECT_TRUE(S->Changed.empty())
          << P.Name << " " << CO
          << ": checkopt changed the blocks, successor edges, calls or "
             "call-graph answers of:"
          << Changed;
    }
  }
}
