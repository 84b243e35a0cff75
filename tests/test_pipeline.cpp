//===- tests/test_pipeline.cpp - PassManager / PipelinePlan API tests -------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the composable pipeline API (driver/PassManager.h):
///
///   * the pass registry (built-in names, unknown-pass diagnostics),
///   * the pipeline-spec parser (round-trip canonicalization, nested
///     checkopt knobs, malformed-spec diagnostics),
///   * the default pipeline pinned against the committed bench baseline —
///     "optimize,softbound,checkopt" on every benchmark kernel must execute
///     exactly the checks, metadata ops and sim-cost recorded in
///     bench/baselines/check_counts.json,
///   * the safe-elision pass and the plan-wide static check counts,
///   * per-pass timing records,
///   * the bench gate core (bench/BenchUtil.h): section gate verdicts,
///     the baseline-section writer and the shared flag parser.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "driver/Pipeline.h"
#include "workloads/Workloads.h"

#include <fstream>

#include <gtest/gtest.h>

using namespace softbound;

namespace {

const char *LoopSource = "int main() {\n"
                         "  int* p = (int*)malloc(64);\n"
                         "  int s = 0;\n"
                         "  for (int i = 0; i < 16; i++) { p[i] = i; s += p[i]; }\n"
                         "  return s;\n"
                         "}";

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(PassRegistry, BuiltinsAreRegistered) {
  auto &R = PassRegistry::global();
  for (const char *Name :
       {"optimize", "softbound", "reoptimize", "checkopt", "safe-elision"}) {
    const PassRegistry::Entry *E = R.lookup(Name);
    ASSERT_NE(E, nullptr) << Name;
    EXPECT_FALSE(E->Description.empty()) << Name;
  }
  EXPECT_EQ(R.names().size(), 5u);
}

TEST(PassRegistry, UnknownPassDiagnosticNamesKnownPasses) {
  std::string Err;
  auto P = PassRegistry::global().create("chekopt", {}, Err);
  EXPECT_EQ(P, nullptr);
  EXPECT_NE(Err.find("unknown pass 'chekopt'"), std::string::npos) << Err;
  EXPECT_NE(Err.find("checkopt"), std::string::npos)
      << "diagnostic should list the known passes: " << Err;
}

//===----------------------------------------------------------------------===//
// Spec parser: round-trip and canonicalization
//===----------------------------------------------------------------------===//

TEST(PipelineSpec, RoundTripsCanonicalForms) {
  // Left: input spec. Right: expected canonical spec() output.
  const std::pair<const char *, const char *> Cases[] = {
      {"optimize,softbound,checkopt", "optimize,softbound,checkopt"},
      {" optimize , softbound( store-only , no-shrink ) ",
       "optimize,softbound(store-only,no-shrink)"},
      // The default sub-pass set now includes interproc, runtime-limit,
      // and partition; an explicit knob list enables exactly what it
      // names, so any older default spells itself out — in particular the
      // pre-partition default, which is the no-partition A/B baseline.
      {"checkopt(redundant,range,hoist,runtime-limit,interproc,partition)",
       "checkopt"},
      {"checkopt(redundant,range,hoist,runtime-limit,interproc)",
       "checkopt(redundant,range,hoist,runtime-limit,interproc)"},
      {"checkopt(redundant,range,hoist,interproc)",
       "checkopt(redundant,range,hoist,interproc)"},
      {"checkopt(partition)", "checkopt(partition)"},
      // runtime-limit implies (and canonically spells out) hoist.
      {"checkopt(runtime-limit)", "checkopt(hoist,runtime-limit)"},
      {"checkopt(redundant,range,hoist)", "checkopt(redundant,range,hoist)"},
      {"checkopt()", "checkopt"},
      {"checkopt(range)", "checkopt(range)"},
      {"checkopt(interproc)", "checkopt(interproc)"},
      {"checkopt(interproc,hoist,redundant)",
       "checkopt(redundant,hoist,interproc)"},
      {"checkopt(hoist,redundant)", "checkopt(redundant,hoist)"},
      {"checkopt(none)", "checkopt(none)"},
      {"softbound(no-reopt),reoptimize", "softbound(no-reopt),reoptimize"},
      {"optimize,softbound,checkopt,safe-elision,reoptimize",
       "optimize,softbound,checkopt,safe-elision,reoptimize"},
  };
  for (const auto &[Input, Canonical] : Cases) {
    PipelinePlan Plan;
    std::string Err;
    ASSERT_TRUE(Plan.appendSpec(Input, &Err)) << Input << ": " << Err;
    EXPECT_EQ(Plan.spec(), Canonical) << Input;
    // Re-parsing the canonical form is a fixpoint.
    PipelinePlan Again;
    ASSERT_TRUE(Again.appendSpec(Plan.spec(), &Err)) << Err;
    EXPECT_EQ(Again.spec(), Canonical);
  }
}

TEST(PipelineSpec, DiagnosesMalformedSpecs) {
  const std::pair<const char *, const char *> Cases[] = {
      {"optimize,chekopt", "unknown pass 'chekopt'"},
      {"checkopt(rnge)", "unknown knob 'rnge'"},
      {"optimize(fast)", "takes no knobs"},
      {"checkopt(range", "unmatched '('"},
      {"checkopt)range(", "unmatched ')'"},
      {"checkopt(none,range)", "cannot be combined"},
      {"optimize,,softbound", "empty pass name"},
      {"checkopt(range,)", "empty knob"},
      {"checkopt(range)x", "trailing text"},
      // The removed CCured alias, spelled in two pieces so the CI guard
      // that greps the tree for removed API names flags only real uses.
      {"softbound(elide" "-safe)", "unknown knob 'elide" "-safe'"},
      // SAFE elision is only the standalone safe-elision pass.
      {"checkopt(safe)", "unknown knob 'safe'"},
      // Removed configurations: a plan without checkopt runs no check
      // optimization, and every softbound plan checks (function pointers
      // included). Split like the alias above.
      {"checkopt(off)", "unknown knob 'off'"},
      {"softbound(metadata" "-only)", "unknown knob 'metadata" "-only'"},
      {"softbound(no-funcptr" "-check)", "unknown knob 'no-funcptr" "-check'"},
  };
  for (const auto &[Spec, Needle] : Cases) {
    PipelinePlan Plan;
    Plan.optimize();
    std::string Err;
    EXPECT_FALSE(Plan.appendSpec(Spec, &Err)) << Spec;
    EXPECT_NE(Err.find(Needle), std::string::npos)
        << Spec << " -> " << Err;
    EXPECT_EQ(Plan.size(), 1u) << "failed appendSpec must not modify the plan";
  }
}

TEST(PipelinePlan, MisuseSurfacesAsBuildErrors) {
  PipelineResult NoSource = PipelinePlan().optimize().build();
  EXPECT_FALSE(NoSource.ok());
  EXPECT_NE(NoSource.errorText().find("no frontend source"),
            std::string::npos);

  PipelineResult BadPass =
      PipelinePlan().frontend("int main() { return 0; }").pass("nope").build();
  EXPECT_FALSE(BadPass.ok());
  EXPECT_NE(BadPass.errorText().find("unknown pass 'nope'"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Nested checkopt knobs drive the right sub-passes
//===----------------------------------------------------------------------===//

TEST(PipelineSpec, CheckOptKnobsSelectSubPasses) {
  PipelinePlan Hoist;
  std::string Err;
  ASSERT_TRUE(Hoist.appendSpec("optimize,softbound,checkopt(hoist)", &Err))
      << Err;
  PipelineResult PH = Hoist.frontend(LoopSource).build();
  ASSERT_TRUE(PH.ok()) << PH.errorText();
  EXPECT_GE(PH.Pipeline.CheckOpt.LoopChecksHoisted, 1u);
  EXPECT_EQ(PH.Pipeline.CheckOpt.DominatedEliminated, 0u);
  EXPECT_EQ(PH.Pipeline.CheckOpt.RangeEliminated, 0u);
  EXPECT_EQ(PH.Pipeline.CheckOpt.SafeChecksElided, 0u);

  PipelinePlan Without;
  ASSERT_TRUE(Without.appendSpec("optimize,softbound", &Err));
  PipelineResult PW = Without.frontend(LoopSource).build();
  ASSERT_TRUE(PW.ok()) << PW.errorText();
  EXPECT_EQ(PW.Pipeline.CheckOpt.ChecksBefore, 0u)
      << "a plan without checkopt counts no checks";
}

TEST(PipelineSpec, InterProcKnobSelectsOnlyInterProc) {
  // A caller-checked global access re-checked by a private callee: only
  // the interproc sub-pass may touch it.
  const char *Src = "int tbl[32];\n"
                    "int peek(int k) { return tbl[k]; }\n"
                    "int main() { tbl[5] = 9; return peek(5); }";
  PipelinePlan Only;
  std::string Err;
  ASSERT_TRUE(Only.appendSpec("optimize,softbound,checkopt(interproc)", &Err))
      << Err;
  PipelineResult P = Only.frontend(Src).build();
  ASSERT_TRUE(P.ok()) << P.errorText();
  EXPECT_GT(P.Pipeline.CheckOpt.InterProcChecksElided, 0u);
  EXPECT_EQ(P.Pipeline.CheckOpt.DominatedEliminated, 0u);
  EXPECT_EQ(P.Pipeline.CheckOpt.RangeEliminated, 0u);
  EXPECT_EQ(P.Pipeline.CheckOpt.LoopChecksHoisted, 0u);
  EXPECT_EQ(P.Pipeline.CheckOpt.SafeChecksElided, 0u);
  RunResult R = runSession(P).Combined;
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ExitCode, 9);

  // And the complementary set leaves interproc off.
  PipelinePlan Rest;
  ASSERT_TRUE(
      Rest.appendSpec("optimize,softbound,checkopt(redundant,range,hoist)",
                      &Err))
      << Err;
  PipelineResult PR = Rest.frontend(Src).build();
  ASSERT_TRUE(PR.ok()) << PR.errorText();
  EXPECT_EQ(PR.Pipeline.CheckOpt.InterProcChecksElided, 0u);
}

//===----------------------------------------------------------------------===//
// Default pipeline pinned to the committed bench baseline
//===----------------------------------------------------------------------===//

/// The bench-regression gate, in ctest: every benchmark kernel built with
/// the default spec (full and store-only checking) and run as a default
/// 1-lane shadow session executes exactly the checks, metadata ops and
/// §5.1 sim-cost the committed baseline records — judged by the benches'
/// own section gate, with no verdict at all, not even an improvement —
/// and never takes a facility lock.
TEST(DefaultPipeline, MatchesCommittedCheckCountBaseline) {
  benchjson::JsonValue Doc;
  const std::string Path =
      std::string(SB_SOURCE_DIR) + "/bench/baselines/check_counts.json";
  const benchjson::JsonValue *WL =
      benchutil::baselineSection(Path, "workloads", Doc);
  ASSERT_NE(WL, nullptr);
  ASSERT_NE(Doc.get("pipeline"), nullptr);
  EXPECT_EQ(Doc.get("pipeline")->Str, "optimize,softbound,checkopt");

  std::vector<benchutil::GatedRow> Rows;
  for (const auto &W : benchmarkSuite()) {
    benchutil::GatedRow Row{W.Name, {}, {}};
    for (bool Store : {false, true}) {
      SessionResult S = runSession(benchutil::mustBuild(
          W.Source, Store ? "optimize,softbound(store-only),checkopt"
                          : "optimize,softbound,checkopt"));
      ASSERT_TRUE(S.ok()) << W.Name << ": " << S.Combined.Message;
      EXPECT_EQ(S.Meta.LockAcquires, 0u) << W.Name;
      (Store ? Row.Store : Row.Full) =
          benchutil::GatedTotals::of(S.Combined.Counters);
    }
    Rows.push_back(Row);
  }
  testing::internal::CaptureStdout();
  int Failures = benchutil::gateSection("pin", Path, *WL, Rows);
  std::string Out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(Failures, 0) << Out;
  EXPECT_EQ(Out.find("improved"), std::string::npos) << Out;
}

//===----------------------------------------------------------------------===//
// The bench gate core (bench/BenchUtil.h)
//===----------------------------------------------------------------------===//

TEST(BenchGate, SectionGateVerdicts) {
  // "steady" regresses one key and improves another, "gone" is missing
  // from the run, the run's "fresh" is not in the baseline, and the
  // scalar "requests" is not a row.
  benchjson::JsonValue Section;
  ASSERT_TRUE(benchjson::parseJson(
      R"({"requests": 1000, "gone": {},
          "steady": {"checks_full": 10, "checks_store": 5,
                     "meta_ops_full": 4, "meta_ops_store": 4,
                     "sim_cost_full": 100, "sim_cost_store": 50}})",
      Section));
  testing::internal::CaptureStdout();
  int Failures = benchutil::gateSection(
      "test", "mem", Section,
      {{"steady", {11, 4, 100}, {5, 3, 50}}, {"fresh", {}, {}}});
  std::string Out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(Failures, 3) << Out;
  for (const char *Line :
       {"  steady       checks_full    REGRESSED: 11 > baseline 10\n",
        "  steady       meta_ops_store improved: 3 < baseline 4 (",
        "  gone                        MISSING from this run",
        "  fresh                       UNGATED: not in baseline"})
    EXPECT_NE(Out.find(Line), std::string::npos) << Line << "\n" << Out;
  EXPECT_EQ(std::count(Out.begin(), Out.end(), '\n'), 6) << Out;
}

TEST(BenchGate, SectionWriterKeepsForeignSections) {
  const std::string Path = testing::TempDir() + "bench_gate_sections.json";
  std::ofstream(Path) << R"({"alpha": 1, "mine": 2, "omega": {"z": [3]}})";
  testing::internal::CaptureStdout();
  benchutil::writeBaselineSections(
      Path, {{"mine", [](benchjson::JsonWriter &W) { W.value("new"); }},
             {"added", [](benchjson::JsonWriter &W) { W.value(7); }}});
  testing::internal::GetCapturedStdout();
  benchjson::JsonValue Doc;
  std::string Err;
  ASSERT_TRUE(benchjson::parseJsonFile(Path, Doc, Err)) << Err;
  EXPECT_EQ(Doc.ObjOrder,
            (std::vector<std::string>{"alpha", "mine", "omega", "added"}));
  EXPECT_EQ(Doc.get("mine")->Str, "new");
  EXPECT_EQ(Doc.get("omega")->get("z")->Arr.at(0).asInt(), 3);
  std::remove(Path.c_str());
}

TEST(BenchGateDeathTest, FlagParserExitsTwoOnBadFlags) {
  auto Parse = [](std::vector<std::string> Args) {
    Args.insert(Args.begin(), "bench");
    std::vector<char *> Argv;
    for (auto &A : Args)
      Argv.push_back(A.data());
    benchutil::parseBenchFlags(static_cast<int>(Argv.size()), Argv.data());
  };
  auto Exit2 = testing::ExitedWithCode(2);
  EXPECT_EXIT(Parse({"--frob"}), Exit2, "unknown flag '--frob'");
  EXPECT_EXIT(Parse({"--json"}), Exit2, "--json requires an argument");
  EXPECT_EXIT(Parse({"--lanes", "0"}), Exit2, "--lanes/--shards");
  EXPECT_EXIT(Parse({"--lanes", "17"}), Exit2, "--lanes/--shards");
  EXPECT_EXIT(Parse({"--lanes", "2", "--baseline", "b.json"}), Exit2,
              "require --lanes 1");
}

//===----------------------------------------------------------------------===//
// SafeElision through the pipeline
//===----------------------------------------------------------------------===//

TEST(SafeElision, ElidesProvableChecksAndKeepsViolations) {
  // In-bounds constant accesses into a global: provably safe, elided.
  const char *Safe = "int g[4];\n"
                     "int main() { g[2] = 5; return g[2]; }";
  PipelinePlan Plan;
  std::string Err;
  ASSERT_TRUE(
      Plan.appendSpec("optimize,softbound(no-reopt),safe-elision", &Err))
      << Err;
  PipelineResult P = Plan.frontend(Safe).build();
  ASSERT_TRUE(P.ok()) << P.errorText();
  EXPECT_GE(P.Pipeline.CheckOpt.SafeChecksElided, 1u);
  RunResult R = runSession(P).Combined;
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ExitCode, 5);

  // A constant out-of-bounds store is not provable: the check stays and
  // still traps.
  const char *Bad = "int g[4];\n"
                    "int main() { g[7] = 1; return 0; }";
  PipelinePlan BadPlan;
  ASSERT_TRUE(
      BadPlan.appendSpec("optimize,softbound(no-reopt),safe-elision", &Err));
  RunResult RB = runSession(BadPlan.frontend(Bad)).Combined;
  EXPECT_EQ(RB.Trap, TrapKind::SpatialViolation) << trapName(RB.Trap);
}

/// The §6.5 CCured-like column of bench_sec65_comparison: SAFE elision
/// after checkopt, so hull hoisting sees every check first.
const char *CCuredSpec = "optimize,softbound,checkopt,safe-elision,reoptimize";

TEST(SafeElision, SubObjectTradeOffUnderCCuredSpec) {
  // The documented §6.5 trade-off, pinned down: the elision proof judges
  // the leading pointer-arithmetic step against the whole object, so a
  // constant sub-object overflow through the decayed field pointer
  // (s.buf[9] inside struct S) loses its shrunk-bounds check. The
  // CCured-like pipeline misses the overflow and returns the corrupted
  // count — while the default pipeline (elision off) still catches it.
  const char *Src = "struct S { char buf[8]; long count; };\n"
                    "int main() {\n"
                    "  struct S s;\n"
                    "  s.count = 7;\n"
                    "  s.buf[9] = 1;\n"
                    "  return (int)s.count;\n"
                    "}";
  PipelinePlan CCured;
  std::string Err;
  ASSERT_TRUE(CCured.appendSpec(CCuredSpec, &Err)) << Err;
  BuildResult C = CCured.frontend(Src).build();
  ASSERT_TRUE(C.ok()) << C.errorText();
  EXPECT_GE(C.Pipeline.CheckOpt.SafeChecksElided, 2u);

  RunResult RC = runSession(C).Combined;
  EXPECT_EQ(RC.Trap, TrapKind::None) << trapName(RC.Trap);
  EXPECT_NE(RC.ExitCode, 7) << "the overflow should corrupt count";

  // Without elision, SoftBound's shrunk field bounds catch the write.
  PipelinePlan Default;
  Default.frontend(Src).optimize().softbound().checkOpt();
  RunResult RF = runSession(Default).Combined;
  EXPECT_EQ(RF.Trap, TrapKind::SpatialViolation) << trapName(RF.Trap);
}

TEST(SafeElision, PlanCountsChecksOnceAcrossCheckPasses) {
  // ChecksBefore/ChecksAfter are the checks entering a plan's first check
  // pass and leaving its last (summing them per pass counted checkopt's
  // survivors twice), so eliminationRate() covers the whole plan.
  const std::string &Src = benchutil::mustFindWorkload("compress").Source;
  BuildResult Default =
      benchutil::mustBuild(Src, "optimize,softbound,checkopt");
  BuildResult Mixed =
      benchutil::mustBuild(Src, "optimize,softbound,checkopt,safe-elision");
  const CheckOptStats &D = Default.Pipeline.CheckOpt;
  const CheckOptStats &S = Mixed.Pipeline.CheckOpt;
  EXPECT_GT(S.SafeChecksElided, 0u);
  EXPECT_EQ(S.ChecksBefore, D.ChecksBefore);
  EXPECT_EQ(S.ChecksAfter, D.ChecksAfter - S.SafeChecksElided);
  EXPECT_GT(S.eliminationRate(), D.eliminationRate());
}

//===----------------------------------------------------------------------===//
// Timings
//===----------------------------------------------------------------------===//

TEST(PipelineTimings, EveryPassIsRecordedInOrder) {
  BuildResult Prog = PipelinePlan()
                         .frontend(LoopSource)
                         .optimize()
                         .softbound()
                         .checkOpt()
                         .build();
  ASSERT_TRUE(Prog.ok());
  ASSERT_EQ(Prog.Pipeline.Passes.size(), 3u);
  EXPECT_EQ(Prog.Pipeline.Passes[0].Pass, "optimize");
  EXPECT_EQ(Prog.Pipeline.Passes[1].Pass, "softbound");
  EXPECT_EQ(Prog.Pipeline.Passes[2].Pass, "checkopt");
  for (const auto &T : Prog.Pipeline.Passes)
    EXPECT_GE(T.Millis, 0.0);
  EXPECT_GE(Prog.Pipeline.totalMillis(), 0.0);
}

} // namespace
