//===- bench/bench_ablations.cpp - design-choice ablations ------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablations for the design choices DESIGN.md calls out:
///   1. post-instrumentation re-optimization (redundant-check elimination,
///      §6.1) on vs off,
///   2. §5.2 memcpy pointer-free inference on vs off,
///   3. sub-object bound shrinking cost (it must be ~free),
///   4. object-table (splay) baseline cost on pointer-dense code — the
///      §2.1 claim that splay lookups are the bottleneck,
///   5. the static check-optimization subsystem (opt/checks/) with each
///      sub-pass toggled independently — expressed as pipeline-spec
///      strings over the PipelinePlan API. Covers both the counted-loop
///      kernels (hoisting territory) and the recursive/pointer-heavy
///      kernels (perimeter, bh, go) that only the inter-procedural
///      propagation reaches.
///
/// Flags:
///   --pipeline <spec>  run only the given pipeline spec (e.g.
///                      "optimize,softbound,checkopt(range,hoist)") over
///                      the counted-loop kernels and print its stats —
///                      ablation-by-string for scripts and CI smoke tests.
///   --list-passes      print the pass registry and exit.
///   --json <path>      write section 5's per-workload, per-config check
///                      counts and elision stats as JSON (uploaded as a
///                      CI artifact next to the fig2 dump).
///
//===----------------------------------------------------------------------===//

#include "baselines/ObjectTableChecker.h"
#include "bench/BenchJson.h"
#include "bench/BenchUtil.h"

using namespace softbound;
using namespace softbound::benchutil;
using namespace softbound::benchjson;

namespace {

const char *MemcpyHeavy = R"(
int main() {
  char* a = malloc(4096);
  char* b = malloc(4096);
  for (int i = 0; i < 4096; i++) a[i] = (char)(i % 100);
  for (int round = 0; round < 200; round++) {
    memcpy(b, a, 4096);
    memcpy(a, b, 4096);
  }
  long s = 0;
  for (int i = 0; i < 4096; i++) s += a[i];
  return (int)(s % 251);
}
)";

/// The counted-loop-heavy kernels --pipeline measures.
const char *const LoopKernels[] = {"lbm", "hmmer", "ijpeg", "compress"};

/// Section 5's corpus: the counted-loop kernels, the
/// recursive/pointer-heavy ones where inter-procedural propagation is the
/// only sub-pass with leverage, and the runtime-bound kernels that only
/// runtime-limit hull hoisting reaches — tsp/li (variable limits) plus
/// ijpeg/hmmer/go, whose scan-band (`lo..hi`), traceback (decreasing)
/// and stride-8 phases exercise the symbolic-init/strided shapes.
const char *const CheckOptKernels[] = {"lbm",       "hmmer", "ijpeg",
                                       "compress",  "perimeter", "bh",
                                       "go",        "tsp",   "li",
                                       "treeadd"};

/// Section 5's configurations (cumulative and isolated sub-pass sets).
/// "no-rt" is the pre-runtime-limit default and "no-partition" the
/// pre-partition one — the baselines those sub-passes' acceptance
/// numbers are measured against. "+partition" isolates partitioning:
/// without the other sub-passes nothing is fully-proven, so any win it
/// shows is pure boundary reconstruction (null-init store elision).
struct SpecConfig {
  const char *Name;
  const char *Spec;
};
const SpecConfig SpecConfigs[] = {
    {"off", "optimize,softbound,checkopt(none)"},
    {"+dominated", "optimize,softbound,checkopt(redundant)"},
    {"+range", "optimize,softbound,checkopt(range)"},
    {"+hoist", "optimize,softbound,checkopt(hoist)"},
    {"+runtime-limit", "optimize,softbound,checkopt(hoist,runtime-limit)"},
    {"+interproc", "optimize,softbound,checkopt(interproc)"},
    {"+partition", "optimize,softbound,checkopt(partition)"},
    {"intra", "optimize,softbound,checkopt(redundant,range,hoist)"},
    {"no-rt", "optimize,softbound,checkopt(redundant,range,hoist,interproc)"},
    {"no-partition",
     "optimize,softbound,checkopt(redundant,range,hoist,runtime-limit,"
     "interproc)"},
    {"all", "optimize,softbound,checkopt"},
};

/// Static spatial checks left in the built module — counted directly so
/// the --pipeline table is right even for specs without a checkopt pass
/// (whose CheckOptStats would be empty).
unsigned staticChecks(const Module &M) {
  unsigned N = 0;
  for (const auto &F : M.functions())
    for (const auto &BB : F->blocks())
      for (const auto &I : *BB)
        if (isa<SpatialCheckInst>(I.get()))
          ++N;
  return N;
}

/// Runs \p Spec over the loop kernels, printing static and dynamic check
/// stats per workload. Returns a process exit code.
int runPipelineSpec(const std::string &Spec) {
  PipelinePlan Probe;
  std::string Err;
  if (!Probe.appendSpec(Spec, &Err)) {
    std::fprintf(stderr, "%s\n", Err.c_str());
    return 2;
  }
  std::printf("=== pipeline: %s ===\n", Probe.spec().c_str());
  TablePrinter T({"benchmark", "static checks", "elim %", "dyn checks",
                  "cycles", "build ms"});
  for (const auto &Name : LoopKernels) {
    const Workload &W = mustFindWorkload(Name);
    BuildResult Prog = mustBuild(W.Source, Spec);
    Measurement M = measure(Prog);
    // elim % stays a checkopt statistic: 0.0 when the spec ran no
    // check-optimization pass.
    T.addRow({Name, std::to_string(staticChecks(*Prog.M)),
              TablePrinter::fmt(100.0 * Prog.Pipeline.CheckOpt.eliminationRate(),
                                1),
              std::to_string(M.R.Counters.Checks),
              std::to_string(M.R.Counters.Cycles),
              TablePrinter::fmt(Prog.Pipeline.totalMillis(), 2)});
  }
  T.print();
  return 0;
}

/// Runs section 5's matrix (kernels x spec configs) once, printing the
/// tables; when \p JsonPath is non-empty also dumps the numbers for the
/// CI artifact.
void runCheckOptAblation(const std::string &JsonPath) {
  std::printf("\n-- 5. static check optimization sub-passes (opt/checks/) "
              "--\n");
  JsonWriter W;
  W.beginObject();
  W.kv("schema", "softbound-bench-ablations-v1");
  W.key("checkopt");
  W.beginObject();
  for (const auto &Name : CheckOptKernels) {
    const Workload &Wl = mustFindWorkload(Name);
    std::printf("  %s:\n", Name);
    TablePrinter T({"config", "static checks", "elim %", "dyn checks",
                    "meta ops", "cycles", "hoisted", "rt-hulls", "dom",
                    "range", "interproc", "proven"});
    W.key(Name);
    W.beginObject();
    for (const auto &K : SpecConfigs) {
      BuildResult Prog = mustBuild(Wl.Source, K.Spec);
      Measurement M = measure(Prog);
      const CheckOptStats &S = Prog.Pipeline.CheckOpt;
      T.addRow({K.Name, std::to_string(S.ChecksAfter),
                TablePrinter::fmt(100.0 * S.eliminationRate(), 1),
                std::to_string(M.R.Counters.Checks),
                std::to_string(M.R.Counters.metaOps()),
                std::to_string(M.R.Counters.Cycles),
                std::to_string(S.LoopChecksHoisted),
                std::to_string(S.RuntimeHullChecks),
                std::to_string(S.DominatedEliminated),
                std::to_string(S.RangeEliminated),
                std::to_string(S.InterProcChecksElided),
                std::to_string(S.PartitionProven)});
      W.key(K.Name);
      W.beginObject();
      W.kv("spec", K.Spec);
      W.kv("static_checks", S.ChecksAfter);
      W.kv("dyn_checks", M.R.Counters.Checks);
      W.kv("meta_ops", M.R.Counters.metaOps());
      W.kv("cycles", M.R.Counters.Cycles);
      W.kv("hoisted", S.LoopChecksHoisted);
      W.kv("runtime_hulls", S.RuntimeHullChecks);
      W.kv("runtime_fallbacks", S.RuntimeGuardedFallbacks);
      W.kv("runtime_discharged", S.RuntimeGuardsDischarged);
      W.kv("check_guards", M.R.Counters.CheckGuards);
      W.kv("dominated", S.DominatedEliminated);
      W.kv("range", S.RangeEliminated);
      W.kv("interproc", S.InterProcChecksElided);
      W.kv("interproc_callee", S.InterProcCalleeElided);
      W.kv("interproc_caller", S.InterProcCallerElided);
      W.kv("interproc_range", S.InterProcRangeElided);
      W.kv("interproc_sunk", S.InterProcSunkElided);
      W.kv("partition_proven", S.PartitionProven);
      W.kv("partition_meta_removed",
           S.PartitionMetaLoadsRemoved + S.PartitionMetaStoresRemoved);
      W.kv("build_ms", Prog.Pipeline.totalMillis());
      W.endObject();
    }
    W.endObject();
    T.print();
  }
  W.endObject();
  W.endObject();
  if (!JsonPath.empty())
    W.writeToOrExit(JsonPath);
}

int listPasses() {
  std::printf("registered pipeline passes:\n");
  for (const auto &Name : PassRegistry::global().names()) {
    const PassRegistry::Entry *E = PassRegistry::global().lookup(Name);
    std::printf("  %-12s %s\n", Name.c_str(), E->Description.c_str());
    if (!E->Knobs.empty()) {
      std::printf("  %-12s knobs:", "");
      for (const auto &K : E->Knobs)
        std::printf(" %s", K.c_str());
      std::printf("\n");
    }
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath, PipelineSpec;
  bool ListPasses = false;
  parseFlags(argc, argv,
             {{"--pipeline", "<spec>",
               [&](const char *A) { PipelineSpec = A; }},
              {"--json", "<path>", [&](const char *A) { JsonPath = A; }},
              {"--list-passes", nullptr,
               [&](const char *) { ListPasses = true; }}});
  if (ListPasses)
    return listPasses();
  if (!PipelineSpec.empty()) {
    if (!JsonPath.empty()) {
      std::fprintf(stderr,
                   "--json applies to the full ablation run, not "
                   "--pipeline; drop one of the flags\n");
      return 2;
    }
    return runPipelineSpec(PipelineSpec);
  }

  std::printf("=== Ablations ===\n\n");

  // 1. Re-optimization after instrumentation.
  {
    std::printf("-- 1. post-instrumentation check elimination (§6.1) --\n");
    TablePrinter T({"benchmark", "cycles w/ reopt", "cycles w/o",
                    "checks dedup'd", "saving %"});
    for (const auto &Name : {std::string("go"), std::string("compress"),
                             std::string("treeadd"), std::string("em3d")}) {
      const Workload &W = mustFindWorkload(Name);
      BuildResult POn = mustBuild(W.Source, "optimize,softbound,checkopt");
      BuildResult POff =
          mustBuild(W.Source, "optimize,softbound(no-reopt),checkopt");
      Measurement MOn = measure(POn);
      Measurement MOff = measure(POff);
      T.addRow({Name, std::to_string(MOn.R.Counters.Cycles),
                std::to_string(MOff.R.Counters.Cycles),
                std::to_string(POn.Pipeline.SB.ChecksEliminated),
                TablePrinter::fmt(100.0 * (1.0 -
                                           double(MOn.R.Counters.Cycles) /
                                               double(MOff.R.Counters.Cycles)),
                                  2)});
    }
    T.print();
  }

  // 2. memcpy metadata inference.
  {
    std::printf("\n-- 2. memcpy pointer-free inference (§5.2) --\n");
    Measurement MI =
        measure(mustBuild(MemcpyHeavy, "optimize,softbound,checkopt"));
    Measurement MA = measure(
        mustBuild(MemcpyHeavy, "optimize,softbound(no-memcpy-infer),checkopt"));
    std::printf("  inferred pointer-free: %llu cycles, %llu meta updates\n",
                static_cast<unsigned long long>(MI.R.Counters.Cycles),
                static_cast<unsigned long long>(MI.R.Counters.MetaStores));
    std::printf("  always-copy metadata:  %llu cycles\n",
                static_cast<unsigned long long>(MA.R.Counters.Cycles));
    std::printf("  inference saves %.1f%% on a memcpy-heavy kernel\n",
                100.0 * (1.0 - double(MI.R.Counters.Cycles) /
                                   double(MA.R.Counters.Cycles)));
  }

  // 3. Bound shrinking cost.
  {
    std::printf("\n-- 3. sub-object shrinking cost (§3.1) --\n");
    TablePrinter T({"benchmark", "shrink on (cycles)", "shrink off",
                    "delta %"});
    for (const auto &Name :
         {std::string("health"), std::string("em3d"), std::string("li")}) {
      const Workload &W = mustFindWorkload(Name);
      Measurement MOn =
          measure(mustBuild(W.Source, "optimize,softbound,checkopt"));
      Measurement MOff = measure(
          mustBuild(W.Source, "optimize,softbound(no-shrink),checkopt"));
      T.addRow({Name, std::to_string(MOn.R.Counters.Cycles),
                std::to_string(MOff.R.Counters.Cycles),
                TablePrinter::fmt(overheadPct(MOn.R.Counters.Cycles,
                                              MOff.R.Counters.Cycles),
                                  2)});
    }
    T.print();
  }

  // 4. Splay-tree object-table cost (the §2.1 "5x or more" claim class).
  {
    std::printf("\n-- 4. object-table (splay) baseline overhead --\n");
    TablePrinter T({"benchmark", "objtable overhead %",
                    "softbound-full overhead %", "splay comparisons"});
    for (const auto &Name :
         {std::string("treeadd"), std::string("li"), std::string("mst")}) {
      const Workload &W = mustFindWorkload(Name);
      Measurement MP = measure(mustBuild(W.Source, "optimize"));

      ObjectTableChecker OT;
      RunRequest R;
      R.Checker = &OT;
      Measurement MO = measure(mustBuild(W.Source, "optimize"), R);

      Measurement MS =
          measure(mustBuild(W.Source, "optimize,softbound,checkopt"));

      T.addRow({Name,
                TablePrinter::fmt(overheadPct(MO.R.Counters.Cycles,
                                              MP.R.Counters.Cycles),
                                  1),
                TablePrinter::fmt(overheadPct(MS.R.Counters.Cycles,
                                              MP.R.Counters.Cycles),
                                  1),
                std::to_string(OT.totalComparisons())});
    }
    T.print();
  }

  // 5. Static check-optimization subsystem (opt/checks/): each sub-pass
  //    toggled independently, as pipeline-spec strings, over both the
  //    counted-loop and the recursive kernels.
  runCheckOptAblation(JsonPath);
  return 0;
}
