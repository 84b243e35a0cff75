//===- bench/bench_fig2_overhead.cpp - Figure 2 -----------------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Figure 2: runtime overhead of SoftBound with full and
/// store-only checking under the hash-table and shadow-space metadata
/// facilities, per benchmark plus averages. Overhead is measured in
/// deterministic simulated cycles (1/instruction; 9 per hash metadata op,
/// 5 per shadow op, 3 per check — the paper's §5.1 instruction counts).
///
/// Paper's shape to reproduce: hash-full > shadow-full > store-only;
/// low-pointer-density SPEC kernels show check-dominated overhead that is
/// nearly facility-independent; pointer-dense Olden kernels separate the
/// two facilities; store-only stays under 15% for at least half of the
/// benchmarks.
///
/// Per kernel: five builds (`optimize`; per checking mode the default
/// pipeline, run on both facilities, and the same plan without checkopt,
/// run on shadow), seven sessions.
///
/// Flags (the CI bench-regression gate; bench/BenchUtil.h's gate core):
///   --json <path>            write per-workload check counts, simulated
///                            checking costs, check-opt elision stats,
///                            and per-pass timings (a non-gated
///                            `timings_*` key group) as JSON.
///   --baseline <path>        gate this run's checks, metadata ops and
///                            simulated costs against the baseline's
///                            "workloads" section; exit 1 on a failure
///                            (timings are never gated).
///   --write-baseline <path>  rewrite this bench's baseline sections in
///                            place (the refresh documented in README.md).
///   --summary <path>         write a per-workload current-vs-baseline
///                            delta table as GitHub-flavoured markdown
///                            (appended to the CI job summary).
///   --profile                per-site hot-site tables for the full-opt
///                            shadow run (docs/observability.md), added
///                            to --json and --summary output. The table
///                            is deterministic: site IDs, names, and
///                            counts are identical across runs.
///   --trace <path>           export a Chrome-trace-event timeline of
///                            pipeline passes (wall-clock) and VM run
///                            phases (simulated cycles); loads in
///                            chrome://tracing or Perfetto.
///   --workload <name>        run only the named workload (repeatable);
///                            the CI telemetry smoke uses this. Skips
///                            suite-wide shape checks' denominators as
///                            needed; do not combine with --baseline.
///   --lanes <N>              run every measurement as an N-lane VM
///                            session (docs/runtime.md); N is at most
///                            MaxLanesOrShards. Lane counters
///                            are summed, so N > 1 cannot be combined
///                            with --baseline / --write-baseline; the
///                            JSON gains non-gated `lanes` and
///                            `contention_*` keys (like `timings_*`).
///   --shards <N>             shard the metadata facility over N
///                            address-stripe locks (rounded to a power
///                            of two, at most MaxLanesOrShards).
///                            Lookup/update results and the
///                            gated counts are shard-independent.
///   --lockfree               run the facility in the LockFreeRead
///                            model (docs/runtime.md "Lock-free
///                            reads"): lookups are seqlock-validated
///                            copies with zero mutex acquisitions; the
///                            JSON gains non-gated `lockfree` and
///                            `contention_seqlock_*` keys. Results and
///                            gated counts are model-independent.
///
/// The simulated cost is the §5.1 checking-cost component of a run,
/// separated from the program's own instructions (checkingCost in
/// vm/VM.h):
///
///   sim_cost = checks * check cost (3)
///            + metadata loads * MetadataFacility::lookupCost()
///            + metadata stores * updateCost()
///            + hull-guard evaluations * 1
///
/// Dynamic-check counts alone undercount the runtime-limit hull design:
/// a guarded fallback check that is skipped still pays its one-cycle
/// guard test every iteration, and sim-cost keeps the gate honest about
/// that trade.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchJson.h"
#include "bench/BenchUtil.h"
#include "runtime/HashTableMetadata.h"
#include "runtime/ShadowSpaceMetadata.h"

#include <algorithm>
#include <cstdlib>
#include <set>

using namespace softbound;
using namespace softbound::benchutil;
using namespace softbound::benchjson;

namespace {

/// Figure 2's columns: facility x checking mode.
const char *const Configs[] = {"hash-full", "shadow-full", "hash-store",
                               "shadow-store"};

/// One row of the --profile hot-site table (full-opt shadow run).
struct SiteRow {
  std::string Site;   // "<function>#<ordinal>" (Module::checkSites).
  const char *Kind;   // "check", "funcptr", "meta.load", "meta.store".
  bool Guarded = false;
  uint64_t Executed = 0;
  uint64_t GuardElided = 0;
  uint64_t FallbackFired = 0;
  uint64_t Traps = 0;
  uint64_t SimCost = 0; // Site share of the §5.1 checking cost.
};

/// Everything measured for one workload, for the table and the JSON dump.
struct WorkloadNumbers {
  std::string Name;
  uint64_t BaseCycles = 0;
  double OverheadPct[4] = {0, 0, 0, 0};
  double WallRatio = 0;
  // Shadow-facility totals of the full-unopt/full-opt/store-unopt/
  // store-opt runs; the two opt runs are the gated row.
  GatedTotals Totals[4];
  uint64_t CheckGuards = 0;           // Full-opt guard evaluations.
  uint64_t GuardSkips = 0;            // Full-opt guarded-check skips.
  CheckOptStats CheckOpt;            // Default-pipeline (full, opt) stats.
  MetadataStats MetaStats;           // Default-pipeline facility stats
                                     // (lock counters feed contention_*).
  std::vector<PassTiming> Timings;   // Default-pipeline per-pass timings.
  std::vector<SiteRow> HotSites;     // --profile: sim-cost-sorted, capped.
  size_t SitesTotal = 0;             // --profile: module site-table size.
  size_t SitesLive = 0;              // --profile: sites with any activity.
};

/// Rows reported per workload in JSON / markdown under --profile.
constexpr size_t MaxJsonSites = 50;
constexpr size_t MaxSummarySites = 10;

/// Builds the deterministic hot-site table from one profiled run: every
/// site with any activity, sorted by its share of the simulated checking
/// cost (§5.1 shadow costs), site ID breaking ties.
void fillHotSites(WorkloadNumbers &Num, const Module &M,
                  const SiteProfile &Prof) {
  ShadowSpaceMetadata ShadowCosts;
  const auto &Sites = M.checkSites();
  Num.SitesTotal = Sites.size();
  std::vector<std::pair<size_t, SiteRow>> Rows;
  for (size_t I = 0; I < Sites.size() && I < Prof.Sites.size(); ++I) {
    const SiteCounters &SC = Prof.Sites[I];
    if (!SC.Executed && !SC.GuardElided && !SC.FallbackFired && !SC.Traps)
      continue;
    SiteRow Row;
    Row.Site = Sites[I].Name;
    Row.Guarded = Sites[I].Guarded;
    Row.Executed = SC.Executed;
    Row.GuardElided = SC.GuardElided;
    Row.FallbackFired = SC.FallbackFired;
    Row.Traps = SC.Traps;
    switch (Sites[I].Kind) {
    case ValueKind::SpatialCheck:
      Row.Kind = "check";
      Row.SimCost =
          SC.Executed * 3 + (SC.GuardElided + SC.FallbackFired) * 1;
      break;
    case ValueKind::FuncPtrCheck:
      Row.Kind = "funcptr";
      Row.SimCost = SC.Executed * 3;
      break;
    case ValueKind::MetaLoad:
      Row.Kind = "meta.load";
      Row.SimCost = SC.Executed * ShadowCosts.lookupCost();
      break;
    case ValueKind::MetaStore:
      Row.Kind = "meta.store";
      Row.SimCost = SC.Executed * ShadowCosts.updateCost();
      break;
    default:
      Row.Kind = "?";
      break;
    }
    Rows.emplace_back(I, std::move(Row));
  }
  Num.SitesLive = Rows.size();
  std::sort(Rows.begin(), Rows.end(), [](const auto &A, const auto &B) {
    if (A.second.SimCost != B.second.SimCost)
      return A.second.SimCost > B.second.SimCost;
    return A.first < B.first;
  });
  if (Rows.size() > MaxJsonSites)
    Rows.resize(MaxJsonSites);
  for (auto &R : Rows)
    Num.HotSites.push_back(std::move(R.second));
}

const char *DefaultSpec = "optimize,softbound,checkopt";

void writeJson(const std::vector<WorkloadNumbers> &All, bool Profile,
               unsigned Lanes, unsigned Shards, bool LockFree,
               const std::string &Path) {
  JsonWriter W;
  W.beginObject();
  W.kv("schema", "softbound-bench-fig2-v1");
  W.kv("pipeline", DefaultSpec);
  // Session shape of this run. Non-gated, like timings_*: the gate only
  // ever reads single-lane counts.
  W.kv("lanes", static_cast<uint64_t>(Lanes));
  W.kv("shards", static_cast<uint64_t>(Shards));
  W.kv("lockfree", LockFree);
  W.key("workloads");
  W.beginObject();
  for (const auto &N : All) {
    W.key(N.Name);
    W.beginObject();
    W.kv("base_cycles", N.BaseCycles);
    // Facility lock traffic of the default-pipeline run (non-gated:
    // contention is scheduling-dependent for Lanes > 1). The sim-cost
    // prices are docs/runtime.md's: uncontended 1, contended 40.
    writeContention(W, N.MetaStats);
    for (int C = 0; C < 4; ++C)
      W.kv(std::string("overhead_pct_") + Configs[C], N.OverheadPct[C]);
    const char *Runs[4] = {"_full_unopt", "_full", "_store_unopt", "_store"};
    for (int K = 0; K < 4; ++K)
      W.kv(std::string("checks") + Runs[K], N.Totals[K].Checks);
    for (int K = 0; K < 4; ++K)
      W.kv(std::string("meta_ops") + Runs[K], N.Totals[K].MetaOps);
    for (int K = 0; K < 4; ++K)
      W.kv(std::string("sim_cost") + Runs[K], N.Totals[K].SimCost);
    W.kv("check_guards_full", N.CheckGuards);
    W.kv("guard_skips_full", N.GuardSkips);
    W.key("checkopt");
    W.beginObject();
    W.kv("static_before", N.CheckOpt.ChecksBefore);
    W.kv("static_after", N.CheckOpt.ChecksAfter);
    W.kv("dominated", N.CheckOpt.DominatedEliminated);
    W.kv("range", N.CheckOpt.RangeEliminated);
    W.kv("hoisted", N.CheckOpt.LoopChecksHoisted);
    W.kv("interproc", N.CheckOpt.InterProcChecksElided);
    W.kv("interproc_callee", N.CheckOpt.InterProcCalleeElided);
    W.kv("interproc_caller", N.CheckOpt.InterProcCallerElided);
    W.kv("interproc_range", N.CheckOpt.InterProcRangeElided);
    W.kv("interproc_sunk", N.CheckOpt.InterProcSunkElided);
    W.kv("interproc_arg_summaries", N.CheckOpt.InterProcArgSummaries);
    W.kv("interproc_ret_summaries", N.CheckOpt.InterProcRetSummaries);
    W.kv("loops_counted_runtime", N.CheckOpt.LoopsCountedRuntime);
    W.kv("loops_symbolic_init", N.CheckOpt.LoopsCountedSymInit);
    W.kv("loops_strided", N.CheckOpt.LoopsCountedStrided);
    W.kv("runtime_hulls", N.CheckOpt.RuntimeHullChecks);
    W.kv("runtime_fallbacks", N.CheckOpt.RuntimeGuardedFallbacks);
    W.kv("runtime_discharged", N.CheckOpt.RuntimeGuardsDischarged);
    W.kv("runtime_divis_guards", N.CheckOpt.RuntimeDivisGuards);
    W.endObject();
    // Checked-region partitioning: the per-function checked/unchecked
    // report (default full-opt pipeline). "checked" functions are fully
    // proven and run without metadata instructions.
    W.key("partition");
    W.beginObject();
    W.kv("functions", N.CheckOpt.PartitionFunctions);
    W.kv("fully_proven", N.CheckOpt.PartitionProven);
    W.kv("meta_loads_removed", N.CheckOpt.PartitionMetaLoadsRemoved);
    W.kv("meta_stores_removed", N.CheckOpt.PartitionMetaStoresRemoved);
    W.key("report");
    W.beginArray();
    for (const auto &V : N.CheckOpt.Partition) {
      W.beginObject();
      W.kv("function", V.Func);
      W.kv("verdict", V.FullyProven ? "checked" : "unchecked");
      W.kv("reason", V.Reason);
      W.kv("meta_loads_removed", V.MetaLoadsRemoved);
      W.kv("meta_stores_removed", V.MetaStoresRemoved);
      W.endObject();
    }
    W.endArray();
    W.endObject();
    // PipelineStats per-pass timings: the non-gated `timings_*` key
    // group (wall-clock, machine-dependent; the gate never reads it).
    double TotalMs = 0;
    for (const auto &T : N.Timings)
      TotalMs += T.Millis;
    W.kv("timings_total_ms", TotalMs);
    W.key("timings_passes");
    W.beginArray();
    for (const auto &T : N.Timings) {
      W.beginObject();
      W.kv("pass", T.Pass);
      W.kv("ms", T.Millis);
      W.endObject();
    }
    W.endArray();
    if (Profile) {
      // Per-site hot-site table (full-opt shadow run). Deterministic:
      // identical across runs, so it can be baseline-diffed like the
      // check counts — but it is not gated.
      W.key("profile");
      W.beginObject();
      W.kv("sites_total", static_cast<uint64_t>(N.SitesTotal));
      W.kv("sites_live", static_cast<uint64_t>(N.SitesLive));
      W.key("hot_sites");
      W.beginArray();
      for (const auto &S : N.HotSites) {
        W.beginObject();
        W.kv("site", S.Site);
        W.kv("kind", S.Kind);
        W.kv("guarded", S.Guarded);
        W.kv("executed", S.Executed);
        W.kv("guard_elided", S.GuardElided);
        W.kv("fallback_fired", S.FallbackFired);
        W.kv("traps", S.Traps);
        W.kv("sim_cost", S.SimCost);
        W.endObject();
      }
      W.endArray();
      W.endObject();
    }
    W.endObject();
  }
  W.endObject();
  W.endObject();
  W.writeToOrExit(Path);
}

/// The gated row of each workload: its full-opt and store-opt totals.
std::vector<GatedRow> gatedRows(const std::vector<WorkloadNumbers> &All) {
  std::vector<GatedRow> Rows;
  for (const auto &N : All)
    Rows.push_back({N.Name, N.Totals[1], N.Totals[3]});
  return Rows;
}

/// Writes the per-workload current-vs-baseline deltas as a GitHub-flavoured
/// markdown table (for $GITHUB_STEP_SUMMARY). Workloads absent from the
/// baseline show "—" instead of a delta.
void writeSummary(const std::vector<WorkloadNumbers> &All, bool Profile,
                  const std::string &BaselinePath,
                  const std::string &Path) {
  JsonValue Doc;
  std::string Err;
  const JsonValue *WL = nullptr;
  if (!BaselinePath.empty() && parseJsonFile(BaselinePath, Doc, Err))
    WL = Doc.get("workloads");

  std::string Out;
  Out += "### bench-regression: dynamic checks, metadata ops, and "
         "simulated cost\n\n";
  Out += "| workload | checks_full | baseline | Δ | metadata_ops | "
         "baseline | Δ | sim_cost_full | baseline | Δ |\n";
  Out += "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n";
  auto Fmt = [](uint64_t V) { return std::to_string(V); };
  auto Delta = [](uint64_t Now, const JsonValue *Base) -> std::string {
    if (!Base || !Base->isNumber())
      return "—";
    int64_t D = static_cast<int64_t>(Now) - Base->asInt();
    if (D == 0)
      return "0";
    std::string S = std::to_string(D);
    return D > 0 ? "**+" + S + "**" : S;
  };
  for (const auto &N : All) {
    const JsonValue *E = WL ? WL->get(N.Name) : nullptr;
    Out += "| " + N.Name;
    const GatedTotals &T = N.Totals[1];
    for (const auto &[Key, Now] : {std::pair<const char *, uint64_t>{
                                       "checks_full", T.Checks},
                                   {"meta_ops_full", T.MetaOps},
                                   {"sim_cost_full", T.SimCost}}) {
      const JsonValue *B = E ? E->get(Key) : nullptr;
      Out += " | " + Fmt(Now) + " | " +
             (B && B->isNumber() ? Fmt(B->asInt()) : std::string("—")) +
             " | " + Delta(Now, B);
    }
    Out += " |\n";
  }
  Out += "\nΔ > 0 (bold) regresses the gate; metadata_ops = meta.loads + "
         "meta.stores (full-opt run); sim_cost = checks×3 + "
         "meta-lookups×lookupCost + meta-stores×updateCost + "
         "hull-guard tests×1.\n";
  if (Profile) {
    // --profile: hot-site tables per workload (docs/observability.md).
    // Site IDs and counts are deterministic, so this section diffs
    // cleanly between CI runs.
    Out += "\n### profile: hottest check/metadata sites (full-opt, "
           "shadow facility)\n";
    for (const auto &N : All) {
      Out += "\n**" + N.Name + "** (" + std::to_string(N.SitesLive) +
             " of " + std::to_string(N.SitesTotal) + " sites live)\n\n";
      Out += "| site | kind | guarded | executed | guard elided | "
             "fallback fired | sim cost |\n";
      Out += "|---|---|---|---:|---:|---:|---:|\n";
      size_t Shown = 0;
      for (const auto &S : N.HotSites) {
        if (Shown++ >= MaxSummarySites)
          break;
        Out += "| `" + S.Site + "` | " + S.Kind + " | " +
               (S.Guarded ? "yes" : "no") + " | " +
               std::to_string(S.Executed) + " | " +
               std::to_string(S.GuardElided) + " | " +
               std::to_string(S.FallbackFired) + " | " +
               std::to_string(S.SimCost) + " |\n";
      }
    }
  }
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    std::exit(1);
  }
  std::fwrite(Out.data(), 1, Out.size(), F);
  std::fclose(F);
  std::printf("wrote %s\n", Path.c_str());
}

} // namespace

int main(int argc, char **argv) {
  std::string SummaryPath, TracePath;
  bool Profile = false;
  std::set<std::string> OnlyWorkloads;
  const BenchFlags Flags = parseBenchFlags(
      argc, argv,
      {{"--summary", "<path>", [&](const char *A) { SummaryPath = A; }},
       {"--profile", nullptr, [&](const char *) { Profile = true; }},
       {"--trace", "<path>", [&](const char *A) { TracePath = A; }},
       {"--workload", "<name>",
        [&](const char *A) { OnlyWorkloads.insert(A); }}});
  if (!OnlyWorkloads.empty()) {
    // A filtered run is not the suite the baseline describes; gating (or
    // refreshing) against it would corrupt the gate's meaning.
    if (!Flags.BaselinePath.empty() || !Flags.WriteBaselinePath.empty()) {
      std::fprintf(stderr, "--workload cannot be combined with --baseline "
                           "or --write-baseline\n");
      return 2;
    }
    for (const auto &Name : OnlyWorkloads)
      if (std::none_of(benchmarkSuite().begin(), benchmarkSuite().end(),
                       [&](const Workload &W) { return W.Name == Name; })) {
        std::fprintf(stderr, "--workload %s: not in the benchmark suite\n",
                     Name.c_str());
        return 2;
      }
  }
  // One shared sink: pipeline timings + trace events from the profiled
  // builds, VM phase events and facility telemetry from the profiled
  // runs. Null stays null when neither flag is given — the zero-cost
  // disabled mode (docs/observability.md).
  Telemetry Telem;
  const bool DoTelemetry = Profile || !TracePath.empty();
  const unsigned Lanes = Flags.Lanes;
  auto Session = [&](FacilityKind Facility) {
    RunRequest R;
    R.Facility = Facility;
    R.Lanes = Lanes;
    R.FacilityShards = Flags.Shards;
    R.LockFreeReads = Flags.LockFree;
    return R;
  };

  std::printf("=== Figure 2: runtime overhead of SoftBound ===\n");
  std::printf("(percent overhead in simulated cycles vs uninstrumented;\n"
              " two metadata facilities x two checking modes)\n\n");

  TablePrinter T({"benchmark", "base Mcycles", "hash-full %", "shadow-full %",
                  "hash-store %", "shadow-store %", "wall x(shadow-full)"});

  std::vector<WorkloadNumbers> All;
  double Sum[4] = {0, 0, 0, 0};
  int UnderFifteenStore = 0;
  int N = 0;

  for (const auto &W : benchmarkSuite()) {
    if (!OnlyWorkloads.empty() && !OnlyWorkloads.count(W.Name))
      continue;
    WorkloadNumbers Num;
    Num.Name = W.Name;

    BuildResult Base = mustBuild(W.Source, "optimize");
    // Same lane count as the instrumented runs, so overhead ratios
    // compare like with like.
    Measurement MBase = measure(Base, Session(FacilityKind::Shadow));
    if (!MBase.R.ok()) {
      std::fprintf(stderr, "%s baseline failed: %s\n", W.Name.c_str(),
                   MBase.R.Message.c_str());
      return 1;
    }
    Num.BaseCycles = MBase.R.Counters.Cycles;

    // Two builds per checking mode: the default pipeline, run once per
    // facility (Figure 2's columns; its shadow run is also the
    // check-optimization table's "opt" column), and the same plan without
    // checkopt, run on shadow (the "unopt" column).
    for (int Store = 0; Store < 2; ++Store) {
      SoftBoundConfig SB;
      SB.Mode = Store ? CheckMode::StoreOnly : CheckMode::Full;
      // The default pipeline under full checking is the run --profile /
      // --trace observe. Telemetry attaches only there, and only when
      // requested, so the gated runs keep the null sink.
      const bool Observed = !Store && DoTelemetry;
      PipelinePlan Plan;
      Plan.frontend(W.Source).optimize().softbound(SB).checkOpt();
      if (Observed)
        Plan.telemetry(&Telem, Num.Name + ":");
      BuildResult Prog = mustBuild(Plan);
      for (FacilityKind Facility : {FacilityKind::Hash, FacilityKind::Shadow}) {
        const bool Shadow = Facility == FacilityKind::Shadow;
        const int C = 2 * Store + Shadow; // Index into Configs.
        SiteProfile Prof;
        RunRequest R = Session(Facility);
        if (Shadow && Observed) {
          R.Telem = &Telem;
          R.ProfileOut = &Prof;
          R.TraceTag = Num.Name + ":";
        }
        Measurement M = measure(Prog, R);
        if (!M.R.ok()) {
          std::fprintf(stderr, "%s/%s failed: trap=%s msg=%s\n",
                       W.Name.c_str(), Configs[C], trapName(M.R.Trap),
                       M.R.Message.c_str());
          return 1;
        }
        if (M.R.ExitCode != MBase.R.ExitCode) {
          // With one lane this is a hard correctness failure. With several
          // lanes racing on the shared heap allocator, address-dependent
          // workloads (bh, mst, compress checksums...) legitimately differ
          // run to run, so divergence only warrants a warning.
          if (Lanes == 1) {
            std::fprintf(stderr,
                         "%s/%s diverged: trap=%s exit=%lld vs %lld\n",
                         W.Name.c_str(), Configs[C], trapName(M.R.Trap),
                         static_cast<long long>(M.R.ExitCode),
                         static_cast<long long>(MBase.R.ExitCode));
            return 1;
          }
          std::fprintf(stderr,
                       "note: %s/%s exit %lld vs %lld under %u lanes "
                       "(address-dependent workload over a shared heap)\n",
                       W.Name.c_str(), Configs[C],
                       static_cast<long long>(M.R.ExitCode),
                       static_cast<long long>(MBase.R.ExitCode), Lanes);
        }
        Num.OverheadPct[C] = overheadPct(M.R.Counters.Cycles, Num.BaseCycles);
        Sum[C] += Num.OverheadPct[C];
        if (!Shadow)
          continue;
        Num.Totals[2 * Store + 1] = GatedTotals::of(M.R.Counters);
        if (Store)
          continue;
        Num.MetaStats = M.Meta;
        if (MBase.WallSeconds > 0)
          Num.WallRatio = M.WallSeconds / MBase.WallSeconds;
        Num.CheckOpt = Prog.Pipeline.CheckOpt;
        Num.Timings = Prog.Pipeline.Passes;
        Num.CheckGuards = M.R.Counters.CheckGuards;
        Num.GuardSkips = M.R.Counters.GuardSkips;
        if (Observed && Profile)
          fillHotSites(Num, *Prog.M, Prof);
      }

      PipelinePlan Unopt;
      Unopt.frontend(W.Source).optimize().softbound(SB);
      Measurement M = measure(mustBuild(Unopt), Session(FacilityKind::Shadow));
      if (!M.R.ok()) {
        std::fprintf(stderr, "%s checkopt run failed: %s\n", W.Name.c_str(),
                     M.R.Message.c_str());
        return 1;
      }
      Num.Totals[2 * Store] = GatedTotals::of(M.R.Counters);
    }
    if (Num.OverheadPct[3] < 15.0)
      ++UnderFifteenStore;
    ++N;

    T.addRow({W.Name, TablePrinter::fmt(Num.BaseCycles / 1e6, 2),
              TablePrinter::fmt(Num.OverheadPct[0], 1),
              TablePrinter::fmt(Num.OverheadPct[1], 1),
              TablePrinter::fmt(Num.OverheadPct[2], 1),
              TablePrinter::fmt(Num.OverheadPct[3], 1),
              TablePrinter::fmt(Num.WallRatio, 2)});
    All.push_back(std::move(Num));
  }

  if (N == 0) {
    std::fprintf(stderr, "no workloads selected\n");
    return 2;
  }
  T.addRow({"average", "", TablePrinter::fmt(Sum[0] / N, 1),
            TablePrinter::fmt(Sum[1] / N, 1), TablePrinter::fmt(Sum[2] / N, 1),
            TablePrinter::fmt(Sum[3] / N, 1), ""});
  T.print();

  // ------------------------------------------------------------------
  // Static check optimization (opt/checks/): dynamic checks executed with
  // the subsystem off vs on, and the static elimination rate. The checks
  // counter is facility-independent (both facilities execute the same
  // instrumented module), so one table covers hash and shadow runs.
  // ------------------------------------------------------------------
  std::printf("\n=== Check optimization: dynamic checks executed ===\n\n");
  TablePrinter C({"benchmark", "full unopt", "full opt", "red %",
                  "store unopt", "store opt", "red %", "static elim %",
                  "sim-cost full", "guards"});
  // Workloads dominated by counted loops, where hull hoisting applies; the
  // pointer-chasing Olden kernels keep their inherently dynamic checks.
  const std::set<std::string> CountedLoopSet = {"lbm", "hmmer", "compress",
                                                "ijpeg"};
  double CountedRedSum = 0;
  int CountedN = 0;
  bool CountedAllOver30 = true;
  auto Reduction = [](uint64_t Unopt, uint64_t Opt) {
    return Unopt ? 100.0 * (1.0 - double(Opt) / Unopt) : 0;
  };
  for (const auto &Num : All) {
    const GatedTotals *Tot = Num.Totals;
    double RedFull = Reduction(Tot[0].Checks, Tot[1].Checks);
    double RedStore = Reduction(Tot[2].Checks, Tot[3].Checks);
    if (CountedLoopSet.count(Num.Name)) {
      CountedRedSum += RedFull;
      ++CountedN;
      if (RedFull < 30.0)
        CountedAllOver30 = false;
    }
    C.addRow({Num.Name, std::to_string(Tot[0].Checks),
              std::to_string(Tot[1].Checks), TablePrinter::fmt(RedFull, 1),
              std::to_string(Tot[2].Checks), std::to_string(Tot[3].Checks),
              TablePrinter::fmt(RedStore, 1),
              TablePrinter::fmt(100.0 * Num.CheckOpt.eliminationRate(), 1),
              std::to_string(Tot[1].SimCost),
              std::to_string(Num.CheckGuards)});
  }
  C.print();
  if (CountedN > 0) {
    std::printf("\ncheck-optimization shape checks:\n");
    std::printf("  counted-loop workloads >=30%% fewer checks:  %s "
                "(avg %.1f%% over %d benchmarks)\n",
                CountedAllOver30 ? "yes" : "NO", CountedRedSum / CountedN,
                CountedN);
  }

  std::printf("\npaper shape checks:\n");
  std::printf("  hash-full avg > shadow-full avg:          %s (%.1f%% vs "
              "%.1f%%; paper: 127%% vs 79%%)\n",
              Sum[0] > Sum[1] ? "yes" : "NO", Sum[0] / N, Sum[1] / N);
  std::printf("  shadow-full avg > shadow-store avg:       %s (%.1f%% vs "
              "%.1f%%; paper: 79%% vs 32%%)\n",
              Sum[1] > Sum[3] ? "yes" : "NO", Sum[1] / N, Sum[3] / N);
  std::printf("  store-only <15%% for >= half of suite:     %s (%d of %d; "
              "paper: more than half)\n",
              UnderFifteenStore * 2 >= N ? "yes" : "NO", UnderFifteenStore,
              N);

  if (!Flags.JsonPath.empty())
    writeJson(All, Profile, Lanes, Flags.Shards, Flags.LockFree,
              Flags.JsonPath);
  if (!TracePath.empty()) {
    if (!Telem.writeChromeTrace(TracePath)) {
      std::fprintf(stderr, "cannot write %s\n", TracePath.c_str());
      return 1;
    }
    std::printf("wrote trace %s (%zu events)\n", TracePath.c_str(),
                Telem.traceEvents().size());
  }
  auto Workloads = [&All](JsonWriter &W) {
    W.beginObject();
    for (const GatedRow &Row : gatedRows(All)) {
      W.key(Row.Name);
      W.beginObject();
      writeGatedKeys(W, Row);
      W.endObject();
    }
    W.endObject();
  };
  if (!Flags.WriteBaselinePath.empty())
    writeBaselineSections(
        Flags.WriteBaselinePath,
        {{"schema",
          [](JsonWriter &W) { W.value("softbound-check-counts-v1"); }},
         {"pipeline", [](JsonWriter &W) { W.value(DefaultSpec); }},
         {"workloads", Workloads}});
  if (!SummaryPath.empty())
    writeSummary(All, Profile, Flags.BaselinePath, SummaryPath);
  if (!Flags.BaselinePath.empty()) {
    JsonValue Doc;
    const JsonValue *WL =
        baselineSection(Flags.BaselinePath, "workloads", Doc);
    if (!WL || gateSection("bench-regression", Flags.BaselinePath, *WL,
                           gatedRows(All)) > 0)
      return 1;
  }
  return 0;
}
