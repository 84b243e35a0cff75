//===- bench/bench_sec64_servers.cpp - §6.4 servers under traffic -----------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The §6.4 compatibility study under sustained traffic. Each server
/// (nhttpd-style HTTP, tinyftp-style FTP) is driven through a seeded
/// TrafficSchedule — by default 1000 requests of connection churn, mixed
/// request sizes, and adversarial payloads arriving as ordinary traffic —
/// with every request bracketed by sb_guard/sb_request_end so a contained
/// violation never poisons the requests after it (docs/runtime.md
/// "Traffic tier").
///
/// Gated claims (exit code):
///   * zero missed detections: every adversarial request traps, on every
///     lane, under both full and store-only checking;
///   * zero false traps: benign requests never trap, and an all-benign
///     schedule produces output identical to the uninstrumented run
///     (1-lane gate — lanes share globals, so N-lane output is
///     informational);
///   * per-request costs hold the committed baseline (--baseline): the
///     traffic section of bench/baselines/check_counts.json pins the
///     deterministic 1-lane totals (checks, metadata ops, sim cost) at a
///     pinned request count, which gates checks/request and
///     sim-cost/request exactly.
///
/// Flags (bench/BenchUtil.h's gate core, shared with bench_fig2_overhead):
///   --requests <N>        schedule length per server (default 1000).
///   --seed <S>            schedule seed (default 64).
///   --lanes <N>           N-lane VM session over one shared heap +
///                         facility; detection gates hold per lane.
///                         At most MaxLanesOrShards.
///   --shards <N>          facility shard count (power of two, at most
///                         MaxLanesOrShards).
///   --lockfree            LockFreeRead facility (seqlock read path).
///   --json <path>         machine-readable results, including the
///                         per-request metric keys (checks_per_request,
///                         meta_ops_per_request, sim_cost_per_request)
///                         and the non-gated contention_* group.
///   --baseline <path>     gate traffic totals against the committed
///                         baseline's "traffic" section (1-lane only):
///                         a value above baseline, a server on only one
///                         side, a schedule-shape mismatch or a drifted
///                         adversarial count fails.
///   --write-baseline <path>
///                         refresh the baseline's "traffic" section in
///                         place (every other section, including fig2's
///                         workloads, is carried through untouched).
///
/// Multi-lane runs report exit-code divergence instead of gating on it:
/// the drivers count handled/trapped requests in shared globals, so lane
/// exit codes legitimately diverge. The report names the first request
/// index where any lane's trap outcome differs from lane 0's and each
/// lane's handled-request count, so a detection divergence is
/// distinguishable from mere shared-counter racing.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "runtime/ShadowSpaceMetadata.h"
#include "workloads/Traffic.h"

#include <algorithm>
#include <cstdlib>

using namespace softbound;
using namespace softbound::benchutil;

namespace {

/// One instrumented mode (full or store-only) of one server's traffic run.
struct ModeNumbers {
  TrafficReport Rep;          ///< Lane-summed per-request metrics.
  MetadataStats Meta;         ///< Facility stats (contention_* keys).
  double OverheadPct = 0;     ///< Cycles vs the uninstrumented run.
  bool DetectOk = true;       ///< Per-lane: missed == 0, no false traps.
  bool ExitOk = true;         ///< Exit 0 (gated at 1 lane only).
  /// Divergence report (Lanes > 1): first request index where a lane's
  /// trap outcome differs from lane 0's (-1: streams agree), per-lane
  /// handled-request counts, per-lane exit codes.
  long DivergedAt = -1;
  std::vector<uint64_t> LaneHandled;
  std::vector<int64_t> LaneExits;
};

/// Everything measured for one server.
struct ServerNumbers {
  std::string Name; ///< Schedule kind name ("http" / "ftp").
  TrafficSchedule Sched;
  uint64_t PlainCycles = 0;
  bool PlainOk = false;
  ModeNumbers Full, Store;
  bool BenignIdentical = false;
  bool IdentityGated = true; ///< False for multi-lane runs (racy globals).
};

/// Folds one session's lane streams into lane-summed metrics plus the
/// per-lane detection gates and the divergence report.
ModeNumbers foldSession(const SessionResult &S, const TrafficSchedule &Sched,
                        uint64_t PlainCycles, unsigned Lanes) {
  ModeNumbers M;
  M.Meta = S.Meta;
  ShadowSpaceMetadata Costs;
  for (const RunResult &L : S.PerLane) {
    TrafficReport R = TrafficReport::fromSamples(
        Sched.Requests, L.Requests, Costs.lookupCost(), Costs.updateCost());
    M.DetectOk &= R.Missed == 0 && R.FalseTraps == 0 &&
                  R.Trapped == Sched.adversarialCount() &&
                  R.Requests == Sched.Requests.size();
    M.Rep.Requests = R.Requests; // Schedule length, not lane-summed.
    M.Rep.Adversarial = R.Adversarial;
    M.Rep.Trapped += R.Trapped;
    M.Rep.Missed += R.Missed;
    M.Rep.FalseTraps += R.FalseTraps;
    M.Rep.Checks += R.Checks;
    M.Rep.MetaOps += R.MetaOps;
    M.Rep.GuardEvals += R.GuardEvals;
    M.Rep.Cycles += R.Cycles;
    M.Rep.SimCost += R.SimCost;
    M.LaneHandled.push_back(R.Requests - R.Trapped);
    M.LaneExits.push_back(L.ExitCode);
  }
  M.ExitOk = Lanes > 1 || (S.Combined.ok() && S.Combined.ExitCode == 0);
  // Divergence scan: compare every lane's per-request trap kinds against
  // lane 0's (sample 0 is the prologue window; requests start at 1).
  const std::vector<RequestSample> &L0 = S.PerLane.front().Requests;
  for (size_t LI = 1; LI < S.PerLane.size() && M.DivergedAt < 0; ++LI) {
    const std::vector<RequestSample> &LN = S.PerLane[LI].Requests;
    size_t N = std::min(L0.size(), LN.size());
    for (size_t RI = 1; RI < N; ++RI)
      if (L0[RI].Trap != LN[RI].Trap) {
        M.DivergedAt = static_cast<long>(RI - 1); // Request index.
        break;
      }
    if (M.DivergedAt < 0 && L0.size() != LN.size())
      M.DivergedAt = static_cast<long>(N > 0 ? N - 1 : 0);
  }
  M.OverheadPct = overheadPct(S.Combined.Counters.Cycles, PlainCycles);
  return M;
}

/// The gated row of one server: its lane-summed 1-lane traffic totals.
GatedRow gatedRow(const ServerNumbers &S) {
  auto Totals = [](const TrafficReport &R) {
    return GatedTotals{R.Checks, R.MetaOps, R.SimCost};
  };
  return {S.Name, Totals(S.Full.Rep), Totals(S.Store.Rep)};
}

/// Gates this run's deterministic traffic totals against the baseline's
/// traffic section. Returns the number of failures. The totals are taken
/// at the baseline's pinned request count and seed, so a total gate is
/// exactly a per-request gate; a schedule-shape mismatch or a drifted
/// adversarial count is a failure, not a silent skip.
int gateTraffic(const std::vector<ServerNumbers> &All, unsigned Requests,
                uint64_t Seed, const std::string &Path) {
  JsonValue Doc;
  const JsonValue *T = baselineSection(Path, "traffic", Doc);
  if (!T)
    return 1;
  const JsonValue *BReq = T->get("requests");
  const JsonValue *BSeed = T->get("seed");
  auto Pinned = [](const JsonValue *V) {
    return V && V->isNumber() ? static_cast<long long>(V->asInt()) : -1LL;
  };
  if (Pinned(BReq) != static_cast<long long>(Requests) ||
      Pinned(BSeed) != static_cast<long long>(Seed)) {
    std::fprintf(stderr,
                 "baseline %s: traffic schedule shape mismatch (baseline "
                 "requests=%lld seed=%lld, run requests=%u seed=%llu); pass "
                 "matching --requests/--seed or refresh with "
                 "--write-baseline\n",
                 Path.c_str(), Pinned(BReq), Pinned(BSeed), Requests,
                 static_cast<unsigned long long>(Seed));
    return 1;
  }
  std::vector<GatedRow> Rows;
  int Drift = 0;
  for (const auto &S : All) {
    Rows.push_back(gatedRow(S));
    const JsonValue *Entry = T->get(S.Name);
    const JsonValue *Adv = Entry ? Entry->get("adversarial") : nullptr;
    if (Adv && Adv->isNumber() &&
        Adv->asInt() != static_cast<int64_t>(S.Sched.adversarialCount())) {
      std::printf("  %-6s SCHEDULE DRIFT: %u adversarial requests vs "
                  "baseline %lld (generator changed under a pinned seed)\n",
                  S.Name.c_str(), S.Sched.adversarialCount(),
                  static_cast<long long>(Adv->asInt()));
      ++Drift;
    }
  }
  return Drift + gateSection("traffic bench-regression", Path, *T, Rows);
}

/// Prints the multi-lane divergence report for one mode (satellite of the
/// traffic tier: a lane-exit divergence must name the first diverging
/// request and each lane's handled count, so shared-counter racing is
/// distinguishable from a detection difference).
void printDivergence(const std::string &Server, const char *Mode,
                     const ModeNumbers &M) {
  bool ExitsDiverge = false;
  for (int64_t E : M.LaneExits)
    ExitsDiverge |= E != M.LaneExits.front();
  if (!ExitsDiverge && M.DivergedAt < 0)
    return;
  std::printf("warning: %s (%s) lanes diverged: ", Server.c_str(), Mode);
  if (M.DivergedAt >= 0)
    std::printf("first diverging request index %ld; ", M.DivergedAt);
  else
    std::printf("trap streams agree (shared-counter exit racing only); ");
  std::printf("per-lane handled requests:");
  for (uint64_t H : M.LaneHandled)
    std::printf(" %llu", static_cast<unsigned long long>(H));
  std::printf("; per-lane exit codes:");
  for (int64_t E : M.LaneExits)
    std::printf(" %lld", static_cast<long long>(E));
  std::printf("\n");
}

} // namespace

int main(int argc, char **argv) {
  unsigned Requests = 1000;
  uint64_t Seed = 64;
  const BenchFlags Flags = parseBenchFlags(
      argc, argv,
      {{"--requests", "<N>", [&](const char *A) { Requests = countArg(A); }},
       {"--seed", "<S>",
        [&](const char *A) { Seed = std::strtoull(A, nullptr, 10); }}});
  if (Requests == 0) {
    std::fprintf(stderr, "--requests requires a positive count\n");
    return 2;
  }
  const unsigned Lanes = Flags.Lanes, Shards = Flags.Shards;
  const bool LockFree = Flags.LockFree;

  std::printf("=== §6.4 servers under sustained traffic ===\n");
  std::printf("(%u requests/server, seed %llu, %u lane%s, %u facility "
              "shard%s%s)\n\n",
              Requests, static_cast<unsigned long long>(Seed), Lanes,
              Lanes == 1 ? "" : "s", Shards, Shards == 1 ? "" : "s",
              LockFree ? ", lock-free reads" : "");

  TrafficConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.Requests = Requests;
  TrafficConfig BenignCfg = Cfg;
  BenignCfg.AttackPerMille = 0;

  RunRequest R;
  R.Lanes = Lanes;
  R.FacilityShards = Shards;
  R.LockFreeReads = LockFree;

  TablePrinter T({"server", "requests", "attacks", "trapped", "missed",
                  "checks/req", "meta-ops/req", "sim-cost/req",
                  "full overhead %", "store overhead %"});

  std::vector<ServerNumbers> Results;
  bool AllOk = true;
  for (ServerKind K : {ServerKind::Http, ServerKind::Ftp}) {
    ServerNumbers S;
    S.Name = serverKindName(K);
    S.Sched = TrafficSchedule::generate(K, Cfg);
    std::string Src = S.Sched.driverSource(/*Vuln=*/true);

    // Uninstrumented cycle baseline. The attacks' overflows land in
    // adjacent buffers by construction, so the plain run is
    // deterministic and exits 0 at one lane.
    Measurement MP = measure(mustBuild(Src, "optimize"), R);
    S.PlainCycles = MP.R.Counters.Cycles;
    S.PlainOk = MP.R.ok() && (Lanes > 1 || MP.R.ExitCode == 0);

    SessionResult Full =
        runSession(mustBuild(Src, "optimize,softbound,checkopt"), R);
    S.Full = foldSession(Full, S.Sched, S.PlainCycles, Lanes);

    SessionResult Store = runSession(
        mustBuild(Src, "optimize,softbound(store-only),checkopt"), R);
    S.Store = foldSession(Store, S.Sched, S.PlainCycles, Lanes);

    // The §6.4 no-false-positive claim under traffic: an all-benign
    // schedule, bug compiled out, runs byte-identically under full
    // checking. Gated at one lane (lanes share the global segment).
    TrafficSchedule Benign = TrafficSchedule::generate(K, BenignCfg);
    std::string BenignSrc = Benign.driverSource(/*Vuln=*/false);
    Measurement BP = measure(mustBuild(BenignSrc, "optimize"), R);
    Measurement BFull =
        measure(mustBuild(BenignSrc, "optimize,softbound,checkopt"), R);
    S.BenignIdentical = BFull.R.Output == BP.R.Output &&
                        (Lanes > 1 || BFull.R.ExitCode == BP.R.ExitCode);
    S.IdentityGated = Lanes == 1;

    AllOk &= S.PlainOk;
    AllOk &= S.Full.DetectOk && S.Full.ExitOk;
    AllOk &= S.Store.DetectOk && S.Store.ExitOk;
    AllOk &= S.BenignIdentical || !S.IdentityGated;

    T.addRow({S.Name, std::to_string(S.Sched.Requests.size()),
              std::to_string(S.Sched.adversarialCount()),
              std::to_string(S.Full.Rep.Trapped),
              std::to_string(S.Full.Rep.Missed),
              TablePrinter::fmt(S.Full.Rep.checksPerRequest(), 1),
              TablePrinter::fmt(S.Full.Rep.metaOpsPerRequest(), 1),
              TablePrinter::fmt(S.Full.Rep.simCostPerRequest(), 1),
              TablePrinter::fmt(S.Full.OverheadPct, 1),
              TablePrinter::fmt(S.Store.OverheadPct, 1)});
    Results.push_back(std::move(S));
  }
  T.print();
  std::printf("(trapped/missed are lane-summed full-checking outcomes; "
              "per-request costs are full-checking, all lanes)\n");

  for (const auto &S : Results) {
    if (!S.Full.DetectOk || !S.Store.DetectOk)
      std::printf("DETECTION GATE FAILED: %s missed or false-trapped "
                  "requests (full: %llu missed/%llu false, store: %llu "
                  "missed/%llu false)\n",
                  S.Name.c_str(),
                  static_cast<unsigned long long>(S.Full.Rep.Missed),
                  static_cast<unsigned long long>(S.Full.Rep.FalseTraps),
                  static_cast<unsigned long long>(S.Store.Rep.Missed),
                  static_cast<unsigned long long>(S.Store.Rep.FalseTraps));
    if (S.IdentityGated && !S.BenignIdentical)
      std::printf("IDENTITY GATE FAILED: %s benign traffic output differs "
                  "under full checking\n",
                  S.Name.c_str());
    if (Lanes > 1) {
      printDivergence(S.Name, "full", S.Full);
      printDivergence(S.Name, "store", S.Store);
    }
  }

  // The classic single-shot claim, kept from the pre-traffic bench: the
  // vulnerable query-copy variant is stopped in store-only mode.
  RunRequest RV;
  RV.Args = {1};
  BuildResult StoreProg =
      mustBuild(httpServerSource(), "optimize,softbound(store-only),checkopt");
  RunResult V = runSession(StoreProg, RV).Combined;
  std::printf("\nvulnerable query-copy variant under store-only checking: "
              "%s (paper: store-only stops all such attacks)\n",
              V.violationDetected() ? "stopped" : "MISSED");
  AllOk &= V.violationDetected();

  if (!Flags.JsonPath.empty()) {
    JsonWriter W;
    W.beginObject();
    W.kv("schema", "softbound-bench-sec64-v2");
    W.kv("lanes", static_cast<uint64_t>(Lanes));
    W.kv("shards", static_cast<uint64_t>(Shards));
    W.kv("lockfree", LockFree);
    W.kv("requests", static_cast<uint64_t>(Requests));
    W.kv("seed", Seed);
    W.key("servers");
    W.beginObject();
    for (const auto &S : Results) {
      W.key(S.Name);
      W.beginObject();
      W.kv("requests", static_cast<uint64_t>(S.Sched.Requests.size()));
      W.kv("adversarial", static_cast<uint64_t>(S.Sched.adversarialCount()));
      W.kv("plain_ok", S.PlainOk);
      W.kv("full_ok", S.Full.DetectOk && S.Full.ExitOk);
      W.kv("store_ok", S.Store.DetectOk && S.Store.ExitOk);
      W.kv("trapped_full", S.Full.Rep.Trapped);
      W.kv("missed_full", S.Full.Rep.Missed);
      W.kv("false_traps_full", S.Full.Rep.FalseTraps);
      W.kv("trapped_store", S.Store.Rep.Trapped);
      W.kv("missed_store", S.Store.Rep.Missed);
      W.kv("false_traps_store", S.Store.Rep.FalseTraps);
      W.kv("benign_output_identical", S.BenignIdentical);
      W.kv("benign_identity_gated", S.IdentityGated);
      W.kv("full_overhead_pct", S.Full.OverheadPct);
      W.kv("store_overhead_pct", S.Store.OverheadPct);
      // Gated totals (1-lane) and their per-request projections.
      writeGatedKeys(W, gatedRow(S));
      W.kv("checks_per_request", S.Full.Rep.checksPerRequest());
      W.kv("meta_ops_per_request", S.Full.Rep.metaOpsPerRequest());
      W.kv("sim_cost_per_request", S.Full.Rep.simCostPerRequest());
      W.kv("checks_per_request_store", S.Store.Rep.checksPerRequest());
      W.kv("meta_ops_per_request_store", S.Store.Rep.metaOpsPerRequest());
      W.kv("sim_cost_per_request_store", S.Store.Rep.simCostPerRequest());
      // Divergence report (single-lane runs: one entry, never diverged).
      W.kv("diverged_request_index", static_cast<int64_t>(S.Full.DivergedAt));
      W.key("lane_handled_requests");
      W.beginArray();
      for (uint64_t H : S.Full.LaneHandled)
        W.value(H);
      W.endArray();
      W.key("lane_exit_codes");
      W.beginArray();
      for (int64_t E : S.Full.LaneExits)
        W.value(E);
      W.endArray();
      // Non-gated contention group (full-checking run's facility).
      writeContention(W, S.Full.Meta);
      W.endObject();
    }
    W.endObject();
    W.kv("vulnerable_variant_stopped", V.violationDetected());
    W.endObject();
    W.writeToOrExit(Flags.JsonPath);
  }

  // The baseline's "traffic" section: schedule shape plus each server's
  // adversarial count and gated totals.
  auto Traffic = [&](JsonWriter &W) {
    W.beginObject();
    W.kv("requests", static_cast<uint64_t>(Requests));
    W.kv("seed", Seed);
    for (const auto &S : Results) {
      W.key(S.Name);
      W.beginObject();
      W.kv("adversarial", static_cast<uint64_t>(S.Sched.adversarialCount()));
      writeGatedKeys(W, gatedRow(S));
      W.endObject();
    }
    W.endObject();
  };
  if (!Flags.WriteBaselinePath.empty())
    writeBaselineSections(Flags.WriteBaselinePath, {{"traffic", Traffic}});
  int Regressions = Flags.BaselinePath.empty()
                        ? 0
                        : gateTraffic(Results, Requests, Seed,
                                      Flags.BaselinePath);

  return AllOk && Regressions == 0 ? 0 : 1;
}
