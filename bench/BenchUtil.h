//===- bench/BenchUtil.h - shared bench harness helpers ---------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table/figure regeneration binaries: run a
/// workload under a named configuration and report deterministic simulated
/// cycles, facility statistics and wall time; and the sim-cost gate core that
/// bench_fig2_overhead and bench_sec64_servers share (gated totals, the
/// baseline row and section writers, the section gate, the flag parser).
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_BENCH_BENCHUTIL_H
#define SOFTBOUND_BENCH_BENCHUTIL_H

#include "bench/BenchJson.h"
#include "driver/Pipeline.h"
#include "runtime/ShadowSpaceMetadata.h"
#include "support/TablePrinter.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace softbound {
namespace benchutil {

/// One measured execution.
struct Measurement {
  RunResult R;          ///< The session's Combined result.
  MetadataStats Meta;   ///< The session's facility statistics.
  double WallSeconds = 0;
};

/// Runs a built program as one session, timing the run.
inline Measurement measure(const BuildResult &Prog,
                           const RunRequest &Req = {}) {
  Measurement M;
  auto T0 = std::chrono::steady_clock::now();
  SessionResult S = runSession(Prog, Req);
  auto T1 = std::chrono::steady_clock::now();
  M.R = std::move(S.Combined);
  M.Meta = S.Meta;
  M.WallSeconds = std::chrono::duration<double>(T1 - T0).count();
  return M;
}

/// Percent overhead of Cycles over a baseline cycle count.
inline double overheadPct(uint64_t Instrumented, uint64_t Baseline) {
  if (Baseline == 0)
    return 0;
  return (static_cast<double>(Instrumented) /
              static_cast<double>(Baseline) -
          1.0) *
         100.0;
}

/// Runs a PipelinePlan to completion; aborts the process with a message on
/// build failure (benches must not run on broken inputs).
inline BuildResult mustBuild(const PipelinePlan &Plan) {
  BuildResult Prog = Plan.build();
  if (!Prog.ok()) {
    std::fprintf(stderr, "bench build failed:\n%s\n",
                 Prog.errorText().c_str());
    std::abort();
  }
  return Prog;
}

/// Builds \p Src through a textual pipeline spec; aborts on a malformed
/// spec or build failure.
inline BuildResult mustBuild(const std::string &Src, const std::string &Spec) {
  PipelinePlan Plan;
  Plan.frontend(Src);
  std::string Err;
  if (!Plan.appendSpec(Spec, &Err)) {
    std::fprintf(stderr, "bad pipeline spec '%s': %s\n", Spec.c_str(),
                 Err.c_str());
    std::abort();
  }
  return mustBuild(Plan);
}

/// Finds a named workload in the benchmark suite; aborts if missing.
inline const Workload &mustFindWorkload(const std::string &Name) {
  for (const auto &W : benchmarkSuite())
    if (W.Name == Name)
      return W;
  std::fprintf(stderr, "workload %s missing from suite\n", Name.c_str());
  std::abort();
}

//===----------------------------------------------------------------------===//
// The sim-cost gate
//===----------------------------------------------------------------------===//
//
// bench/baselines/check_counts.json is shared: bench_fig2_overhead owns its
// "workloads" section, bench_sec64_servers its "traffic" section, and both
// gate their rows of six deterministic single-lane totals by gateSection.

using benchjson::JsonValue;
using benchjson::JsonWriter;

/// One run's gated totals: dynamic checks, metadata ops, and the §5.1
/// simulated checking cost (checkingCost at the shadow facility's prices).
struct GatedTotals {
  uint64_t Checks = 0, MetaOps = 0, SimCost = 0;

  static GatedTotals of(const VMCounters &C) {
    ShadowSpaceMetadata Costs;
    return {C.Checks, C.metaOps(),
            checkingCost(C, RunRequest().CheckCost, Costs.lookupCost(),
                         Costs.updateCost())};
  }
};

/// One baseline row: totals under full and store-only checking.
struct GatedRow {
  std::string Name;
  GatedTotals Full, Store;
};

/// \p Row's six gated keys and values, in file order.
inline std::vector<std::pair<const char *, uint64_t>>
gatedKeys(const GatedRow &Row) {
  return {{"checks_full", Row.Full.Checks},
          {"checks_store", Row.Store.Checks},
          {"meta_ops_full", Row.Full.MetaOps},
          {"meta_ops_store", Row.Store.MetaOps},
          {"sim_cost_full", Row.Full.SimCost},
          {"sim_cost_store", Row.Store.SimCost}};
}

/// Writes \p Row's six gated keys into the object \p W has open.
inline void writeGatedKeys(JsonWriter &W, const GatedRow &Row) {
  for (const auto &[Key, Value] : gatedKeys(Row))
    W.kv(Key, Value);
}

/// Writes the non-gated contention_* keys of facility stats \p M.
inline void writeContention(JsonWriter &W, const MetadataStats &M) {
  W.kv("contention_lock_acquires", M.LockAcquires);
  W.kv("contention_lock_contended", M.LockContended);
  W.kv("contention_seqlock_reads", M.SeqlockReads);
  W.kv("contention_seqlock_retries", M.SeqlockRetries);
  W.kv("contention_sim_cost", M.contentionSimCost());
}

/// Gates \p Rows against one baseline section, whose object-valued
/// members are its rows (scalars such as the traffic schedule shape are
/// not). A value above its baseline (REGRESSED) and a row or key on one
/// side only (MISSING from the run, UNGATED by the baseline) fail; a value
/// below is "improved". Prints one line per verdict under a "=== <Title>
/// gate ===" header and returns the number of failures.
inline int gateSection(const std::string &Title, const std::string &Path,
                       const JsonValue &Section,
                       const std::vector<GatedRow> &Rows) {
  std::printf("\n=== %s gate (baseline: %s) ===\n", Title.c_str(),
              Path.c_str());
  int Failures = 0;
  auto Verdict = [&](const std::string &Row, const char *Key, bool Fails,
                     const char *Fmt, uint64_t Now = 0, uint64_t Base = 0) {
    std::printf("  %-12s %-14s ", Row.c_str(), Key);
    std::printf(Fmt, static_cast<unsigned long long>(Now),
                static_cast<unsigned long long>(Base));
    std::printf("\n");
    Failures += Fails;
  };
  const char *Ungated =
      "UNGATED: not in baseline (refresh with --write-baseline to gate it)";
  for (const std::string &Name : Section.ObjOrder) {
    const JsonValue &Entry = Section.Obj.at(Name);
    auto Cur = std::find_if(Rows.begin(), Rows.end(),
                            [&](const GatedRow &R) { return R.Name == Name; });
    if (!Entry.isObject())
      continue;
    if (Cur == Rows.end()) {
      Verdict(Name, "", true, "MISSING from this run (baseline has it)");
      continue;
    }
    for (const auto &[Key, Now] : gatedKeys(*Cur)) {
      const JsonValue *Base = Entry.get(Key);
      uint64_t Want = Base && Base->isNumber() ? Base->asInt() : 0;
      if (!Base || !Base->isNumber())
        Verdict(Name, Key, true, Ungated);
      else if (Now > Want)
        Verdict(Name, Key, true, "REGRESSED: %llu > baseline %llu", Now, Want);
      else if (Now < Want)
        Verdict(Name, Key, false,
                "improved: %llu < baseline %llu (refresh the baseline to "
                "lock in)",
                Now, Want);
    }
  }
  for (const GatedRow &R : Rows)
    if (!Section.get(R.Name) || !Section.get(R.Name)->isObject())
      Verdict(R.Name, "", true, Ungated);
  if (Failures == 0)
    std::printf("  OK: no row regressed its checks, metadata ops or "
                "simulated cost\n");
  return Failures;
}

/// Reads baseline \p Path into \p Doc and returns its top-level \p Section
/// object, or null after saying why on stderr.
inline const JsonValue *baselineSection(const std::string &Path,
                                        const std::string &Section,
                                        JsonValue &Doc) {
  std::string Err;
  if (!benchjson::parseJsonFile(Path, Doc, Err))
    std::fprintf(stderr, "baseline: %s\n", Err.c_str());
  else if (const JsonValue *S = Doc.get(Section); S && S->isObject())
    return S;
  else
    std::fprintf(stderr, "baseline %s: no \"%s\" section\n", Path.c_str(),
                 Section.c_str());
  return nullptr;
}

/// A top-level section a bench owns in the shared baseline file, and the
/// writer of its value.
using BaselineSection =
    std::pair<std::string, std::function<void(JsonWriter &)>>;

/// Rewrites baseline \p Path with the \p Owned sections: each replaces
/// its key in place, or is appended when new; every other section is
/// carried through in document order. A missing file starts empty; a
/// malformed one, or a failed write, exits 1 rather than clobber another
/// bench's section.
inline void writeBaselineSections(const std::string &Path,
                                  const std::vector<BaselineSection> &Owned) {
  JsonValue Old;
  std::string Err;
  if (std::FILE *F = std::fopen(Path.c_str(), "r")) {
    std::fclose(F);
    if (!benchjson::parseJsonFile(Path, Old, Err) || !Old.isObject()) {
      std::fprintf(stderr, "%s: cannot refresh (%s)\n", Path.c_str(),
                   Err.empty() ? "not an object" : Err.c_str());
      std::exit(1);
    }
  }
  std::vector<std::string> Keys = Old.ObjOrder;
  for (const auto &[Key, Write] : Owned)
    if (!Old.get(Key))
      Keys.push_back(Key);
  JsonWriter W;
  W.beginObject();
  for (const std::string &Key : Keys) {
    W.key(Key);
    auto It = std::find_if(Owned.begin(), Owned.end(),
                           [&](const auto &S) { return S.first == Key; });
    if (It != Owned.end())
      It->second(W);
    else
      benchjson::writeJsonValue(W, Old.Obj.at(Key));
  }
  W.endObject();
  W.writeToOrExit(Path);
}

//===----------------------------------------------------------------------===//
// Flags
//===----------------------------------------------------------------------===//

/// One command-line flag: a switch (null Arg) or a flag taking one
/// argument, which Set receives (null for a switch).
struct FlagSpec {
  const char *Name;
  const char *Arg; ///< Argument placeholder for diagnostics ("<path>").
  std::function<void(const char *)> Set;
};

/// Parses argv against \p Table; exits 2 on an unknown flag or a missing
/// argument.
inline void parseFlags(int argc, char **argv,
                       const std::vector<FlagSpec> &Table) {
  for (int I = 1; I < argc; ++I) {
    auto It = std::find_if(Table.begin(), Table.end(), [&](const FlagSpec &S) {
      return std::strcmp(S.Name, argv[I]) == 0;
    });
    if (It == Table.end()) {
      std::string Known;
      for (const FlagSpec &S : Table)
        Known += std::string(Known.empty() ? "" : ", ") + S.Name +
                 (S.Arg ? std::string(" ") + S.Arg : "");
      std::fprintf(stderr, "unknown flag '%s' (flags: %s)\n", argv[I],
                   Known.c_str());
      std::exit(2);
    }
    if (It->Arg && I + 1 >= argc) {
      std::fprintf(stderr, "%s requires an argument\n", It->Name);
      std::exit(2);
    }
    It->Set(It->Arg ? argv[++I] : nullptr);
  }
}

/// A count argument; out-of-range or negative input saturates to UINT_MAX
/// so that the caller's range check rejects it.
inline unsigned countArg(const char *A) {
  unsigned long V = std::strtoul(A, nullptr, 10);
  return V > UINT_MAX ? UINT_MAX : static_cast<unsigned>(V);
}

/// The flags both gated benches share.
struct BenchFlags {
  std::string JsonPath, BaselinePath, WriteBaselinePath;
  unsigned Lanes = 1, Shards = 1;
  bool LockFree = false;
};

/// parseFlags over the shared gated-bench flags plus \p Extra. Also exits
/// 2 on --lanes/--shards outside [1, MaxLanesOrShards], or on a baseline
/// flag with more than one lane (lane counters sum, so only single-lane
/// totals match the baseline).
inline BenchFlags parseBenchFlags(int argc, char **argv,
                                  std::vector<FlagSpec> Extra = {}) {
  BenchFlags F;
  Extra.insert(
      Extra.begin(),
      {{"--json", "<path>", [&](const char *A) { F.JsonPath = A; }},
       {"--baseline", "<path>", [&](const char *A) { F.BaselinePath = A; }},
       {"--write-baseline", "<path>",
        [&](const char *A) { F.WriteBaselinePath = A; }},
       {"--lanes", "<N>", [&](const char *A) { F.Lanes = countArg(A); }},
       {"--shards", "<N>", [&](const char *A) { F.Shards = countArg(A); }},
       {"--lockfree", nullptr, [&](const char *) { F.LockFree = true; }}});
  parseFlags(argc, argv, Extra);
  if (F.Lanes == 0 || F.Shards == 0 || F.Lanes > MaxLanesOrShards ||
      F.Shards > MaxLanesOrShards) {
    std::fprintf(stderr, "--lanes/--shards require a count in [1, %u]\n",
                 MaxLanesOrShards);
    std::exit(2);
  }
  if (F.Lanes > 1 && !(F.BaselinePath + F.WriteBaselinePath).empty()) {
    std::fprintf(stderr, "--baseline/--write-baseline require --lanes 1\n");
    std::exit(2);
  }
  return F;
}

} // namespace benchutil
} // namespace softbound

#endif // SOFTBOUND_BENCH_BENCHUTIL_H
