//===- wallbench/src/Layers.cpp - whole or split builds and runs ----------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "frontend/Compiler.h"
#include "ir/BasicBlock.h"
#include "ir/Verifier.h"
#include "runtime/HashTableMetadata.h"
#include "runtime/ShadowSpaceMetadata.h"

#include <memory>
#include <optional>

using namespace wallbench;
using namespace softbound;

BuildResult wallbench::planBuild(const std::string &Src,
                                 const std::string &Spec) {
  PipelinePlan Plan;
  Plan.frontend(Src);
  std::string Err;
  if (!Plan.appendSpec(Spec, &Err)) {
    BuildResult Bad;
    Bad.Errors.push_back(Err);
    return Bad;
  }
  return Plan.build();
}

namespace {

std::vector<std::string> splitSpec(const std::string &Spec) {
  std::vector<std::string> Names(1);
  for (char C : Spec) {
    if (C == ',')
      Names.emplace_back();
    else
      Names.back() += C;
  }
  return Names;
}

/// IR instructions in \p M, counted under their own span so counting is
/// not charged to the build's self time.
uint64_t countTraced(const Module &M, Tracer &T, uint64_t Op) {
  Scope S(&T, "bench.ir_count", Op);
  uint64_t N = 0;
  for (const auto &F : M.functions())
    for (const auto &BB : F->blocks())
      N += BB->size();
  return N;
}

const char *facilityName(FacilityKind K) {
  return K == FacilityKind::Shadow ? "shadow" : "hash";
}

} // namespace

BuildResult wallbench::tracedBuild(const std::string &Src,
                                   const std::string &Spec, Tracer &T,
                                   uint64_t Op, LayerStats &L) {
  BuildResult Out;
  Scope Build(&T, "build", Op);
  CompileResult CR;
  {
    Scope S(&T, "frontend", Op);
    CR = compileC(Src);
    L.FrontendMs += S.stop();
  }
  if (!CR.ok()) {
    Out.Errors = CR.Errors;
    return Out;
  }
  Out.M = std::move(CR.M);
  L.FrontendInsts += countTraced(*Out.M, T, Op);
  Out.Errors = verifyModule(*Out.M);

  PassContext Ctx;
  for (const std::string &Name : splitSpec(Spec)) {
    if (!Out.Errors.empty())
      break;
    std::string Err;
    auto P = PassRegistry::global().create(Name, {}, Err);
    if (!P) {
      Out.Errors.push_back(Err);
      break;
    }
    Scope S(&T, ("pass:" + Name).c_str(), Op);
    P->run(*Out.M, Ctx);
    double Ms = S.stop();
    Ctx.stats().Passes.push_back({P->spec(), Ms});
    L.PassMs[Name] += Ms;
    L.PassInsts[Name] += countTraced(*Out.M, T, Op);
    for (auto &E : verifyModule(*Out.M))
      Out.Errors.push_back("after pass '" + Name + "': " + E);
  }
  if (!Out.Errors.empty()) {
    Out.M.reset();
    return Out;
  }
  Out.M->assignCheckSites();
  Out.Pipeline = Ctx.stats();
  Out.Instrumented = Out.Pipeline.Instrumented;
  Out.Mode = Out.Pipeline.Mode;
  Out.Stats = Out.Pipeline.SB;
  Out.Stats.CheckOpt = Out.Pipeline.CheckOpt;
  L.ChecksBefore += Out.Pipeline.CheckOpt.ChecksBefore;
  L.ChecksAfter += Out.Pipeline.CheckOpt.ChecksAfter;
  ++L.Builds;
  Build.stop();
  L.BuildSelfMs += Build.selfMs();
  return Out;
}

SessionResult wallbench::tracedSession(const BuildResult &Prog,
                                       const RunRequest &Req, Tracer &T,
                                       uint64_t Op, LayerStats &L) {
  SessionResult S;
  Scope Session(&T, "session", Op);
  unsigned Lanes = Req.Lanes ? Req.Lanes : 1;

  // The configuration runSession derives from a RunRequest.
  VMConfig Cfg;
  Cfg.StepLimit = Req.StepLimit;
  Cfg.RedzonePad = Req.RedzonePad;
  Cfg.GlobalPad = Req.GlobalPad;
  Cfg.CheckCost = Req.CheckCost;
  Cfg.Wrappers = WrapperMode::None;
  std::unique_ptr<MetadataFacility> Meta;
  std::optional<TimedFacility> Timed;
  if (Prog.Instrumented) {
    FacilityOptions FO;
    FO.Shards = Req.FacilityShards ? Req.FacilityShards : 1;
    FO.Model = Req.LockFreeReads ? ConcurrencyModel::LockFreeRead
               : (Lanes > 1 || FO.Shards > 1) ? ConcurrencyModel::Sharded
                                              : ConcurrencyModel::SingleThread;
    const char *Name = facilityName(Req.Facility);
    {
      Scope C(&T, (std::string("facility.ctor.") + Name).c_str(), Op);
      if (Req.Facility == FacilityKind::Shadow)
        Meta = std::make_unique<ShadowSpaceMetadata>(FO);
      else
        Meta = std::make_unique<HashTableMetadata>(/*InitialLog2Size=*/16, FO);
      L.FacilityCtorMs[Name].push_back(C.stop());
    }
    Timed.emplace(*Meta, L.ClockNs);
    Cfg.Meta = &*Timed;
    Cfg.Instrumented = true;
    Cfg.Wrappers = Prog.Mode == CheckMode::Full        ? WrapperMode::Full
                   : Prog.Mode == CheckMode::StoreOnly ? WrapperMode::StoreOnly
                                                       : WrapperMode::None;
  }

  std::optional<VM> Machine;
  {
    Scope C(&T, "vm.ctor", Op);
    Machine.emplace(*Prog.M, Cfg);
    L.VmCtorMs.push_back(C.stop());
  }
  double ExecMs;
  {
    Scope E(&T, "vm.exec", Op);
    if (Lanes == 1) {
      S.Combined = Machine->run(Req.Entry, Req.Args);
      S.PerLane.push_back(S.Combined);
    } else {
      std::vector<LaneSpec> Specs(Lanes);
      for (LaneSpec &LS : Specs) {
        LS.Entry = Req.Entry;
        LS.Args = Req.Args;
      }
      S.PerLane = Machine->runLanes(Specs);
    }
    ExecMs = E.stop();
  }
  if (Lanes > 1) {
    // runSession's lane merge, restricted to what the workloads read.
    for (const RunResult &R : S.PerLane) {
      S.Combined.Counters.accumulate(R.Counters);
      S.Combined.Output += R.Output;
      if (S.Combined.Trap == TrapKind::None && R.Trap != TrapKind::None) {
        S.Combined.Trap = R.Trap;
        S.Combined.ExitCode = R.ExitCode;
      }
    }
    if (S.Combined.Trap == TrapKind::None)
      S.Combined.ExitCode = S.PerLane.front().ExitCode;
  }

  ++L.Sessions;
  L.ExecMs += ExecMs;
  if (Meta) {
    S.Meta = Meta->stats();
    ++L.CheckedSessions;
    L.Counters.accumulate(S.Combined.Counters);
    L.Meta.Lookups += S.Meta.Lookups;
    L.Meta.Updates += S.Meta.Updates;
    L.Meta.LockAcquires += S.Meta.LockAcquires;
    L.Meta.LockContended += S.Meta.LockContended;
    L.MetadataBytes += static_cast<double>(Meta->memoryBytes());
    if (Lanes == 1) {
      L.CheckedExecMs += ExecMs;
      L.CheckedInsts += S.Combined.Counters.Insts;
      L.Facility += Timed->time();
    }
  }

  // Teardown (VM, then facility) stays inside the session span, as it
  // does inside runSession.
  Machine.reset();
  Timed.reset();
  Meta.reset();
  L.SessionMs += Session.stop();
  L.SessionSelfMs.push_back(Session.selfMs());
  return S;
}

namespace {

template <typename T>
bool sameField(const char *Name, T A, T B, std::string &Why) {
  if (A == B)
    return true;
  Why = std::string(Name) + " " + std::to_string(A) + " vs " +
        std::to_string(B);
  return false;
}

bool sameCounters(const VMCounters &A, const VMCounters &B, std::string &Why) {
  return sameField("Insts", A.Insts, B.Insts, Why) &&
         sameField("Loads", A.Loads, B.Loads, Why) &&
         sameField("Stores", A.Stores, B.Stores, Why) &&
         sameField("PtrLoads", A.PtrLoads, B.PtrLoads, Why) &&
         sameField("PtrStores", A.PtrStores, B.PtrStores, Why) &&
         sameField("Checks", A.Checks, B.Checks, Why) &&
         sameField("CheckGuards", A.CheckGuards, B.CheckGuards, Why) &&
         sameField("GuardSkips", A.GuardSkips, B.GuardSkips, Why) &&
         sameField("FuncPtrChecks", A.FuncPtrChecks, B.FuncPtrChecks, Why) &&
         sameField("MetaLoads", A.MetaLoads, B.MetaLoads, Why) &&
         sameField("MetaStores", A.MetaStores, B.MetaStores, Why) &&
         sameField("Calls", A.Calls, B.Calls, Why) &&
         sameField("Cycles", A.Cycles, B.Cycles, Why) &&
         sameField("MaxFrameDepth", A.MaxFrameDepth, B.MaxFrameDepth, Why);
}

bool sameMeta(const MetadataStats &A, const MetadataStats &B,
              std::string &Why) {
  return sameField("Lookups", A.Lookups, B.Lookups, Why) &&
         sameField("Updates", A.Updates, B.Updates, Why) &&
         sameField("Clears", A.Clears, B.Clears, Why) &&
         sameField("Collisions", A.Collisions, B.Collisions, Why) &&
         sameField("LockAcquires", A.LockAcquires, B.LockAcquires, Why) &&
         sameField("LockContended", A.LockContended, B.LockContended, Why) &&
         sameField("SeqlockReads", A.SeqlockReads, B.SeqlockReads, Why) &&
         sameField("SeqlockRetries", A.SeqlockRetries, B.SeqlockRetries, Why);
}

} // namespace

bool wallbench::sameSession(const SessionResult &Split,
                            const SessionResult &Whole, std::string &Why) {
  if (!sameField("lanes", Split.PerLane.size(), Whole.PerLane.size(), Why) ||
      !sameField("trap", static_cast<int>(Split.Combined.Trap),
                 static_cast<int>(Whole.Combined.Trap), Why))
    return false;
  if (Split.PerLane.size() == 1)
    return sameField("exit", Split.Combined.ExitCode, Whole.Combined.ExitCode,
                     Why) &&
           sameCounters(Split.Combined.Counters, Whole.Combined.Counters,
                        Why) &&
           sameMeta(Split.Meta, Whole.Meta, Why);
  // Lanes race on shared globals, so counts may differ run to run; the
  // concurrency model shows in which contention counters are live.
  return sameField("locking", Split.Meta.LockAcquires > 0,
                   Whole.Meta.LockAcquires > 0, Why) &&
         sameField("seqlock", Split.Meta.SeqlockReads > 0,
                   Whole.Meta.SeqlockReads > 0, Why);
}

void wallbench::reportLayers(Report &R, const LayerStats &L, double Passes) {
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  auto PerPass = [&](double V) { return V / Passes; };
  auto PassMs = [&](const char *N) {
    auto It = L.PassMs.find(N);
    return It == L.PassMs.end() ? 0.0 : PerPass(It->second);
  };
  auto PassInsts = [&](const char *N) {
    auto It = L.PassInsts.find(N);
    return It == L.PassInsts.end() ? 0.0
                                   : PerPass(static_cast<double>(It->second));
  };
  R.set("frontend.ms", PerPass(L.FrontendMs), "ms");
  R.set("frontend.ir_insts", PerPass(static_cast<double>(L.FrontendInsts)),
        "count");
  R.set("opt.ms", PassMs("optimize"), "ms");
  R.set("opt.ir_insts", PassInsts("optimize"), "count");
  R.set("softbound.ms", PassMs("softbound"), "ms");
  R.set("softbound.ir_insts", PassInsts("softbound"), "count");
  R.set("checkopt.ms", PassMs("checkopt"), "ms");
  R.set("checkopt.static_elided_pct",
        100.0 * (1.0 - Ratio(static_cast<double>(L.ChecksAfter),
                             static_cast<double>(L.ChecksBefore))),
        "%");
  R.set("driver.build_self_ms", PerPass(L.BuildSelfMs), "ms");

  R.set("driver.session_self_ms",
        Ratio(sum(L.SessionSelfMs), L.Sessions), "ms");
  R.set("vm.setup_ms_p50", quantile(L.VmCtorMs, 0.5), "ms");
  R.set("vm.setup_ms_p90", quantile(L.VmCtorMs, 0.9), "ms");
  R.set("vm.setup_share", Ratio(sum(L.VmCtorMs), L.SessionMs), "ratio");
  R.set("vm.exec_share", Ratio(L.ExecMs, L.SessionMs), "ratio");
  double CtorMs = 0;
  for (const auto &[Name, Samples] : L.FacilityCtorMs)
    CtorMs += median(Samples);
  R.set("runtime.ctor_ms",
        Ratio(CtorMs, static_cast<double>(L.FacilityCtorMs.size())), "ms");

  const VMCounters &C = L.Counters;
  double KInsts = static_cast<double>(C.Insts) / 1000.0;
  R.set("softbound.checks_per_kinst", Ratio(C.Checks, KInsts), "1/kinst");
  R.set("softbound.metaops_per_kinst",
        Ratio(static_cast<double>(C.MetaLoads + C.MetaStores), KInsts),
        "1/kinst");
  R.set("checkopt.guard_skip_ratio",
        Ratio(static_cast<double>(C.GuardSkips),
              static_cast<double>(C.CheckGuards)),
        "ratio");
  R.set("vm.exec_ns_per_inst",
        Ratio(L.CheckedExecMs * 1e6, static_cast<double>(L.CheckedInsts)),
        "ns/inst");
  R.set("vm.calls_per_kinst", Ratio(static_cast<double>(C.Calls), KInsts),
        "1/kinst");
  const FacilityTime &F = L.Facility;
  R.set("runtime.lookup_ns",
        Ratio(static_cast<double>(F.LookupNs), static_cast<double>(F.Lookups)),
        "ns");
  R.set("runtime.update_ns",
        Ratio(static_cast<double>(F.UpdateNs), static_cast<double>(F.Updates)),
        "ns");
  R.set("runtime.range_ns_per_kb",
        Ratio(static_cast<double>(F.RangeNs),
              static_cast<double>(F.RangeBytes) / 1024.0),
        "ns/KB");
  R.set("runtime.share",
        Ratio(static_cast<double>(F.totalNs()), L.CheckedExecMs * 1e6),
        "ratio");
  R.set("runtime.lookups_per_kinst",
        Ratio(static_cast<double>(L.Meta.Lookups), KInsts), "1/kinst");
  R.set("runtime.updates_per_kinst",
        Ratio(static_cast<double>(L.Meta.Updates), KInsts), "1/kinst");
  R.set("runtime.memory_mb",
        Ratio(L.MetadataBytes / (1024.0 * 1024.0), L.CheckedSessions), "MB");
  R.set("runtime.lock_acquires_per_kinst",
        Ratio(static_cast<double>(L.Meta.LockAcquires), KInsts), "1/kinst");
  R.set("runtime.lock_contended_ratio",
        Ratio(static_cast<double>(L.Meta.LockContended),
              static_cast<double>(L.Meta.LockAcquires)),
        "ratio");
}

void wallbench::reportTrace(Report &R, const Tracer &T, const Options &O,
                            double UntracedOpMs, double TracedOpMs) {
  double OpMs = 0, OpSelfMs = 0;
  for (const Tracer::Span &S : T.spans())
    if (S.Name == "op") {
      OpMs += S.ms();
      OpSelfMs += S.selfMs();
    }
  R.set("trace.op_self_pct", OpMs > 0 ? 100.0 * OpSelfMs / OpMs : 0, "%");
  R.set("trace.overhead_pct.op_ms",
        UntracedOpMs > 0 ? 100.0 * (TracedOpMs - UntracedOpMs) / UntracedOpMs
                         : 0,
        "%");
  if (!O.TraceOut.empty() && !T.writeChrome(O.TraceOut))
    failSetup(R, "cannot write trace file " + O.TraceOut);
}
