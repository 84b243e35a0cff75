//===- wallbench/src/Layers.h - whole or split builds and runs --*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two ways the benchmark reaches the library: whole or split.
///
///   * Untraced: PipelinePlan::build and runSession, exactly as a user
///     calls them.
///   * Traced: the same work split at its layer boundaries with public
///     calls only — compileC, then each pass from PassRegistry; the
///     facility constructor, VM::VM, then VM::run or VM::runLanes — with
///     a span around each call and a TimedFacility between the VM and the
///     facility. The split session derives its configuration the way
///     runSession does; sameSession() is the self-check that proves it.
///
/// LayerStats accumulates what the traced path measures; the workloads
/// turn it into per-layer metrics.
///
//===----------------------------------------------------------------------===//

#ifndef WALLBENCH_LAYERS_H
#define WALLBENCH_LAYERS_H

#include "Common.h"
#include "Trace.h"

#include "driver/Pipeline.h"

#include <map>
#include <string>
#include <vector>

namespace wallbench {

/// The uninstrumented and the default instrumented pipeline.
inline const char *const PlainSpec = "optimize";
inline const char *const CheckedSpec = "optimize,softbound,checkopt";

/// Everything the traced path measured, summed over traced builds and
/// sessions.
struct LayerStats {
  /// Cost of one empty timed interval, subtracted from facility samples.
  double ClockNs = clockOverheadNs();

  // Build side.
  unsigned Builds = 0;
  double FrontendMs = 0;
  double BuildSelfMs = 0;
  uint64_t FrontendInsts = 0;
  std::map<std::string, double> PassMs;      ///< By pass name.
  std::map<std::string, uint64_t> PassInsts; ///< IR insts after the pass.
  uint64_t ChecksBefore = 0, ChecksAfter = 0;

  // Session side, every session.
  unsigned Sessions = 0;
  std::vector<double> VmCtorMs;
  std::vector<double> SessionSelfMs;
  std::map<std::string, std::vector<double>> FacilityCtorMs; ///< By name.
  double SessionMs = 0, ExecMs = 0;

  // Instrumented execution on one lane, so wall time and instruction
  // counts describe the same thread.
  double CheckedExecMs = 0;
  uint64_t CheckedInsts = 0;
  FacilityTime Facility; ///< Facility calls of those sessions.

  // Instrumented sessions, every lane.
  softbound::VMCounters Counters;
  softbound::MetadataStats Meta;
  unsigned CheckedSessions = 0;
  double MetadataBytes = 0; ///< Summed end-of-session footprints.
};

/// Builds \p Src through PipelinePlan with the pipeline \p Spec.
softbound::BuildResult planBuild(const std::string &Src,
                                 const std::string &Spec);

/// Builds \p Src layer by layer under spans "build" > "frontend" /
/// "pass:<name>" for op \p Op. \p Spec is a comma list of knob-less pass
/// names. The result is the BuildResult PipelinePlan::build returns.
softbound::BuildResult tracedBuild(const std::string &Src,
                                   const std::string &Spec, Tracer &T,
                                   uint64_t Op, LayerStats &L);

/// Runs \p Prog as runSession(Prog, Req) would, layer by layer under spans
/// "session" > "facility.ctor.<name>" / "vm.ctor" / "vm.exec". Supports
/// the request fields the workloads set (facility, lanes, shards, lock-free
/// reads, entry, arguments, step limit, check cost).
softbound::SessionResult tracedSession(const softbound::BuildResult &Prog,
                                       const softbound::RunRequest &Req,
                                       Tracer &T, uint64_t Op, LayerStats &L);

/// The decomposition self-check: true when \p Split (tracedSession) and
/// \p Whole (runSession on the same program and request) agree — every
/// VMCounters and MetadataStats field for one lane; lane count, trap
/// outcome and concurrency model for more. Names the first difference in
/// \p Why.
bool sameSession(const softbound::SessionResult &Split,
                 const softbound::SessionResult &Whole, std::string &Why);

/// The self-check across a run: the first untraced session of each op kind
/// is the reference every traced session of that kind must match.
template <typename Key> class SelfCheck {
public:
  /// Records session \p S of op kind \p K; returns why it fails the
  /// check, or "" when it passes (untraced sessions always pass).
  std::string add(const Key &K, const softbound::SessionResult &S,
                  bool Traced, const std::string &Name) {
    if (!Traced) {
      Reference.emplace(K, S);
      return "";
    }
    auto Ref = Reference.find(K);
    if (Ref == Reference.end())
      return "self-check: no untraced session of " + Name;
    std::string Why;
    if (!sameSession(S, Ref->second, Why))
      return "self-check " + Name + ": " + Why;
    ++Checked;
    return "";
  }
  /// Traced sessions that matched their reference.
  unsigned checked() const { return Checked; }

private:
  std::map<Key, softbound::SessionResult> Reference;
  unsigned Checked = 0;
};

/// The per-layer metrics, from \p L: the build layers per pass over the
/// workload's input set (\p Passes passes were traced), session setup,
/// instrumented execution and the facility.
void reportLayers(Report &R, const LayerStats &L, double Passes);
/// Writes \p T as a Chrome trace to O.TraceOut and reports how much of
/// each op's wall time its layer spans account for, and how much worse
/// `op_ms` read over the traced rounds than over the untraced ones.
void reportTrace(Report &R, const Tracer &T, const Options &O,
                 double UntracedOpMs, double TracedOpMs);

} // namespace wallbench

#endif // WALLBENCH_LAYERS_H
