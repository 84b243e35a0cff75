//===- driver/Pipeline.h - end-to-end build & run helpers -------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-stop pipeline: mini-C source -> IR -> optimizer -> (optional)
/// SoftBound instrumentation -> VM execution with a chosen metadata
/// facility.
///
/// The build side is the composable PipelinePlan API
/// (driver/PassManager.h); BuildResult is the plan's PipelineResult. The
/// run side (docs/runtime.md): runSession takes a RunRequest — facility
/// kind, shard count, lane count, sinks — and returns a SessionResult
/// with the lane-merged Combined view plus per-lane results.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_DRIVER_PIPELINE_H
#define SOFTBOUND_DRIVER_PIPELINE_H

#include "driver/PassManager.h"
#include "frontend/Compiler.h"
#include "softbound/SoftBoundPass.h"
#include "vm/VM.h"

#include <memory>
#include <string>
#include <vector>

namespace softbound {

/// Which §5.1 metadata facility implementation to execute with.
enum class FacilityKind { Shadow, Hash };

/// A built program ready to run (the PipelinePlan result type).
using BuildResult = PipelineResult;

/// One run request: everything the session layer needs to execute a
/// built program — facility choice and concurrency shape, entry point
/// and arguments, cost knobs, observation sinks. This is the single
/// options struct behind runSession.
struct RunRequest {
  FacilityKind Facility = FacilityKind::Shadow;
  MemoryChecker *Checker = nullptr; ///< Baseline checker (uninstrumented).
  uint64_t RedzonePad = 0;          ///< Heap red-zone padding.
  uint64_t GlobalPad = 0;           ///< Global guard padding.
  /// Number of interpreter lanes. 1 (the default) runs exactly the
  /// classic single-threaded sequence — byte-identical counters and
  /// cycles to every release before the session API. N > 1 runs N
  /// lanes concurrently over one shared SimMemory and one shared
  /// metadata facility (ConcurrencyModel::Sharded, or LockFreeRead when
  /// LockFreeReads selects it); each lane executes Entry(Args) on a
  /// private 1/N slice of the stack segment.
  /// Refused (explanatory Message, Segfault trap) when combined with a
  /// baseline Checker — checkers keep single-threaded object tables —
  /// and above MaxLanesOrShards.
  unsigned Lanes = 1;
  /// Shard count for the metadata facility (rounded up to a power of
  /// two). The default 1 with Lanes == 1 keeps the facility in
  /// SingleThread mode — no locks, the gated-baseline fast path. Any
  /// other combination stripes the facility's address space over
  /// power-of-two locks (ConcurrencyModel::Sharded), which adds
  /// contention accounting but never changes lookup/update results.
  /// Refused above MaxLanesOrShards, like Lanes.
  unsigned FacilityShards = 1;
  /// Lock-free facility reads (docs/runtime.md "Lock-free reads"). When
  /// true the facility runs in ConcurrencyModel::LockFreeRead — writers
  /// still take the exclusive stripe lock, but lookups validate a copied
  /// entry against the stripe's seqlock instead of acquiring anything.
  /// Lookup/update *results* are unchanged; only the contention
  /// accounting moves from lock counters to seqlock read/retry counters
  /// (both priced in the non-gated contention_* group). The default
  /// false keeps single-lane/single-shard runs in SingleThread mode,
  /// byte-identical to the gated baselines.
  bool LockFreeReads = false;
  /// Entry function name ("_sb_"-renamed form resolved automatically).
  /// Must be "main" (or a function with no direct call sites) when the
  /// module was built with checkopt(interproc): the whole-program
  /// propagation treats internally-called functions' call sites as
  /// exhaustive, so entering one directly with arbitrary arguments
  /// bypasses the proofs that elided its entry checks. Enforced:
  /// checkopt(interproc) records the contract on the Module
  /// (Module::recordInterProcContract) and runSession refuses — with an
  /// explanatory Message — any Entry the pass's call graph considered
  /// non-externally-reachable.
  std::string Entry = "main";
  std::vector<int64_t> Args;
  uint64_t StepLimit = 4'000'000'000ULL;
  uint64_t CheckCost = 3; ///< Simulated instructions per bounds check.
  /// Telemetry sink (optional; null = the zero-cost disabled mode): VM
  /// phase trace events, facility probe histograms and clear/copy
  /// volumes, aggregate run counters. Never changes counters or cycles.
  Telemetry *Telem = nullptr;
  /// Out-parameter: per-site check/metadata profile (optional). Indexed
  /// by Instruction::site(); pair with Prog.M->checkSites() for names.
  SiteProfile *ProfileOut = nullptr;
  /// Trace-event name prefix (benches set "<workload>:"). Multi-lane
  /// sessions append "lane<K>:" per lane so trace events stay
  /// attributable after the deterministic merge.
  std::string TraceTag;
};

/// Everything one session produced. Combined is the lane-merged view
/// (counters summed, MaxFrameDepth maxed, trap taken from the first
/// trapping lane, outputs concatenated in lane order, per-request
/// `Requests` snapshots merged elementwise); PerLane keeps each lane's
/// untouched RunResult — including its own per-request stream, which is
/// what the traffic tier's detection and divergence reporting read.
/// Single-lane sessions have exactly one PerLane entry equal to
/// Combined.
struct SessionResult {
  RunResult Combined;
  std::vector<RunResult> PerLane;
  /// Facility statistics at session end (zeros for uninstrumented
  /// runs), including the lock acquire/contention counts behind the
  /// contention sim-cost model.
  MetadataStats Meta;

  bool ok() const { return Combined.ok(); }
};

/// Runs a built program in a fresh VM session: creates the metadata
/// facility for instrumented programs (sharded per \p Req), runs
/// Req.Lanes interpreter lanes, and merges per-lane profiles and
/// telemetry deterministically (lane-index order) into Req's sinks.
SessionResult runSession(const BuildResult &Prog, const RunRequest &Req = {});

/// Builds \p Plan and runs the result as a session. Build errors are
/// reported as a Combined RunResult with a Segfault trap and the error
/// text as Message.
SessionResult runSession(const PipelinePlan &Plan, const RunRequest &Req = {});

} // namespace softbound

#endif // SOFTBOUND_DRIVER_PIPELINE_H
