//===- vm/VM.h - IR interpreter with simulated process image ----*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution substrate standing in for the paper's native x86 runs: an
/// IR interpreter whose call frames live in simulated memory (return
/// address and saved frame-pointer words included), with deterministic
/// cycle accounting (1 per instruction, §5.1 costs per metadata operation,
/// 3 per bounds check) so the overhead ratios of Figure 2 are reproducible.
/// Each function is decoded once, when the image loads, into flat code
/// with pre-resolved operands that every run of the image executes
/// (docs/runtime.md "Interpreter").
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_VM_VM_H
#define SOFTBOUND_VM_VM_H

#include "ir/Module.h"
#include "runtime/MetadataFacility.h"
#include "support/Telemetry.h"
#include "vm/MemoryChecker.h"
#include "vm/SimMemory.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace softbound {

struct DecodedFunction;

/// How a run ended (TrapKind::None = normal exit).
enum class TrapKind {
  None,
  SpatialViolation, ///< SoftBound bounds check failed.
  FuncPtrViolation, ///< SoftBound function-pointer encoding check failed.
  BaselineViolation, ///< A comparison baseline (red zone / object table) hit.
  Segfault,
  OutOfMemory,
  InvalidFree,
  CorruptedReturn,
  CorruptedFrame,
  CorruptedJmpBuf,
  BadIndirectCall,
  DivByZero,
  UnreachableExecuted,
  StackOverflow,
  StepLimit,
  Hijacked, ///< Corrupted control data redirected control flow (attack won).
};

/// Human-readable trap name.
const char *trapName(TrapKind K);

/// Every summed VMCounters field, listed once with its telemetry name
/// (`vm/<name>`): the list declares the fields and generates
/// accumulate(), since(), sameCounts() and VMExec::run's telemetry.
/// MaxFrameDepth is a high-water mark, not a count, so it sits outside
/// the list with its own max/absolute rule.
#define SOFTBOUND_VM_COUNTERS(X)                                               \
  X(Insts, insts)                                                              \
  X(Loads, loads)                                                              \
  X(Stores, stores)                                                            \
  X(PtrLoads, ptr_loads)   /* Loads of a pointer-typed value (Fig. 1). */   \
  X(PtrStores, ptr_stores) /* Stores whose value type is a pointer. */         \
  X(Checks, checks)                                                            \
  X(CheckGuards, check_guards) /* Guard evaluations on guarded checks. */      \
  X(GuardSkips, guard_skips)   /* Guarded checks skipped (guard false). */     \
  X(FuncPtrChecks, func_ptr_checks)                                            \
  X(MetaLoads, meta_loads)                                                     \
  X(MetaStores, meta_stores)                                                   \
  X(Calls, calls)                                                              \
  X(Cycles, cycles)

/// Dynamic execution statistics.
struct VMCounters {
#define SOFTBOUND_VM_COUNTER_FIELD(Name, Path) uint64_t Name = 0;
  SOFTBOUND_VM_COUNTERS(SOFTBOUND_VM_COUNTER_FIELD)
#undef SOFTBOUND_VM_COUNTER_FIELD
  uint64_t MaxFrameDepth = 0;

  uint64_t memOps() const { return Loads + Stores; }
  uint64_t metaOps() const { return MetaLoads + MetaStores; }
  double ptrOpFraction() const {
    uint64_t M = memOps();
    return M ? static_cast<double>(PtrLoads + PtrStores) / M : 0.0;
  }

  /// Folds \p O into this counter set (multi-lane joins): every count
  /// adds except MaxFrameDepth, which takes the max across lanes.
  void accumulate(const VMCounters &O) {
#define SOFTBOUND_VM_COUNTER_ADD(Name, Path) Name += O.Name;
    SOFTBOUND_VM_COUNTERS(SOFTBOUND_VM_COUNTER_ADD)
#undef SOFTBOUND_VM_COUNTER_ADD
    if (O.MaxFrameDepth > MaxFrameDepth)
      MaxFrameDepth = O.MaxFrameDepth;
  }

  /// Counter delta since snapshot \p Prev (per-request windows). Every
  /// count subtracts; MaxFrameDepth keeps the current absolute value —
  /// a per-window depth delta has no meaning.
  VMCounters since(const VMCounters &Prev) const {
    VMCounters D;
#define SOFTBOUND_VM_COUNTER_SUB(Name, Path) D.Name = Name - Prev.Name;
    SOFTBOUND_VM_COUNTERS(SOFTBOUND_VM_COUNTER_SUB)
#undef SOFTBOUND_VM_COUNTER_SUB
    D.MaxFrameDepth = MaxFrameDepth;
    return D;
  }

  /// True when every count equals \p O's; MaxFrameDepth, a high-water
  /// mark, is left to the caller.
  bool sameCounts(const VMCounters &O) const {
    bool Same = true;
#define SOFTBOUND_VM_COUNTER_EQ(Name, Path) Same = Same && Name == O.Name;
    SOFTBOUND_VM_COUNTERS(SOFTBOUND_VM_COUNTER_EQ)
#undef SOFTBOUND_VM_COUNTER_EQ
    return Same;
  }
};

/// The §5.1 checking-cost model behind the sim-cost gates: checks at
/// \p CheckCost, metadata loads and stores at the facility's lookup and
/// update costs, guard evaluations at 1. FuncPtrChecks are not priced.
inline uint64_t checkingCost(const VMCounters &C, uint64_t CheckCost,
                             uint64_t LookupCost, uint64_t UpdateCost) {
  return C.Checks * CheckCost + C.MetaLoads * LookupCost +
         C.MetaStores * UpdateCost + C.CheckGuards * 1;
}

/// One request window recorded by the `sb_request_end` builtin: the
/// counter delta since the previous window boundary plus the contained
/// trap (if any) that `sb_guard` recovered from inside the window.
/// Traffic drivers (src/workloads/Traffic.h) bracket each simulated
/// server request with sb_guard/sb_request_end so per-request cost and
/// detection outcomes are observable without re-running single shots.
struct RequestSample {
  VMCounters Delta;
  TrapKind Trap = TrapKind::None; ///< Contained violation, or None.
};

/// Result of one VM run.
struct RunResult {
  TrapKind Trap = TrapKind::None;
  int64_t ExitCode = 0;
  std::string Message;
  std::string HijackTarget; ///< Function name control flow escaped to.
  std::string Output;       ///< Text produced by print builtins.
  VMCounters Counters;
  /// Per-request counter windows, in program order (sb_request_end
  /// calls). By traffic-driver convention sample 0 covers the program
  /// prologue (globals/table setup before the request loop).
  std::vector<RequestSample> Requests;
  uint64_t MetadataMemory = 0;
  uint64_t HeapHighWater = 0;

  bool ok() const { return Trap == TrapKind::None; }
  /// True when the run shows the attacker winning (for the attack suite).
  bool attackLanded() const {
    return Trap == TrapKind::Hijacked || ExitCode == 66;
  }
  /// True when a spatial-safety tool stopped the program.
  bool violationDetected() const {
    return Trap == TrapKind::SpatialViolation ||
           Trap == TrapKind::FuncPtrViolation ||
           Trap == TrapKind::BaselineViolation;
  }
};

/// Which accesses the instrumented-builtin wrappers check (§6: full vs
/// store-only checking).
enum class WrapperMode { None, StoreOnly, Full };

/// VM construction options. The segment sizes are simlayout's
/// constants (vm/SimMemory.h); frees and frame exits always clear the
/// metadata of the released range (§5.2).
struct VMConfig {
  MetadataFacility *Meta = nullptr;  ///< Required for instrumented modules.
  MemoryChecker *Checker = nullptr;  ///< Baseline checker (uninstrumented).
  WrapperMode Wrappers = WrapperMode::Full;
  uint64_t StepLimit = 4'000'000'000ULL;
  uint64_t CheckCost = 3;      ///< Simulated instructions per bounds check.
  uint64_t RedzonePad = 0;     ///< Heap padding for checker baselines.
  uint64_t GlobalPad = 0;      ///< Global padding for checker baselines.
  bool Instrumented = false;   ///< Module carries SoftBound instrumentation.
};

/// One interpreter lane of a run: entry point, arguments, and per-lane
/// observation sinks. Lanes share the module image, the global and heap
/// segments, and the metadata facility; each lane gets a private slice
/// of the stack segment. Sinks must not be shared between lanes — the
/// session layer merges them deterministically at join.
struct LaneSpec {
  std::string Entry = "main";
  std::vector<int64_t> Args;
  /// Per-site dynamic profile, indexed by Instruction::site() (null =
  /// off). Recording never changes counters or cycle accounting.
  SiteProfile *Profile = nullptr;
  /// Telemetry sink for VM phase trace events and aggregate run
  /// counters (null = off). Trace timestamps are simulated cycles, so
  /// timelines are deterministic.
  Telemetry *Telem = nullptr;
  std::string TraceTag; ///< Trace-event name prefix (benches: "<workload>:").
};

/// One SSA value at runtime: scalars use A; bounds use {A=base, B=bound};
/// ptrpair uses {A=ptr, B=base, C=bound}.
struct VMVal {
  uint64_t A = 0;
  uint64_t B = 0;
  uint64_t C = 0;
};

/// The interpreter. One VM instance loads one module image and can run one
/// entry function (construct a fresh VM per run for isolation).
class VM {
public:
  VM(Module &M, VMConfig Config);
  ~VM();

  /// Runs \p EntryName as one lane with no observation sinks:
  /// runLanes({{EntryName, Args}}).front().
  RunResult run(const std::string &EntryName = "main",
                const std::vector<int64_t> &Args = {});

  /// Runs N interpreter lanes over this VM's shared image, heap, and
  /// metadata facility; returns one RunResult per lane, in lane order.
  /// Each lane runs its Entry (falling back to the `_sb_`-renamed form),
  /// passing integer Args to the leading integer parameters. One lane
  /// runs inline on the caller's thread with the full stack segment;
  /// N > 1 lanes each get a 16-aligned 1/N slice of the stack and run on
  /// their own host threads with SimMemory in concurrent mode.
  /// Multi-lane callers must use a Sharded metadata facility and no
  /// baseline Checker (checkers keep single-threaded object tables) —
  /// the session layer enforces this. When the module's globals overflow
  /// the global segment nothing runs: every lane's result is an
  /// OutOfMemory trap naming the first global that did not fit.
  std::vector<RunResult> runLanes(const std::vector<LaneSpec> &Lanes);

  uint64_t functionAddress(const Function *F) const;
  uint64_t globalAddress(const GlobalVariable *G) const;
  SimMemory &memory() { return Mem; }

private:
  Module &M;
  VMConfig Cfg;
  SimMemory Mem;

  // Module image.
  std::unordered_map<const Function *, uint64_t> FuncAddr;
  std::unordered_map<const GlobalVariable *, uint64_t> GlobalAddr;
  /// Every module function, decoded, indexed by its place in the
  /// function segment (FuncBase + FuncStride * index). Built by
  /// loadImage and only read after: lanes share it across host threads.
  std::vector<DecodedFunction> Decoded;
  /// Why the image could not be loaded (empty when it was); runs then
  /// return an OutOfMemory trap carrying this message.
  std::string ImageError;

  void loadImage();
  void decode(DecodedFunction &D) const;
  RunResult imageRefusal() const;

  friend class VMExec;
};

} // namespace softbound

#endif // SOFTBOUND_VM_VM_H
