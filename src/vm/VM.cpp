//===- vm/VM.cpp - IR interpreter with simulated process image -------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/VM.h"

#include "support/Compiler.h"
#include "support/RNG.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <thread>

using namespace softbound;
using namespace softbound::simlayout;

const char *softbound::trapName(TrapKind K) {
  switch (K) {
  case TrapKind::None:
    return "none";
  case TrapKind::SpatialViolation:
    return "spatial-violation";
  case TrapKind::FuncPtrViolation:
    return "funcptr-violation";
  case TrapKind::BaselineViolation:
    return "baseline-violation";
  case TrapKind::Segfault:
    return "segfault";
  case TrapKind::OutOfMemory:
    return "out-of-memory";
  case TrapKind::InvalidFree:
    return "invalid-free";
  case TrapKind::CorruptedReturn:
    return "corrupted-return";
  case TrapKind::CorruptedFrame:
    return "corrupted-frame";
  case TrapKind::CorruptedJmpBuf:
    return "corrupted-jmpbuf";
  case TrapKind::BadIndirectCall:
    return "bad-indirect-call";
  case TrapKind::DivByZero:
    return "div-by-zero";
  case TrapKind::UnreachableExecuted:
    return "unreachable-executed";
  case TrapKind::StackOverflow:
    return "stack-overflow";
  case TrapKind::StepLimit:
    return "step-limit";
  case TrapKind::Hijacked:
    return "hijacked";
  }
  sb_unreachable("covered switch");
}

namespace {

/// Builtin functions the VM implements natively. The `SB` variants are the
/// instrumented library wrappers of §5.2 carrying bounds arguments.
enum class Builtin {
  NotABuiltin,
  Malloc,
  Free,
  Memcpy,
  Memset,
  Strlen,
  Strcpy,
  Strcat,
  Strcmp,
  PrintInt,
  PrintChar,
  PrintStr,
  Exit,
  Rand,
  Srand,
  Setjmp,
  Longjmp,
  RequestGuard,
  RequestEnd,
  SetBound,
  Unbound,
  SBMemcpy,
  SBMemcpyNoMeta,
  SBMemset,
  SBStrlen,
  SBStrcpy,
  SBStrcat,
  SBStrcmp,
};

Builtin builtinByName(const std::string &N) {
  static const std::unordered_map<std::string, Builtin> Map = {
      {"malloc", Builtin::Malloc},
      {"free", Builtin::Free},
      {"memcpy", Builtin::Memcpy},
      {"memset", Builtin::Memset},
      {"strlen", Builtin::Strlen},
      {"strcpy", Builtin::Strcpy},
      {"strcat", Builtin::Strcat},
      {"strcmp", Builtin::Strcmp},
      {"print_int", Builtin::PrintInt},
      {"print_char", Builtin::PrintChar},
      {"print_str", Builtin::PrintStr},
      {"exit", Builtin::Exit},
      {"sb_rand", Builtin::Rand},
      {"sb_srand", Builtin::Srand},
      {"setjmp", Builtin::Setjmp},
      {"longjmp", Builtin::Longjmp},
      {"sb_guard", Builtin::RequestGuard},
      {"sb_request_end", Builtin::RequestEnd},
      {"__setbound", Builtin::SetBound},
      {"__unbound", Builtin::Unbound},
      {"_sb_memcpy", Builtin::SBMemcpy},
      {"_sb_memcpy_nometa", Builtin::SBMemcpyNoMeta},
      {"_sb_memset", Builtin::SBMemset},
      {"_sb_strlen", Builtin::SBStrlen},
      {"_sb_strcpy", Builtin::SBStrcpy},
      {"_sb_strcat", Builtin::SBStrcat},
      {"_sb_strcmp", Builtin::SBStrcmp},
  };
  auto It = Map.find(N);
  return It == Map.end() ? Builtin::NotABuiltin : It->second;
}

/// Sign-extends the low \p Bits (1..64) of \p V; an i1 is zero-extended.
/// The widths of long, pointer and int results come first: at each
/// handler the branches go the same way nearly every time.
inline uint64_t canon(uint64_t V, unsigned Bits) {
  if (Bits == 64)
    return V;
  if (Bits == 32)
    return static_cast<uint64_t>(
        static_cast<int64_t>(static_cast<int32_t>(V)));
  unsigned Shift = 64 - Bits;
  auto Ext = static_cast<uint64_t>(static_cast<int64_t>(V << Shift) >> Shift);
  return Bits == 1 ? V & 1 : Ext;
}

/// Zero-extends the low \p Bits (1..64) of \p V.
inline uint64_t maskTo(uint64_t V, unsigned Bits) {
  return V & (~0ULL >> (64 - Bits));
}

/// Signed division and remainder with the i64 wrap (INT64_MIN / -1 ==
/// INT64_MIN, remainder 0); the divisor is not 0. Operands that both fit
/// in 32 bits, with a divisor other than -1, take the cheaper 32-bit
/// division, whose results are the same.
inline uint64_t sdiv(int64_t L, int64_t R) {
  if (L == static_cast<int32_t>(L) && R == static_cast<int32_t>(R) && R != -1)
    return static_cast<uint64_t>(static_cast<int64_t>(
        static_cast<int32_t>(L) / static_cast<int32_t>(R)));
  if (L == INT64_MIN && R == -1)
    return static_cast<uint64_t>(L);
  return static_cast<uint64_t>(L / R);
}
inline uint64_t srem(int64_t L, int64_t R) {
  if (L == static_cast<int32_t>(L) && R == static_cast<int32_t>(R) && R != -1)
    return static_cast<uint64_t>(static_cast<int64_t>(
        static_cast<int32_t>(L) % static_cast<int32_t>(R)));
  if (R == -1)
    return 0;
  return static_cast<uint64_t>(L % R);
}

constexpr uint64_t RetTokenTag = 0x5EC0'0000'0000'0000ULL;
/// Program output kept per run; print builtins past it are dropped.
constexpr size_t OutputLimit = 1u << 20;
/// Call depth at which a run traps with StackOverflow.
constexpr size_t MaxFrames = 100'000;
constexpr uint64_t JmpMagic = 0x4A4D'5042'5546'4D41ULL;

} // namespace

//===----------------------------------------------------------------------===//
// The decoded form
//===----------------------------------------------------------------------===//

namespace {

/// Decoded opcodes: the IR kinds with the BinOp, ICmp and Cast
/// sub-operations and the check's guard folded in, so that one dispatch
/// selects the handler.
enum class Op : uint8_t {
  // Loads and stores by access size, in log2 order.
  Load1,
  Load2,
  Load4,
  Load8,
  Store1,
  Store2,
  Store4,
  Store8,
  GEP,
  // BinOp, in BinOpInst::Op order.
  Add,
  Sub,
  Mul,
  SDiv,
  UDiv,
  SRem,
  URem,
  And,
  Or,
  Xor,
  Shl,
  LShr,
  AShr,
  // ICmp, in ICmpInst::Pred order.
  CmpEQ,
  CmpNE,
  CmpSLT,
  CmpSLE,
  CmpSGT,
  CmpSGE,
  CmpULT,
  CmpULE,
  CmpUGT,
  CmpUGE,
  CastCopy,  ///< Bitcast, IntToPtr: the word as is.
  CastCanon, ///< PtrToInt, Trunc, SExt: sign-extended from Bits.
  CastZExt,  ///< ZExt: zero-extended from the source's Bits.
  Select,
  Call,
  Ret,
  Br,
  CondBr,
  Unreachable,
  MakeBounds,
  Check,
  GuardedCheck,
  FuncPtrCheck,
  MetaLoad,
  MetaStore,
  PackPB,
  ExtractPtr,
  ExtractBounds,
};

/// The load or store opcode (\p First is Op::Load1 or Op::Store1) of a
/// 1, 2, 4 or 8-byte access.
Op accessOp(Op First, uint64_t Size) {
  assert((Size == 1 || Size == 2 || Size == 4 || Size == 8) &&
         "loads and stores move one scalar");
  return static_cast<Op>(static_cast<int>(First) + (Size == 1   ? 0
                                                    : Size == 2 ? 1
                                                    : Size == 4 ? 2
                                                                : 3));
}

static_assert(static_cast<int>(Op::AShr) - static_cast<int>(Op::Add) ==
                  static_cast<int>(BinOpInst::Op::AShr),
              "BinOp opcodes decode by offset from Op::Add");
static_assert(static_cast<int>(Op::CmpUGE) - static_cast<int>(Op::CmpEQ) ==
                  static_cast<int>(ICmpInst::Pred::UGE),
              "ICmp predicates decode by offset from Op::CmpEQ");

/// One decoded instruction. Ops, Aux/NAux, Size and Flag mean what the
/// opcode's handler in VMExec::interpret reads from them. Ops are the
/// operand registers in IR operand order; every operand is a register of
/// the running frame, immediates included (DecodedFunction::Image).
struct DInst {
  Op Code = Op::Unreachable;
  uint8_t Bits = 64; ///< Integer width of the result, or of the operands
                     ///< of a compare or zext.
  bool Flag = false; ///< Load/Store: a pointer value. Check: a store
                     ///< check. Ret: returns a value. Compare: fused
                     ///< with the CondBr right after it.
  int32_t Dst = -1;  ///< Result register, or -1.
  uint32_t Aux = 0;  ///< First side-table entry: GEP steps, call
                     ///< arguments, or the branch's edges (a fused
                     ///< compare: its CondBr's).
  uint32_t NAux = 0; ///< Side-table entries (GEP steps, call arguments).
  uint64_t Size = 0; ///< Access size, or the GEP's constant offset.
  int32_t Ops[3] = {0, 0, 0};
  const DecodedFunction *Callee = nullptr; ///< Direct call target.
  /// The source instruction: trap locations (where) and profile sites
  /// (siteOf) only.
  const Instruction *IR = nullptr;
};

/// A variable GEP index: address += Index * Scale.
struct DStep {
  int32_t Index = 0;
  uint64_t Scale = 0;
};

/// One phi assignment on a CFG edge.
struct DMove {
  int32_t Dst = -1;
  int32_t Src = 0;
};

/// One CFG edge: where it lands and the phi moves it performs.
struct DEdge {
  uint32_t Target = 0; ///< Code index of the successor's first instruction.
  uint32_t Move = 0;   ///< First move in DecodedFunction::Moves.
  uint32_t NMoves = 0;
  /// A move reads a register an earlier move of the edge writes, so the
  /// moves must read every source before writing any destination.
  bool Parallel = false;
  /// A move carries bounds or a pointer pair, so the moves copy whole
  /// registers; otherwise they copy the one word an integer or pointer
  /// register is read through.
  bool Whole = false;
};

/// One alloca: its register and its place below the frame top.
struct DLocal {
  int32_t Slot = -1;
  uint64_t Offset = 0; ///< Address = frame top - Offset.
  uint64_t Size = 0;
};

} // namespace

namespace softbound {

/// One module function, decoded once at image load and shared read-only
/// by every lane.
struct DecodedFunction {
  Function *F = nullptr;
  Builtin B = Builtin::NotABuiltin;
  /// A definition the VM runs; calls to anything else go to the builtin.
  bool Callable = false;
  unsigned NumArgs = 0;
  /// A new frame's registers: the function's own, zeroed, then one per
  /// distinct immediate operand holding its value. Frames never write
  /// the immediates' registers.
  std::vector<VMVal> Image;
  /// Frame top to frame low: control words, locals, 16-byte rounding.
  uint64_t FrameBytes = 0;
  std::vector<DLocal> Locals; ///< Allocas, in declaration order.
  /// Every instruction but allocas and phis; the entry block first.
  std::vector<DInst> Code;
  std::vector<int32_t> Args; ///< Call argument registers.
  std::vector<DStep> Steps;   ///< GEP variable indices.
  std::vector<DEdge> Edges;   ///< Branch edges.
  std::vector<DMove> Moves;   ///< Phi moves of the edges.
};

/// All per-run execution state. One VMExec per lane of a VM::runLanes
/// call. The lane's stack slice and observation sinks are constructor
/// parameters, so concurrent lanes never share mutable state through the
/// shared config.
class VMExec {
public:
  VMExec(VM &Owner, VMConfig &Cfg, SimMemory &Mem, uint64_t StackTop,
         uint64_t StackLimit, SiteProfile *Prof, Telemetry *Telem,
         std::string TraceTag)
      : Owner(Owner), Cfg(Cfg), Mem(Mem), StackTop(StackTop),
        StackLimit(StackLimit), Prof(Prof), Telem(Telem),
        TraceTag(std::move(TraceTag)) {
    if (this->Prof)
      this->Prof->ensure(Owner.M.checkSites().size());
  }

  RunResult run(const std::string &EntryName,
                const std::vector<int64_t> &Args);

private:
  struct Frame {
    const DecodedFunction *Fn = nullptr;
    uint32_t PC = 0;       ///< Next instruction; saved while a callee runs.
    int32_t RetDst = -1;   ///< Caller register receiving the return value.
    size_t RegBase = 0;    ///< The frame's first register in Regs.
    uint64_t FrameTop = 0; ///< SP at call entry (exclusive top).
    uint64_t FrameLow = 0; ///< New SP after frame allocation.
    uint64_t SavedFP = 0;
    uint64_t Gen = 0;
    uint64_t EntryCycle = 0; ///< C.Cycles at frame entry (trace events).

    uint64_t retSlot() const { return FrameTop - 8; }
    uint64_t fpSlot() const { return FrameTop - 16; }
    uint64_t retToken() const { return RetTokenTag | Gen; }
  };

  struct JmpRecord {
    uint64_t Token;
    size_t FrameIdx;
    uint64_t FrameGen;
    uint32_t PC;
    int32_t ResultSlot;
  };

  //===--------------------------------------------------------------------===//
  // Helpers
  //===--------------------------------------------------------------------===//

  void trap(TrapKind K, const std::string &Msg) {
    if (Halted)
      return;
    // SoftBound traps fire *before* the offending access, so memory is
    // still sound at this point — a violation inside an armed request
    // window can be contained: unwind to the sb_guard resume point and
    // let the driver move on to the next request. Every other trap kind
    // (and any violation outside a window) stays fatal.
    if (GuardArmed &&
        (K == TrapKind::SpatialViolation || K == TrapKind::FuncPtrViolation) &&
        recoverToGuard(K))
      return;
    Res.Trap = K;
    Res.Message = Msg;
    Halted = true;
  }

  /// Pops frames until \p KeepIdx is the top, releasing each like a
  /// normal frame exit. Shared by longjmp and guard recovery.
  void unwindFramesAbove(size_t KeepIdx);

  /// Attempts to resume at the sb_guard record. Returns false when the
  /// guard's frame is gone (record stale), leaving the trap fatal.
  bool recoverToGuard(TrapKind K);

  void hijack(const std::string &Target) {
    Res.Trap = TrapKind::Hijacked;
    Res.HijackTarget = Target;
    Res.Message = "control flow redirected to " + Target;
    Halted = true;
  }

  const DecodedFunction *funcAt(uint64_t Addr) const {
    if (Addr < FuncBase || (Addr - FuncBase) % FuncStride != 0)
      return nullptr;
    uint64_t Idx = (Addr - FuncBase) / FuncStride;
    if (Idx >= Owner.Decoded.size())
      return nullptr;
    return &Owner.Decoded[Idx];
  }

  /// The per-site profile row for \p I, or null in the disabled mode
  /// (no profile attached, or the instruction never got a site ID). One
  /// pointer test when profiling is off; never touches C.Cycles.
  SiteCounters *siteOf(const DInst &I) {
    if (!Prof || I.IR->site() < 0 ||
        static_cast<size_t>(I.IR->site()) >= Prof->Sites.size())
      return nullptr;
    return &Prof->Sites[I.IR->site()];
  }

  std::string traceName(const std::string &What) const {
    return TraceTag + What;
  }

  void emit(const std::string &S) {
    if (Res.Output.size() + S.size() <= OutputLimit)
      Res.Output += S;
  }

  static std::string where(const DInst &I) {
    const BasicBlock *BB = I.IR->parent();
    return "@" + BB->parent()->name() + "/" + BB->name();
  }
  /// Traps with \p What followed by where(I). Out of line: the
  /// interpreter's handlers stay small.
  SB_NOINLINE void trapAt(TrapKind K, const char *What, const DInst &I);

  //===--------------------------------------------------------------------===//
  // Frames
  //===--------------------------------------------------------------------===//

  /// Pushes a frame for \p Fn with its register image and its allocas
  /// laid out; the caller fills the arguments. \p RetDst is the caller's
  /// result register. Returns false (having trapped) on overflow.
  bool pushFrame(const DecodedFunction &Fn, int32_t RetDst);
  /// Checks the frame's control words, then pops it.
  void returnFrom(VMVal RetVal);
  void popFrame(VMVal RetVal);
  /// The bookkeeping of a frame exit: checker frees and the §5.2
  /// metadata clear of the frame's range.
  void releaseFrame(const Frame &Fr);

  //===--------------------------------------------------------------------===//
  // Execution
  //===--------------------------------------------------------------------===//

  /// Runs the top frame's decoded code until the run halts.
  void interpret();
  /// Performs \p E's phi moves on the registers \p R; returns its target
  /// code index.
  SB_ALWAYS_INLINE uint32_t takeEdge(VMVal *R, const DecodedFunction &Fn,
                                     const DEdge &E) {
    if (E.NMoves == 0)
      return E.Target;
    // The target's phis as one parallel assignment.
    const DMove *Mv = &Fn.Moves[E.Move];
    if (E.Parallel) {
      if (PhiTmp.size() < E.NMoves)
        PhiTmp.resize(E.NMoves);
      for (uint32_t K = 0; K < E.NMoves; ++K)
        PhiTmp[K] = R[Mv[K].Src];
      for (uint32_t K = 0; K < E.NMoves; ++K)
        R[Mv[K].Dst] = PhiTmp[K];
    } else if (E.Whole) {
      for (uint32_t K = 0; K < E.NMoves; ++K)
        R[Mv[K].Dst] = R[Mv[K].Src];
    } else {
      for (uint32_t K = 0; K < E.NMoves; ++K)
        R[Mv[K].Dst].A = R[Mv[K].Src].A;
    }
    return E.Target;
  }
  /// The load \p I of \p Size bytes; false when it trapped.
  SB_ALWAYS_INLINE bool load(VMVal *R, const DInst &I, unsigned Size) {
    uint64_t Addr = R[I.Ops[0]].A;
    if (Cfg.Checker && !checkerAllows(I, Addr, /*IsStore=*/false))
      return false;
    uint64_t Raw;
    if (!Mem.read(Addr, Size, Raw)) {
      trapAt(TrapKind::Segfault, "load from unmapped address ", I);
      return false;
    }
    ++C.Loads;
    C.PtrLoads += I.Flag;
    R[I.Dst].A = canon(Raw, I.Bits);
    return true;
  }
  /// The store \p I of \p Size bytes; false when it trapped.
  SB_ALWAYS_INLINE bool store(const VMVal *R, const DInst &I, unsigned Size) {
    uint64_t Val = R[I.Ops[0]].A, Addr = R[I.Ops[1]].A;
    if (Cfg.Checker && !checkerAllows(I, Addr, /*IsStore=*/true))
      return false;
    if (!Mem.write(Addr, Size, Val)) {
      trapAt(TrapKind::Segfault, "store to unmapped address ", I);
      return false;
    }
    ++C.Stores;
    C.PtrStores += I.Flag;
    return true;
  }
  bool checkerAllows(const DInst &I, uint64_t Addr, bool IsStore);
  SB_NOINLINE bool checkerAllowsDerive(const DInst &I, uint64_t From,
                                       uint64_t Addr);
  SB_ALWAYS_INLINE bool spatialCheck(const VMVal *R, const DInst &I,
                                     SiteCounters *SC) {
    uint64_t P = R[I.Ops[0]].A;
    const VMVal &B = R[I.Ops[1]];
    ++C.Checks;
    C.Cycles += Cfg.CheckCost;
    if (SC)
      ++SC->Executed;
    if (P >= B.A && P + I.Size <= B.B)
      return true;
    if (SC)
      ++SC->Traps;
    trapAt(TrapKind::SpatialViolation,
           I.Flag ? "softbound: out-of-bounds store "
                  : "softbound: out-of-bounds load ",
           I);
    return false;
  }
  /// Runs \p Callee, which the VM does not interpret, for the call \p I
  /// of \p Fn: a builtin, or a BadIndirectCall trap.
  SB_NOINLINE void execBuiltin(VMVal *R, const DecodedFunction &Fn,
                               const DInst &I, const DecodedFunction &Callee);

  // Builtin helpers.
  /// Baseline-checker validation of a native (builtin) memory access —
  /// models Valgrind/Mudflap interposing on libc. Returns false and traps
  /// on a violation.
  bool checkNative(uint64_t Addr, uint64_t N, bool IsStore,
                   const char *What) {
    if (!Cfg.Checker || N == 0)
      return true;
    C.Cycles += Cfg.Checker->accessCost();
    if (Cfg.Checker->checkAccess(Addr, N, IsStore))
      return true;
    trap(TrapKind::BaselineViolation,
         std::string(Cfg.Checker->name()) + ": violation in " + What);
    return false;
  }
  uint64_t simStrlenAt(uint64_t Addr, bool &Ok);
  bool wrapperCheckStore(uint64_t Ptr, uint64_t N, const VMVal &Bounds,
                         const char *What);
  bool wrapperCheckLoad(uint64_t Ptr, uint64_t N, const VMVal &Bounds,
                        const char *What);

  const VM &Owner;
  VMConfig &Cfg;
  SimMemory &Mem;
  uint64_t StackTop;    ///< Exclusive top of this lane's stack slice.
  uint64_t StackLimit;  ///< Inclusive floor of this lane's stack slice.
  SiteProfile *Prof;    ///< This lane's profile; null = disabled.
  Telemetry *Telem;     ///< This lane's telemetry sink; null = disabled.
  std::string TraceTag; ///< Trace-event name prefix for this lane.

  std::vector<Frame> Frames;
  /// The register stack: each frame's registers sit right above its
  /// caller's. Grows on push, so no reference into it (or into Frames)
  /// may be held across a pushFrame.
  std::vector<VMVal> Regs;
  std::vector<VMVal> PhiTmp;      ///< Sources of a parallel edge's moves.
  std::vector<VMVal> BuiltinArgs; ///< Arguments of the running builtin.
  std::vector<JmpRecord> JmpRecords;
  RunResult Res;
  VMCounters &C = Res.Counters;
  /// Per-request machinery (sb_guard / sb_request_end builtins).
  VMCounters RequestMark;                     ///< Counters at last window end.
  JmpRecord GuardRec{};                       ///< Resume point armed by sb_guard.
  bool GuardArmed = false;                    ///< A live sb_guard resume point.
  TrapKind RequestTrap = TrapKind::None;      ///< Contained trap this window.
  /// Frame trace events only for call depths up to this (the full call
  /// tree of a recursive Olden kernel would be millions of events).
  static constexpr size_t MaxTraceDepth = 3;
  bool Halted = false;
  uint64_t NextGen = 1;
  uint64_t NextJmpToken = 0x1000;
  RNG Rand{42};
};

} // namespace softbound

//===----------------------------------------------------------------------===//
// VM: image loading
//===----------------------------------------------------------------------===//

VM::VM(Module &M, VMConfig Config)
    : M(M), Cfg(Config), Mem(GlobalSize, HeapSize, StackSize) {
  loadImage();
}

VM::~VM() = default;

uint64_t VM::functionAddress(const Function *F) const {
  auto It = FuncAddr.find(F);
  return It == FuncAddr.end() ? 0 : It->second;
}

uint64_t VM::globalAddress(const GlobalVariable *G) const {
  auto It = GlobalAddr.find(G);
  return It == GlobalAddr.end() ? 0 : It->second;
}

void VM::loadImage() {
  // Assign function addresses.
  Decoded.resize(M.functions().size());
  size_t Idx = 0;
  for (const auto &F : M.functions()) {
    DecodedFunction &D = Decoded[Idx];
    FuncAddr[F.get()] = FuncBase + FuncStride * Idx++;
    D.F = F.get();
    D.B = builtinByName(F->name());
    D.Callable = F->isDefinition() && !F->isBuiltin();
    if (F->isDefinition())
      F->renumber();
  }

  // Assign global addresses (two passes so relocs can reference any global).
  for (const auto &G : M.globals()) {
    uint64_t Size = G->valueType()->sizeInBytes();
    // Checker baselines (Mudflap-style) pad objects with guard zones.
    uint64_t Addr = Mem.allocateGlobal(Size + Cfg.GlobalPad,
                                       G->valueType()->alignment());
    if (!Addr) {
      // The image does not fit: runLanes() refuses to start.
      ImageError = "global segment exhausted: @" + G->name() + " needs " +
                   std::to_string(Size + Cfg.GlobalPad) +
                   " bytes (padding included) in a " +
                   std::to_string(GlobalSize) + "-byte global segment";
      return;
    }
    GlobalAddr[G.get()] = Addr;
  }

  for (const auto &G : M.globals()) {
    uint64_t Addr = GlobalAddr[G.get()];
    const GlobalInitializer &Init = G->initializer();
    if (!Init.Bytes.empty())
      Mem.writeBytes(Addr, Init.Bytes.size(), Init.Bytes.data());
    for (const auto &R : Init.Relocs) {
      uint64_t Target = 0, TBase = 0, TBound = 0;
      if (const auto *TG = dyn_cast<GlobalVariable>(R.Target)) {
        Target = GlobalAddr[TG];
        TBase = Target;
        TBound = Target + TG->valueType()->sizeInBytes();
      } else if (const auto *TF = dyn_cast<Function>(R.Target)) {
        Target = FuncAddr[TF];
        TBase = TBound = Target; // Function-pointer encoding (§5.2).
      }
      Mem.write(Addr + R.Offset, 8, Target);
      // The paper initializes metadata for global pointer initializers with
      // constructor-style hooks; the loader is our equivalent.
      if (Cfg.Instrumented && Cfg.Meta)
        Cfg.Meta->update(Addr + R.Offset, TBase, TBound);
    }
    if (Cfg.Checker)
      Cfg.Checker->onAlloc(ObjectRegion::Global, Addr,
                           G->valueType()->sizeInBytes());
  }

  // Decode every definition now that every address is known: lanes run
  // on concurrent host threads and only ever read the decoded form.
  for (DecodedFunction &D : Decoded)
    if (D.F->isDefinition())
      decode(D);
}

void VM::decode(DecodedFunction &D) const {
  Function &F = *D.F;
  D.NumArgs = F.numArgs();

  // Constants, null/undef, global and function addresses are immediates.
  auto Immediate = [&](const Value *V, uint64_t &Imm) {
    switch (V->kind()) {
    case ValueKind::ConstInt:
      Imm = static_cast<uint64_t>(cast<ConstantInt>(V)->value());
      return true;
    case ValueKind::ConstNull:
    case ValueKind::ConstUndef:
      Imm = 0;
      return true;
    case ValueKind::Global:
      Imm = GlobalAddr.at(cast<GlobalVariable>(V));
      return true;
    case ValueKind::Func:
      Imm = FuncAddr.at(cast<Function>(V));
      return true;
    default:
      return false;
    }
  };
  // One register per distinct immediate value, above the function's
  // own, in order of first use; the register image holds its value.
  // ImmTable, a flat open-addressed set of those registers, finds a
  // value's register; it has room for every operand to be a distinct
  // immediate, at most half full.
  D.Image.assign(F.numRegs(), VMVal());
  std::vector<int32_t> ImmTable;
  unsigned TableBits = 0;
  auto ImmReg = [&](uint64_t Imm) {
    size_t Mask = ImmTable.size() - 1;
    for (size_t H = (Imm * 0x9E37'79B9'7F4A'7C15ULL) >> (64 - TableBits);;
         H = (H + 1) & Mask) {
      int32_t &R = ImmTable[H];
      if (R < 0) {
        R = static_cast<int32_t>(D.Image.size());
        D.Image.push_back(VMVal{Imm, 0, 0});
      }
      if (D.Image[R].A == Imm)
        return R;
    }
  };
  auto Operand = [&](const Value *V) -> int32_t {
    uint64_t Imm;
    if (Immediate(V, Imm))
      return ImmReg(Imm);
    assert(V->slot() >= 0 && "use of unregistered value");
    return V->slot();
  };

  // Frame layout, relative to a 16-aligned frame top (every frame top
  // is one): allocas below the saved-FP word, in declaration order from
  // high to low addresses. The first local sits closest to the control
  // data, so an overflow of a later-declared buffer sweeps over earlier
  // locals, then the saved FP, then the return address — the classic
  // stack smash.
  uint64_t Cur = 0 - 16ULL;
  // Code index of each block's first instruction: allocas (laid out at
  // frame entry) and phis (moved on the incoming edge) are not code.
  std::unordered_map<const BasicBlock *, uint32_t> Start;
  uint32_t N = 0;
  size_t Uses = 0;
  for (const auto &BB : F.blocks()) {
    Start[BB.get()] = N;
    for (const auto &I : *BB) {
      Uses += I->numOperands();
      if (const auto *AI = dyn_cast<AllocaInst>(I.get())) {
        Type *T = AI->allocatedType();
        assert(T->alignment() <= 16 && "frame layout assumes align <= 16");
        Cur -= T->sizeInBytes();
        Cur &= ~(T->alignment() - 1);
        D.Locals.push_back({AI->slot(), 0 - Cur, T->sizeInBytes()});
      } else if (!isa<PhiInst>(I.get())) {
        ++N;
      }
    }
  }
  D.FrameBytes = 0 - (Cur & ~15ULL);
  D.Image.reserve(F.numRegs() + Uses + 1);
  ImmTable.assign(std::bit_ceil(2 * Uses + 2), -1);
  TableBits = static_cast<unsigned>(std::countr_zero(ImmTable.size()));

  auto AddEdge = [&](const BasicBlock *From, const BasicBlock *To) {
    DEdge E;
    E.Target = Start.at(To);
    E.Move = static_cast<uint32_t>(D.Moves.size());
    for (const auto &I : *To) {
      const auto *P = dyn_cast<PhiInst>(I.get());
      if (!P)
        break;
      const Value *In = P->incomingFor(From);
      assert(In && "phi has no incoming value for predecessor");
      DMove Mv{P->slot(), In ? Operand(In) : ImmReg(0)};
      for (uint32_t K = E.Move; K < D.Moves.size(); ++K)
        if (D.Moves[K].Dst == Mv.Src)
          E.Parallel = true;
      if (!P->type()->isPointer() && !isa<IntType>(P->type()))
        E.Whole = true;
      D.Moves.push_back(Mv);
    }
    E.NMoves = static_cast<uint32_t>(D.Moves.size()) - E.Move;
    D.Edges.push_back(E);
  };

  D.Code.reserve(N);
  for (const auto &BB : F.blocks())
    for (const auto &IP : *BB) {
      const Instruction &I = *IP;
      if (isa<AllocaInst>(I) || isa<PhiInst>(I))
        continue;
      // Filled in place: Code has room for all N, so X stays valid.
      DInst &X = D.Code.emplace_back();
      X.IR = &I;
      X.Dst = I.slot();
      // The handlers read the leading operands in IR operand order; GEP
      // indices and call arguments go to the side tables, and a direct
      // call reads no callee operand.
      unsigned NOps = std::min(I.numOperands(), 3u);
      if (isa<GEPInst>(I) || isa<CallInst>(I))
        NOps = isa<CallInst>(I) && cast<CallInst>(I).calledFunction() ? 0 : 1;
      for (unsigned K = 0; K < NOps; ++K)
        X.Ops[K] = Operand(I.op(K));
      switch (I.kind()) {
      case ValueKind::Load:
        X.Size = I.type()->sizeInBytes();
        X.Code = accessOp(Op::Load1, X.Size);
        X.Flag = I.type()->isPointer();
        X.Bits = X.Flag ? 64 : cast<IntType>(I.type())->bits();
        break;
      case ValueKind::Store: {
        Type *T = cast<StoreInst>(I).value()->type();
        X.Size = T->sizeInBytes();
        X.Code = accessOp(Op::Store1, X.Size);
        X.Flag = T->isPointer();
        break;
      }
      case ValueKind::GEP: {
        // Constant indices and field offsets fold into one offset; the
        // sum wraps mod 2^64 like the address arithmetic itself.
        X.Code = Op::GEP;
        X.Aux = static_cast<uint32_t>(D.Steps.size());
        [[maybe_unused]] bool Walked =
            cast<GEPInst>(I).walkSteps([&](const GEPStep &S) {
              auto Bytes = static_cast<uint64_t>(S.Bytes);
              uint64_t Imm;
              if (S.Field)
                X.Size += Bytes;
              else if (Immediate(S.Index, Imm))
                X.Size += Imm * Bytes;
              else
                D.Steps.push_back({Operand(S.Index), Bytes});
              return true;
            });
        assert(Walked && "GEP index path leaves its type");
        X.NAux = static_cast<uint32_t>(D.Steps.size()) - X.Aux;
        break;
      }
      case ValueKind::BinOp:
        X.Code = static_cast<Op>(static_cast<int>(Op::Add) +
                                 static_cast<int>(cast<BinOpInst>(I).opcode()));
        X.Bits = cast<IntType>(I.type())->bits();
        break;
      case ValueKind::ICmp: {
        Type *T = cast<ICmpInst>(I).lhs()->type();
        X.Code = static_cast<Op>(static_cast<int>(Op::CmpEQ) +
                                 static_cast<int>(cast<ICmpInst>(I).pred()));
        X.Bits = T->isPointer() ? 64 : cast<IntType>(T)->bits();
        break;
      }
      case ValueKind::Cast: {
        const auto &Ca = cast<CastInst>(I);
        switch (Ca.opcode()) {
        case CastInst::Op::Bitcast:
        case CastInst::Op::IntToPtr:
          X.Code = Op::CastCopy;
          break;
        case CastInst::Op::PtrToInt:
        case CastInst::Op::Trunc:
        case CastInst::Op::SExt:
          X.Code = Op::CastCanon;
          X.Bits = cast<IntType>(I.type())->bits();
          break;
        case CastInst::Op::ZExt:
          X.Code = Op::CastZExt;
          X.Bits = cast<IntType>(Ca.source()->type())->bits();
          break;
        }
        break;
      }
      case ValueKind::Select:
        X.Code = Op::Select;
        break;
      case ValueKind::Call: {
        const auto &Call = cast<CallInst>(I);
        X.Code = Op::Call;
        if (const Function *Callee = Call.calledFunction())
          X.Callee = &Decoded[(FuncAddr.at(Callee) - FuncBase) / FuncStride];
        X.Aux = static_cast<uint32_t>(D.Args.size());
        X.NAux = Call.numArgs();
        for (unsigned K = 0; K < Call.numArgs(); ++K)
          D.Args.push_back(Operand(Call.arg(K)));
        break;
      }
      case ValueKind::Ret:
        X.Code = Op::Ret;
        X.Flag = cast<RetInst>(I).hasValue();
        break;
      case ValueKind::Br: {
        const auto &B = cast<BrInst>(I);
        X.Code = B.isConditional() ? Op::CondBr : Op::Br;
        X.Aux = static_cast<uint32_t>(D.Edges.size());
        for (unsigned K = 0; K < B.numSuccessors(); ++K)
          AddEdge(BB.get(), B.successor(K));
        // A compare right before the branch, in its block, that computes
        // the condition takes the branch itself (VMExec::interpret).
        if (B.isConditional() && D.Code.size() > 1) {
          DInst &Cmp = D.Code.end()[-2];
          if (Cmp.Code >= Op::CmpEQ && Cmp.Code <= Op::CmpUGE &&
              Cmp.IR->parent() == BB.get() && Cmp.Dst == X.Ops[0]) {
            Cmp.Flag = true;
            Cmp.Aux = X.Aux;
          }
        }
        break;
      }
      case ValueKind::Unreachable:
        X.Code = Op::Unreachable;
        break;
      case ValueKind::MakeBounds:
        X.Code = Op::MakeBounds;
        break;
      case ValueKind::SpatialCheck: {
        const auto &Chk = cast<SpatialCheckInst>(I);
        X.Code = Chk.isGuarded() ? Op::GuardedCheck : Op::Check;
        X.Size = Chk.accessSize();
        X.Flag = Chk.isStoreCheck();
        break;
      }
      case ValueKind::FuncPtrCheck:
        X.Code = Op::FuncPtrCheck;
        break;
      case ValueKind::MetaLoad:
        X.Code = Op::MetaLoad;
        break;
      case ValueKind::MetaStore:
        X.Code = Op::MetaStore;
        break;
      case ValueKind::PackPB:
        X.Code = Op::PackPB;
        break;
      case ValueKind::ExtractPtr:
        X.Code = Op::ExtractPtr;
        break;
      case ValueKind::ExtractBounds:
        X.Code = Op::ExtractBounds;
        break;
      default:
        sb_unreachable("unhandled instruction kind");
      }
    }
}

RunResult VM::imageRefusal() const {
  RunResult R;
  R.Trap = TrapKind::OutOfMemory;
  R.Message = ImageError;
  return R;
}

RunResult VM::run(const std::string &EntryName,
                  const std::vector<int64_t> &Args) {
  LaneSpec L;
  L.Entry = EntryName;
  L.Args = Args;
  return runLanes({L}).front();
}

std::vector<RunResult> VM::runLanes(const std::vector<LaneSpec> &Lanes) {
  std::vector<RunResult> Results(Lanes.size());
  if (Lanes.empty())
    return Results;
  if (!ImageError.empty()) {
    Results.assign(Lanes.size(), imageRefusal());
    return Results;
  }

  if (Lanes.size() == 1) {
    // One lane runs inline with the full stack segment: no concurrent
    // mode, no host threads.
    const LaneSpec &L = Lanes[0];
    VMExec Exec(*this, Cfg, Mem, Mem.stackTop(), Mem.stackLimit(), L.Profile,
                L.Telem, L.TraceTag);
    Results[0] = Exec.run(L.Entry, L.Args);
    return Results;
  }

  // Partition the stack segment into 16-aligned per-lane slices, top
  // lane first (lane 0 gets the highest addresses, like a single-lane
  // run would).
  uint64_t Top = Mem.stackTop();
  uint64_t Span = ((Top - Mem.stackLimit()) / Lanes.size()) & ~15ULL;

  Mem.setConcurrent(true);
  std::vector<std::thread> Threads;
  Threads.reserve(Lanes.size());
  for (size_t I = 0; I < Lanes.size(); ++I)
    Threads.emplace_back([this, &Lanes, &Results, Top, Span, I] {
      const LaneSpec &L = Lanes[I];
      uint64_t LaneTop = Top - I * Span;
      VMExec Exec(*this, Cfg, Mem, LaneTop, LaneTop - Span, L.Profile,
                  L.Telem, L.TraceTag);
      Results[I] = Exec.run(L.Entry, L.Args);
    });
  for (auto &T : Threads)
    T.join();
  Mem.setConcurrent(false);
  return Results;
}

//===----------------------------------------------------------------------===//
// VMExec: frames
//===----------------------------------------------------------------------===//

bool VMExec::pushFrame(const DecodedFunction &Fn, int32_t RetDst) {
  if (Frames.size() >= MaxFrames) {
    trap(TrapKind::StackOverflow, "frame limit exceeded in @" + Fn.F->name());
    return false;
  }
  const Frame *Caller = Frames.empty() ? nullptr : &Frames.back();
  uint64_t Top = Caller ? Caller->FrameLow : StackTop;
  assert((Top & 15) == 0 && "frame tops are 16-aligned");
  if (Top - Fn.FrameBytes < StackLimit + 64) {
    trap(TrapKind::StackOverflow, "stack exhausted in @" + Fn.F->name());
    return false;
  }
  size_t RegBase = Caller ? Caller->RegBase + Caller->Fn->Image.size() : 0;
  uint64_t SavedFP = Caller ? Caller->FrameTop : 0;

  // Built in place: Caller is stale from here on.
  Frame &Fr = Frames.emplace_back();
  Fr.Fn = &Fn;
  Fr.Gen = NextGen++;
  Fr.RetDst = RetDst;
  Fr.RegBase = RegBase;
  Fr.FrameTop = Top;
  Fr.FrameLow = Top - Fn.FrameBytes;
  Fr.SavedFP = SavedFP;
  Fr.EntryCycle = C.Cycles;

  // Zero the locals area (deterministic runs) and install control words.
  Mem.zeroRange(Fr.FrameLow, Fr.fpSlot() - Fr.FrameLow);
  Mem.write(Fr.retSlot(), 8, Fr.retToken());
  Mem.write(Fr.fpSlot(), 8, Fr.SavedFP);

  size_t End = RegBase + Fn.Image.size();
  if (Regs.size() < End)
    Regs.resize(std::max(End, 2 * Regs.size()));
  VMVal *R = Regs.data() + RegBase;
  std::copy(Fn.Image.begin(), Fn.Image.end(), R);
  for (const DLocal &L : Fn.Locals) {
    uint64_t Addr = Top - L.Offset;
    R[L.Slot].A = Addr;
    if (Cfg.Checker)
      Cfg.Checker->onAlloc(ObjectRegion::Stack, Addr, L.Size);
  }

  ++C.Calls;
  if (Frames.size() > C.MaxFrameDepth)
    C.MaxFrameDepth = Frames.size();
  return true;
}

void VMExec::releaseFrame(const Frame &Fr) {
  if (Cfg.Checker)
    for (const DLocal &L : Fr.Fn->Locals)
      Cfg.Checker->onFree(ObjectRegion::Stack, Fr.FrameTop - L.Offset,
                          L.Size);
  // §5.2 "memory reuse and stale metadata": drop metadata for frame slots.
  if (Cfg.Instrumented && Cfg.Meta)
    C.Cycles += Cfg.Meta->clearRange(Fr.FrameLow, Fr.FrameTop - Fr.FrameLow);
}

void VMExec::returnFrom(VMVal RetVal) {
  // Validate the in-memory control words: the attack surface.
  const Frame &Fr = Frames.back();
  uint64_t RetWord = 0, FPWord = 0;
  Mem.read(Fr.retSlot(), 8, RetWord);
  Mem.read(Fr.fpSlot(), 8, FPWord);
  if (RetWord != Fr.retToken()) {
    if (const DecodedFunction *Target = funcAt(RetWord))
      hijack(Target->F->name());
    else
      trap(TrapKind::CorruptedReturn,
           "return address corrupted in @" + Fr.Fn->F->name());
    return;
  }
  if (FPWord != Fr.SavedFP) {
    if (const DecodedFunction *Target = funcAt(FPWord))
      hijack(Target->F->name());
    else
      trap(TrapKind::CorruptedFrame,
           "saved frame pointer corrupted in @" + Fr.Fn->F->name());
    return;
  }
  popFrame(RetVal);
}

void VMExec::popFrame(VMVal RetVal) {
  const Frame &Fr = Frames.back();
  // Shallow frames become VM-phase trace events: timestamps are
  // simulated cycles (deterministic), duration is the frame's inclusive
  // cycle span. Deep recursion is capped by depth and the event buffer.
  if (Telem && Frames.size() <= MaxTraceDepth)
    Telem->addCompleteEvent(traceName(Fr.Fn->F->name()), "vm",
                            Telemetry::TidVM, Fr.EntryCycle,
                            C.Cycles - Fr.EntryCycle);
  releaseFrame(Fr);
  int32_t RetDst = Fr.RetDst;
  Frames.pop_back();

  if (Frames.empty()) {
    Res.ExitCode = static_cast<int64_t>(RetVal.A);
    Halted = true;
    return;
  }
  if (RetDst >= 0)
    Regs[Frames.back().RegBase + RetDst] = RetVal;
}

//===----------------------------------------------------------------------===//
// VMExec: main loop
//===----------------------------------------------------------------------===//

RunResult VMExec::run(const std::string &EntryName,
                      const std::vector<int64_t> &Args) {
  Function *F = Owner.M.resolveEntry(EntryName);
  if (!F || !F->isDefinition()) {
    trap(TrapKind::Segfault, "entry function not found: " + EntryName);
    return Res;
  }
  const DecodedFunction &Entry = *funcAt(Owner.FuncAddr.at(F));
  if (pushFrame(Entry, -1)) {
    for (size_t K = 0; K < Args.size() && K < Entry.NumArgs; ++K)
      Regs[K] = VMVal{static_cast<uint64_t>(Args[K]), 0, 0};
    interpret();
  }

  if (Cfg.Meta)
    Res.MetadataMemory = Cfg.Meta->memoryBytes();
  Res.HeapHighWater = Mem.heapHighWater();

  if (Telem) {
    // One covering event for the whole run (frames live at halt — a trap
    // or exit() — never reached popFrame, so this is their summary too),
    // plus the aggregate counters for the report.
    Telem->addCompleteEvent(traceName("run:" + EntryName), "vm",
                            Telemetry::TidVM, 0, C.Cycles);
#define SOFTBOUND_VM_COUNTER_PUBLISH(Name, Path)                               \
  Telem->counter("vm/" #Path) += C.Name;
    SOFTBOUND_VM_COUNTERS(SOFTBOUND_VM_COUNTER_PUBLISH)
#undef SOFTBOUND_VM_COUNTER_PUBLISH
  }
  return Res;
}

void VMExec::trapAt(TrapKind K, const char *What, const DInst &I) {
  trap(K, What + where(I));
}

bool VMExec::checkerAllowsDerive(const DInst &I, uint64_t From,
                                 uint64_t Addr) {
  if (Cfg.Checker->checkDerive(From, Addr))
    return true;
  trap(TrapKind::BaselineViolation, std::string(Cfg.Checker->name()) +
                                        ": out-of-object pointer arithmetic " +
                                        where(I));
  return false;
}

bool VMExec::checkerAllows(const DInst &I, uint64_t Addr, bool IsStore) {
  C.Cycles += Cfg.Checker->accessCost();
  if (Cfg.Checker->checkAccess(Addr, I.Size, IsStore))
    return true;
  trap(TrapKind::BaselineViolation,
       std::string(Cfg.Checker->name()) +
           (IsStore ? ": store violation " : ": load violation ") + where(I));
  return false;
}


void VMExec::interpret() {
  // The outer loop (re)loads the top frame; the inner one runs it until
  // a call, return, builtin or trap may have changed the frame stack.
  // Handlers that stay in the frame `continue`; the rest `break` out of
  // the switch, which leaves the inner loop.
  //
  // Each executed instruction counts one Insts and one cycle. The inner
  // loop counts them in Left, the steps StepLimit still allows, and
  // Flush adds the steps taken to C before anything reads C: a call
  // (pushFrame, builtins), a return, and leaving the inner loop. The
  // handlers' own adds to C.Cycles commute with it.
  while (!Halted) {
    Frame &Fr = Frames.back();
    const DecodedFunction &Fn = *Fr.Fn;
    const DInst *Code = Fn.Code.data();
    const size_t Base = Fr.RegBase;
    VMVal *R = Regs.data() + Base;
    uint32_t PC = Fr.PC;
    uint64_t Budget = Cfg.StepLimit - C.Insts;
    uint64_t Left = Budget;
    auto Flush = [&] {
      C.Insts += Budget - Left;
      C.Cycles += Budget - Left;
      Budget = Left;
    };
    for (;;) {
      const DInst &I = Code[PC++];
      if (Left == 0) {
        Flush();
        ++C.Insts;
        trapAt(TrapKind::StepLimit, "step limit exceeded ", I);
        break;
      }
      --Left;
      auto W = [&](unsigned K) { return R[I.Ops[K]].A; };
      // One-word results write A only: integer and pointer registers
      // are only ever read through A (docs/runtime.md "Interpreter").
      auto SetWord = [&](uint64_t V) { R[I.Dst].A = V; };
      bool Taken;
      switch (I.Code) {
      // The size in the opcode makes each copy one fixed-size move.
      case Op::Load1:
        if (!load(R, I, 1))
          break;
        continue;
      case Op::Load2:
        if (!load(R, I, 2))
          break;
        continue;
      case Op::Load4:
        if (!load(R, I, 4))
          break;
        continue;
      case Op::Load8:
        if (!load(R, I, 8))
          break;
        continue;
      case Op::Store1:
        if (!store(R, I, 1))
          break;
        continue;
      case Op::Store2:
        if (!store(R, I, 2))
          break;
        continue;
      case Op::Store4:
        if (!store(R, I, 4))
          break;
        continue;
      case Op::Store8:
        if (!store(R, I, 8))
          break;
        continue;
      case Op::GEP: {
        // Wrapping uint64_t arithmetic: the modular address real hardware
        // computes, with no host overflow for any index.
        uint64_t From = W(0);
        uint64_t Addr = From + I.Size;
        for (uint32_t K = I.Aux; K < I.Aux + I.NAux; ++K)
          Addr += R[Fn.Steps[K].Index].A * Fn.Steps[K].Scale;
        if (Cfg.Checker && !checkerAllowsDerive(I, From, Addr))
          break;
        SetWord(Addr);
        continue;
      }
      case Op::Add:
        SetWord(canon(W(0) + W(1), I.Bits));
        continue;
      case Op::Sub:
        SetWord(canon(W(0) - W(1), I.Bits));
        continue;
      case Op::Mul:
        SetWord(canon(W(0) * W(1), I.Bits));
        continue;
      case Op::SDiv:
      case Op::SRem: {
        auto SL = static_cast<int64_t>(W(0)), SR = static_cast<int64_t>(W(1));
        if (SR == 0) {
          trapAt(TrapKind::DivByZero, "division by zero ", I);
          break;
        }
        uint64_t Out = I.Code == Op::SDiv ? sdiv(SL, SR) : srem(SL, SR);
        SetWord(canon(Out, I.Bits));
        continue;
      }
      case Op::UDiv:
      case Op::URem: {
        uint64_t UL = maskTo(W(0), I.Bits), UR = maskTo(W(1), I.Bits);
        if (UR == 0) {
          trapAt(TrapKind::DivByZero, "division by zero ", I);
          break;
        }
        SetWord(canon(I.Code == Op::UDiv ? UL / UR : UL % UR, I.Bits));
        continue;
      }
      case Op::And:
        SetWord(canon(W(0) & W(1), I.Bits));
        continue;
      case Op::Or:
        SetWord(canon(W(0) | W(1), I.Bits));
        continue;
      case Op::Xor:
        SetWord(canon(W(0) ^ W(1), I.Bits));
        continue;
      case Op::Shl:
        SetWord(canon(maskTo(W(0), I.Bits) << (W(1) & (I.Bits - 1)), I.Bits));
        continue;
      case Op::LShr:
        SetWord(canon(maskTo(W(0), I.Bits) >> (W(1) & (I.Bits - 1)), I.Bits));
        continue;
      case Op::AShr:
        SetWord(canon(static_cast<uint64_t>(
                          static_cast<int64_t>(canon(W(0), I.Bits)) >>
                          (W(1) & (I.Bits - 1))),
                      I.Bits));
        continue;
      case Op::CmpEQ:
        Taken = W(0) == W(1);
        goto Compared;
      case Op::CmpNE:
        Taken = W(0) != W(1);
        goto Compared;
      case Op::CmpSLT:
        Taken = static_cast<int64_t>(W(0)) < static_cast<int64_t>(W(1));
        goto Compared;
      case Op::CmpSLE:
        Taken = static_cast<int64_t>(W(0)) <= static_cast<int64_t>(W(1));
        goto Compared;
      case Op::CmpSGT:
        Taken = static_cast<int64_t>(W(0)) > static_cast<int64_t>(W(1));
        goto Compared;
      case Op::CmpSGE:
        Taken = static_cast<int64_t>(W(0)) >= static_cast<int64_t>(W(1));
        goto Compared;
      case Op::CmpULT:
        Taken = maskTo(W(0), I.Bits) < maskTo(W(1), I.Bits);
        goto Compared;
      case Op::CmpULE:
        Taken = maskTo(W(0), I.Bits) <= maskTo(W(1), I.Bits);
        goto Compared;
      case Op::CmpUGT:
        Taken = maskTo(W(0), I.Bits) > maskTo(W(1), I.Bits);
        goto Compared;
      case Op::CmpUGE:
        Taken = maskTo(W(0), I.Bits) >= maskTo(W(1), I.Bits);
      Compared:
        // A compare fused with the CondBr after it also takes that
        // branch, charging its step, unless the budget has no step left
        // for it: then the CondBr runs on its own and traps at the step
        // limit.
        SetWord(Taken);
        if (I.Flag && Left != 0) {
          --Left;
          PC = takeEdge(R, Fn, Fn.Edges[I.Aux + (Taken ? 0 : 1)]);
        }
        continue;
      case Op::CastCopy:
        SetWord(W(0));
        continue;
      case Op::CastCanon:
        SetWord(canon(W(0), I.Bits));
        continue;
      case Op::CastZExt:
        SetWord(maskTo(W(0), I.Bits));
        continue;
      case Op::Select:
        R[I.Dst] = R[I.Ops[W(0) & 1 ? 1 : 2]];
        continue;
      case Op::Call: {
        Flush();
        const DecodedFunction *Callee = I.Callee;
        if (!Callee && !(Callee = funcAt(W(0)))) {
          trapAt(TrapKind::BadIndirectCall,
                 "indirect call to non-function address ", I);
          break;
        }
        Fr.PC = PC;
        if (!Callee->Callable) {
          execBuiltin(R, Fn, I, *Callee);
          break;
        }
        if (!pushFrame(*Callee, I.Dst))
          break;
        // Fr and R are stale from here on: the push may have moved Frames
        // and Regs.
        VMVal *Args = Regs.data() + Frames.back().RegBase;
        for (uint32_t K = 0; K < I.NAux && K < Callee->NumArgs; ++K)
          Args[K] = Regs[Base + Fn.Args[I.Aux + K]];
        break;
      }
      case Op::Ret:
        Flush();
        returnFrom(I.Flag ? R[I.Ops[0]] : VMVal());
        break;
      case Op::Br:
        PC = takeEdge(R, Fn, Fn.Edges[I.Aux]);
        continue;
      case Op::CondBr:
        PC = takeEdge(R, Fn, Fn.Edges[I.Aux + (W(0) & 1 ? 0 : 1)]);
        continue;
      case Op::Unreachable:
        trapAt(TrapKind::UnreachableExecuted, "unreachable executed ", I);
        break;

      //===----------------------------------------------------------------===//
      // SoftBound instrumentation
      //===----------------------------------------------------------------===//

      case Op::MakeBounds:
        R[I.Dst] = VMVal{W(0), W(1), 0};
        continue;
      case Op::GuardedCheck: {
        // The guard test costs one simulated instruction on every
        // execution; the check itself only runs (and only counts as a
        // dynamic check) when the guard is true — so a hull whose window
        // guard failed falls back to honest per-iteration check
        // accounting, and a skipped fallback costs its one-cycle test,
        // not a free ride.
        SiteCounters *SC = siteOf(I);
        ++C.CheckGuards;
        C.Cycles += 1;
        if ((W(2) & 1) == 0) {
          ++C.GuardSkips;
          if (SC)
            ++SC->GuardElided;
          continue;
        }
        if (SC)
          ++SC->FallbackFired;
        if (!spatialCheck(R, I, SC))
          break;
        continue;
      }
      case Op::Check:
        if (!spatialCheck(R, I, siteOf(I)))
          break;
        continue;
      case Op::FuncPtrCheck: {
        SiteCounters *SC = siteOf(I);
        uint64_t P = W(0);
        const VMVal &B = R[I.Ops[1]];
        ++C.FuncPtrChecks;
        C.Cycles += Cfg.CheckCost;
        if (SC)
          ++SC->Executed;
        if (B.A == B.B && B.A == P && P != 0)
          continue;
        if (SC)
          ++SC->Traps;
        trapAt(TrapKind::FuncPtrViolation,
               "softbound: indirect call through non-function pointer ", I);
        break;
      }
      case Op::MetaLoad: {
        assert(Cfg.Meta && "meta.load without a metadata facility");
        Bounds B = Cfg.Meta->lookup(W(0));
        ++C.MetaLoads;
        C.Cycles += Cfg.Meta->lookupCost();
        if (SiteCounters *SC = siteOf(I))
          ++SC->Executed;
        R[I.Dst] = VMVal{B.Base, B.Bound, 0};
        continue;
      }
      case Op::MetaStore: {
        assert(Cfg.Meta && "meta.store without a metadata facility");
        const VMVal &B = R[I.Ops[1]];
        Cfg.Meta->update(W(0), B.A, B.B);
        ++C.MetaStores;
        C.Cycles += Cfg.Meta->updateCost();
        if (SiteCounters *SC = siteOf(I))
          ++SC->Executed;
        continue;
      }
      case Op::PackPB: {
        const VMVal &B = R[I.Ops[1]];
        R[I.Dst] = VMVal{W(0), B.A, B.B};
        continue;
      }
      case Op::ExtractPtr:
        SetWord(W(0));
        continue;
      case Op::ExtractBounds: {
        const VMVal &PP = R[I.Ops[0]];
        R[I.Dst] = VMVal{PP.B, PP.C, 0};
        continue;
      }
      }
      break;
    }
    Flush();
  }
}

//===----------------------------------------------------------------------===//
// VMExec: builtins
//===----------------------------------------------------------------------===//

uint64_t VMExec::simStrlenAt(uint64_t Addr, bool &Ok) {
  uint64_t N = 0;
  Ok = Mem.stringLength(Addr, 1u << 20, N);
  return N;
}

bool VMExec::wrapperCheckStore(uint64_t Ptr, uint64_t N, const VMVal &Bounds,
                               const char *What) {
  if (Cfg.Wrappers == WrapperMode::None)
    return true;
  ++C.Checks;
  C.Cycles += Cfg.CheckCost;
  if (Ptr >= Bounds.A && Ptr + N <= Bounds.B)
    return true;
  trap(TrapKind::SpatialViolation,
       std::string("softbound: out-of-bounds store in ") + What + " wrapper");
  return false;
}

bool VMExec::wrapperCheckLoad(uint64_t Ptr, uint64_t N, const VMVal &Bounds,
                              const char *What) {
  if (Cfg.Wrappers != WrapperMode::Full)
    return true;
  ++C.Checks;
  C.Cycles += Cfg.CheckCost;
  if (Ptr >= Bounds.A && Ptr + N <= Bounds.B)
    return true;
  trap(TrapKind::SpatialViolation,
       std::string("softbound: out-of-bounds load in ") + What + " wrapper");
  return false;
}

void VMExec::unwindFramesAbove(size_t KeepIdx) {
  while (Frames.size() > KeepIdx + 1) {
    releaseFrame(Frames.back());
    Frames.pop_back();
  }
}

bool VMExec::recoverToGuard(TrapKind K) {
  if (GuardRec.FrameIdx >= Frames.size() ||
      Frames[GuardRec.FrameIdx].Gen != GuardRec.FrameGen)
    return false;
  unwindFramesAbove(GuardRec.FrameIdx);
  Frame &Target = Frames.back();
  Target.PC = GuardRec.PC;
  if (GuardRec.ResultSlot >= 0)
    Regs[Target.RegBase + GuardRec.ResultSlot] =
        VMVal{K == TrapKind::SpatialViolation ? 1ULL : 2ULL, 0, 0};
  RequestTrap = K;
  C.Cycles += 20; // Unwind, priced like longjmp.
  return true;
}

void VMExec::execBuiltin(VMVal *R, const DecodedFunction &Fn, const DInst &I,
                         const DecodedFunction &Callee) {
  const Builtin B = Callee.B;
  if (B == Builtin::NotABuiltin) {
    trap(TrapKind::BadIndirectCall,
         "call to undefined function @" + Callee.F->name());
    return;
  }
  ++C.Calls;
  std::vector<VMVal> &A = BuiltinArgs;
  A.clear();
  for (uint32_t K = I.Aux; K < I.Aux + I.NAux; ++K)
    A.push_back(R[Fn.Args[K]]);
  auto Ret = [&](VMVal V) {
    if (I.Dst >= 0)
      R[I.Dst] = V;
  };
  const Frame &Fr = Frames.back();

  switch (B) {
  case Builtin::NotABuiltin:
    sb_unreachable("dispatched a non-builtin");
  case Builtin::Malloc: {
    uint64_t Size = A[0].A;
    uint64_t Addr = Mem.heapAlloc(Size, Cfg.RedzonePad);
    C.Cycles += 30;
    if (Addr && Cfg.Checker)
      Cfg.Checker->onAlloc(ObjectRegion::Heap, Addr, Size);
    Ret(VMVal{Addr, 0, 0});
    return;
  }
  case Builtin::Free: {
    uint64_t Addr = A[0].A;
    C.Cycles += 20;
    if (Addr == 0)
      return;
    uint64_t Size = Mem.heapFree(Addr);
    if (Size == UINT64_MAX) {
      trap(TrapKind::InvalidFree, "free of a non-heap address");
      return;
    }
    if (Cfg.Checker)
      Cfg.Checker->onFree(ObjectRegion::Heap, Addr, Size);
    // §5.2: clear metadata when the freed block could have held pointers.
    if (Cfg.Instrumented && Cfg.Meta)
      C.Cycles += Cfg.Meta->clearRange(Addr, Size);
    return;
  }
  case Builtin::Memcpy:
  case Builtin::SBMemcpy:
  case Builtin::SBMemcpyNoMeta: {
    uint64_t Dst = A[0].A, Src = A[1].A, N = A[2].A;
    if (B != Builtin::Memcpy) {
      // §5.2: bounds of source and target checked once, before the copy.
      if (!wrapperCheckStore(Dst, N, A[3], "memcpy") ||
          !wrapperCheckLoad(Src, N, A[4], "memcpy"))
        return;
    }
    if (!checkNative(Src, N, /*IsStore=*/false, "memcpy") ||
        !checkNative(Dst, N, /*IsStore=*/true, "memcpy"))
      return;
    std::vector<uint8_t> Buf(N);
    if (!Mem.readBytes(Src, N, Buf.data()) ||
        !Mem.writeBytes(Dst, N, Buf.data())) {
      trap(TrapKind::Segfault, "memcpy touches unmapped memory");
      return;
    }
    C.Cycles += 10 + N / 8;
    if (B == Builtin::SBMemcpy && Cfg.Meta) {
      // Scan every source slot for metadata and mirror it (§5.2).
      uint64_t Moved = Cfg.Meta->copyRange(Dst, Src, N);
      C.Cycles += (N / 8) * Cfg.Meta->lookupCost() +
                  Moved * Cfg.Meta->updateCost();
    } else if (B == Builtin::SBMemcpyNoMeta && Cfg.Meta) {
      // §5.2 pointer-free inference: no per-slot scan; the destination
      // shadow region is bulk-cleared (memset-like, ~1 insn per slot).
      Cfg.Meta->clearRange(Dst, N);
      C.Cycles += N / 8;
    }
    Ret(VMVal{Dst, 0, 0});
    return;
  }
  case Builtin::Memset:
  case Builtin::SBMemset: {
    uint64_t Dst = A[0].A, Fill = A[1].A & 0xff, N = A[2].A;
    if (B == Builtin::SBMemset && !wrapperCheckStore(Dst, N, A[3], "memset"))
      return;
    if (!checkNative(Dst, N, /*IsStore=*/true, "memset"))
      return;
    std::vector<uint8_t> Buf(N, static_cast<uint8_t>(Fill));
    if (!Mem.writeBytes(Dst, N, Buf.data())) {
      trap(TrapKind::Segfault, "memset touches unmapped memory");
      return;
    }
    C.Cycles += 10 + N / 8;
    if (Cfg.Instrumented && Cfg.Meta)
      C.Cycles += Cfg.Meta->clearRange(Dst, N);
    Ret(VMVal{Dst, 0, 0});
    return;
  }
  case Builtin::Strlen:
  case Builtin::SBStrlen: {
    bool Ok;
    uint64_t N = simStrlenAt(A[0].A, Ok);
    if (!Ok) {
      trap(TrapKind::Segfault, "strlen ran off mapped memory");
      return;
    }
    if (B == Builtin::SBStrlen &&
        !wrapperCheckLoad(A[0].A, N + 1, A[1], "strlen"))
      return;
    C.Cycles += 2 + N;
    Ret(VMVal{N, 0, 0});
    return;
  }
  case Builtin::Strcpy:
  case Builtin::SBStrcpy: {
    uint64_t Dst = A[0].A, Src = A[1].A;
    bool Ok;
    uint64_t N = simStrlenAt(Src, Ok);
    if (!Ok) {
      trap(TrapKind::Segfault, "strcpy source not NUL-terminated in memory");
      return;
    }
    if (B == Builtin::SBStrcpy) {
      if (!wrapperCheckLoad(Src, N + 1, A[3], "strcpy") ||
          !wrapperCheckStore(Dst, N + 1, A[2], "strcpy"))
        return;
    }
    if (!checkNative(Src, N + 1, /*IsStore=*/false, "strcpy") ||
        !checkNative(Dst, N + 1, /*IsStore=*/true, "strcpy"))
      return;
    std::vector<uint8_t> Buf(N + 1);
    Mem.readBytes(Src, N + 1, Buf.data());
    if (!Mem.writeBytes(Dst, N + 1, Buf.data())) {
      trap(TrapKind::Segfault, "strcpy writes unmapped memory");
      return;
    }
    C.Cycles += 10 + N;
    if (Cfg.Instrumented && Cfg.Meta)
      C.Cycles += Cfg.Meta->clearRange(Dst, N + 1);
    Ret(VMVal{Dst, 0, 0});
    return;
  }
  case Builtin::Strcat:
  case Builtin::SBStrcat: {
    uint64_t Dst = A[0].A, Src = A[1].A;
    bool Ok1, Ok2;
    uint64_t DN = simStrlenAt(Dst, Ok1);
    uint64_t SN = simStrlenAt(Src, Ok2);
    if (!Ok1 || !Ok2) {
      trap(TrapKind::Segfault, "strcat operand not NUL-terminated");
      return;
    }
    if (B == Builtin::SBStrcat) {
      if (!wrapperCheckLoad(Src, SN + 1, A[3], "strcat") ||
          !wrapperCheckStore(Dst, DN + SN + 1, A[2], "strcat"))
        return;
    }
    if (!checkNative(Src, SN + 1, /*IsStore=*/false, "strcat") ||
        !checkNative(Dst, DN + SN + 1, /*IsStore=*/true, "strcat"))
      return;
    std::vector<uint8_t> Buf(SN + 1);
    Mem.readBytes(Src, SN + 1, Buf.data());
    if (!Mem.writeBytes(Dst + DN, SN + 1, Buf.data())) {
      trap(TrapKind::Segfault, "strcat writes unmapped memory");
      return;
    }
    C.Cycles += 10 + DN + SN;
    Ret(VMVal{Dst, 0, 0});
    return;
  }
  case Builtin::Strcmp:
  case Builtin::SBStrcmp: {
    uint64_t P = A[0].A, Q = A[1].A;
    int64_t Out = 0;
    uint64_t N = 0;
    for (;; ++N, ++P, ++Q) {
      uint64_t X, Y;
      if (!Mem.read(P, 1, X) || !Mem.read(Q, 1, Y)) {
        trap(TrapKind::Segfault, "strcmp ran off mapped memory");
        return;
      }
      if (X != Y) {
        Out = X < Y ? -1 : 1;
        break;
      }
      if (X == 0)
        break;
    }
    C.Cycles += 2 + N;
    Ret(VMVal{static_cast<uint64_t>(Out), 0, 0});
    return;
  }
  case Builtin::PrintInt:
    C.Cycles += 5;
    emit(std::to_string(static_cast<int64_t>(A[0].A)));
    return;
  case Builtin::PrintChar:
    C.Cycles += 5;
    emit(std::string(1, static_cast<char>(A[0].A & 0xff)));
    return;
  case Builtin::PrintStr: {
    bool Ok;
    uint64_t N = simStrlenAt(A[0].A, Ok);
    if (!Ok) {
      trap(TrapKind::Segfault, "print_str of non-terminated string");
      return;
    }
    std::vector<uint8_t> Buf(N);
    Mem.readBytes(A[0].A, N, Buf.data());
    C.Cycles += 5 + N;
    emit(std::string(Buf.begin(), Buf.end()));
    return;
  }
  case Builtin::Exit:
    Res.ExitCode = static_cast<int64_t>(canon(A[0].A, 32));
    Halted = true;
    return;
  case Builtin::Rand:
    C.Cycles += 5;
    Ret(VMVal{Rand.next() >> 1, 0, 0});
    return;
  case Builtin::Srand:
    Rand = RNG(A[0].A);
    return;
  case Builtin::Setjmp: {
    uint64_t Buf = A[0].A;
    uint64_t Token = NextJmpToken++;
    if (!Mem.write(Buf, 8, JmpMagic) || !Mem.write(Buf + 8, 8, Token) ||
        !Mem.write(Buf + 16, 8, 0) || !Mem.write(Buf + 24, 8, 0)) {
      trap(TrapKind::Segfault, "setjmp buffer unmapped");
      return;
    }
    C.Cycles += 10;
    JmpRecords.push_back(
        JmpRecord{Token, Frames.size() - 1, Fr.Gen, Fr.PC, I.Dst});
    Ret(VMVal{0, 0, 0});
    return;
  }
  case Builtin::Longjmp: {
    uint64_t Buf = A[0].A;
    uint64_t V = A[1].A;
    uint64_t Magic = 0, Token = 0, Pc = 0;
    if (!Mem.read(Buf, 8, Magic) || !Mem.read(Buf + 8, 8, Token) ||
        !Mem.read(Buf + 16, 8, Pc)) {
      trap(TrapKind::Segfault, "longjmp buffer unmapped");
      return;
    }
    C.Cycles += 20;
    // A corrupted PC field models the classic jmp_buf attack target.
    if (Pc != 0) {
      if (const DecodedFunction *Target = funcAt(Pc))
        hijack(Target->F->name());
      else
        trap(TrapKind::CorruptedJmpBuf, "longjmp PC field corrupted");
      return;
    }
    if (Magic != JmpMagic) {
      trap(TrapKind::CorruptedJmpBuf, "longjmp buffer magic corrupted");
      return;
    }
    const JmpRecord *Rec = nullptr;
    for (const auto &R : JmpRecords)
      if (R.Token == Token)
        Rec = &R;
    if (!Rec || Rec->FrameIdx >= Frames.size() ||
        Frames[Rec->FrameIdx].Gen != Rec->FrameGen) {
      trap(TrapKind::CorruptedJmpBuf,
           "longjmp to a frame that is no longer live");
      return;
    }
    unwindFramesAbove(Rec->FrameIdx);
    Frame &Target = Frames.back();
    Target.PC = Rec->PC;
    if (Rec->ResultSlot >= 0)
      Regs[Target.RegBase + Rec->ResultSlot] = VMVal{V == 0 ? 1 : V, 0, 0};
    return;
  }
  case Builtin::RequestGuard:
    // Arms (or re-arms) the request-window resume point right after this
    // call: returns 0 now, or the contained-trap code (1 = spatial,
    // 2 = function-pointer) when a violation unwinds back here.
    C.Cycles += 2;
    GuardRec = JmpRecord{0, Frames.size() - 1, Fr.Gen, Fr.PC, I.Dst};
    GuardArmed = true;
    Ret(VMVal{0, 0, 0});
    return;
  case Builtin::RequestEnd: {
    // Closes the current request window: records the counter delta and
    // the contained trap (if any), then disarms the guard so traps
    // between requests stay fatal.
    C.Cycles += 2;
    RequestSample S;
    S.Delta = C.since(RequestMark);
    S.Trap = RequestTrap;
    Res.Requests.push_back(S);
    RequestMark = C;
    RequestTrap = TrapKind::None;
    GuardArmed = false;
    return;
  }
  case Builtin::SetBound:
  case Builtin::Unbound:
    // Uninstrumented semantics: identity. The SoftBound pass intercepts
    // these calls and rewrites the bounds (§5.2).
    Ret(VMVal{A[0].A, 0, 0});
    return;
  }
  sb_unreachable("covered switch");
}
