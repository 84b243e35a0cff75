//===- tests/test_vm.cpp - VM substrate unit tests --------------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests of the execution substrate: the simulated memory's heap
/// allocator (adjacency, free-list reuse, red-zone padding), segment
/// fault behaviour and demand-zero backing, the VM's refusal of images
/// whose globals do not fit, the control-data corruption detection
/// that the attack suite relies on, wrapping GEP address arithmetic,
/// and the pins of the decoded interpreter: parallel phi moves,
/// immediate global and function addresses, the step limit and the
/// cost model, and setjmp resumption.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "vm/SimMemory.h"

#include <gtest/gtest.h>

#include <fstream>
#include <unistd.h>

using namespace softbound;

namespace {

/// Builds \p Src through the optimizer only and runs it.
RunResult runPlain(const std::string &Src, const RunRequest &Req = {}) {
  return runSession(PipelinePlan().frontend(Src).optimize(), Req).Combined;
}

/// The data segment sizes of one SimMemory.
struct Sizes {
  uint64_t Globals, Heap, Stack;
};

/// The sizes every VM gets (4/64/2 MB).
const Sizes Defaults{simlayout::GlobalSize, simlayout::HeapSize,
                     simlayout::StackSize};

/// {base, size} of the global, heap and stack segments.
std::vector<std::pair<uint64_t, uint64_t>> segments(const Sizes &S) {
  return {{simlayout::GlobalBase, S.Globals},
          {simlayout::HeapBase, S.Heap},
          {simlayout::StackBase, S.Stack}};
}

/// True when every byte of [Addr, Addr+N) reads 0.
bool allZero(const SimMemory &M, uint64_t Addr, uint64_t N) {
  std::vector<uint8_t> Buf(N, 0xFF);
  if (!M.readBytes(Addr, N, Buf.data()))
    return false;
  for (uint8_t B : Buf)
    if (B != 0)
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// SimMemory
//===----------------------------------------------------------------------===//

TEST(SimMemory, SegmentsAndFaults) {
  SimMemory M(1 << 20, 1 << 20, 1 << 20);
  uint64_t V = 0;
  // Null page and random low addresses are unmapped.
  EXPECT_FALSE(M.read(0, 8, V));
  EXPECT_FALSE(M.write(0x10, 8, 1));
  // Globals are mapped from GlobalBase.
  EXPECT_TRUE(M.write(simlayout::GlobalBase, 8, 0x1234));
  EXPECT_TRUE(M.read(simlayout::GlobalBase, 8, V));
  EXPECT_EQ(V, 0x1234u);
  // Straddling a segment end faults.
  EXPECT_FALSE(M.read(simlayout::GlobalBase + (1 << 20) - 4, 8, V));
}

TEST(SimMemory, SubWordAccessLittleEndian) {
  SimMemory M(1 << 16, 1 << 16, 1 << 16);
  ASSERT_TRUE(M.write(simlayout::HeapBase, 8, 0x0102030405060708ULL));
  uint64_t B = 0;
  ASSERT_TRUE(M.read(simlayout::HeapBase, 1, B));
  EXPECT_EQ(B, 0x08u);
  ASSERT_TRUE(M.read(simlayout::HeapBase + 7, 1, B));
  EXPECT_EQ(B, 0x01u);
  ASSERT_TRUE(M.read(simlayout::HeapBase + 2, 2, B));
  EXPECT_EQ(B, 0x0506u);
}

TEST(SimMemory, HeapAdjacencyIsDeterministic) {
  // The attack suite depends on consecutive mallocs being adjacent
  // (16-byte aligned, no headers).
  SimMemory M(1 << 16, 1 << 20, 1 << 16);
  uint64_t A = M.heapAlloc(16);
  uint64_t B = M.heapAlloc(8);
  uint64_t C = M.heapAlloc(24);
  EXPECT_EQ(B, A + 16);
  EXPECT_EQ(C, B + 16); // 8 rounds up to 16.
}

TEST(SimMemory, FreeListReusesFirstFit) {
  SimMemory M(1 << 16, 1 << 20, 1 << 16);
  uint64_t A = M.heapAlloc(64);
  M.heapAlloc(16); // Keep the bump pointer moving.
  EXPECT_EQ(M.heapFree(A), 64u);
  // Same-size allocation reuses the freed block (stale-metadata test
  // depends on this).
  EXPECT_EQ(M.heapAlloc(64), A);
  // Splitting: a smaller allocation carves the front of a freed block.
  uint64_t D = M.heapAlloc(128);
  M.heapFree(D);
  EXPECT_EQ(M.heapAlloc(32), D);
  EXPECT_EQ(M.heapAlloc(32), D + 32);
}

TEST(SimMemory, RedzonePaddingSeparatesBlocks) {
  SimMemory M(1 << 16, 1 << 20, 1 << 16);
  uint64_t A = M.heapAlloc(16, /*RedzonePad=*/16);
  uint64_t B = M.heapAlloc(16, /*RedzonePad=*/16);
  EXPECT_GE(B - A, 32u);
  // The gap belongs to no live block.
  EXPECT_EQ(M.heapBlockContaining(A + 20).second, 0u);
  EXPECT_EQ(M.heapBlockContaining(A + 4).first, A);
}

TEST(SimMemory, InvalidFreeReported) {
  SimMemory M(1 << 16, 1 << 20, 1 << 16);
  uint64_t A = M.heapAlloc(16);
  EXPECT_EQ(M.heapFree(A + 4), UINT64_MAX); // Interior pointer.
  EXPECT_EQ(M.heapFree(A), 16u);
  EXPECT_EQ(M.heapFree(A), UINT64_MAX); // Double free.
}

TEST(SimMemory, StringLengthStopsAtNulLimitOrSegmentEnd) {
  SimMemory M(1 << 16, 1 << 16, 1 << 16);
  const uint8_t Hi[] = {'h', 'i', 0};
  ASSERT_TRUE(M.writeBytes(simlayout::HeapBase + 8, 3, Hi));
  uint64_t Len = 99;
  EXPECT_TRUE(M.stringLength(simlayout::HeapBase + 8, 1 << 20, Len));
  EXPECT_EQ(Len, 2u);
  EXPECT_TRUE(M.stringLength(simlayout::HeapBase + 10, 1 << 20, Len));
  EXPECT_EQ(Len, 0u);
  // The NUL must lie within the limit.
  EXPECT_TRUE(M.stringLength(simlayout::HeapBase + 8, 3, Len));
  EXPECT_FALSE(M.stringLength(simlayout::HeapBase + 8, 2, Len));
  // A string running to the segment's last byte runs off mapped memory.
  uint64_t End = simlayout::HeapBase + (1 << 16);
  const uint8_t Tail[] = {'x', 'y'};
  ASSERT_TRUE(M.writeBytes(End - 2, 2, Tail));
  EXPECT_FALSE(M.stringLength(End - 2, 1 << 20, Len));
  EXPECT_FALSE(M.stringLength(0, 1 << 20, Len)) << "unmapped start";
  // Concurrent mode scans the same bytes.
  M.setConcurrent(true);
  EXPECT_TRUE(M.stringLength(simlayout::HeapBase + 8, 1 << 20, Len));
  EXPECT_EQ(Len, 2u);
  EXPECT_FALSE(M.stringLength(End - 2, 1 << 20, Len));
}

TEST(SimMemory, UntouchedSegmentEdgesReadZero) {
  SimMemory M(Defaults.Globals, Defaults.Heap, Defaults.Stack);
  for (auto [Base, Size] : segments(Defaults)) {
    uint64_t V = 0xFF;
    ASSERT_TRUE(M.read(Base, 1, V));
    EXPECT_EQ(V, 0u) << "first byte at " << Base;
    V = 0xFF;
    ASSERT_TRUE(M.read(Base + Size - 1, 1, V));
    EXPECT_EQ(V, 0u) << "last byte at " << Base + Size - 1;
  }
}

TEST(SimMemory, FreshInstanceReadsZeroAfterAWrittenOne) {
  // A second address space built right after a dirtied one must not see
  // its bytes, whatever host allocation the segments reuse. Small
  // segments are written in full (sizes an allocator would recycle from
  // its arena); default-sized ones at both ends of each segment.
  constexpr uint64_t Small = 64 << 10;
  constexpr uint64_t Edge = 16 << 10;
  for (auto [S, Span] : {std::pair{Sizes{Small, Small, Small}, Small},
                         std::pair{Defaults, Edge}}) {
    std::vector<uint8_t> Dirt(Span, 0xA5);
    {
      SimMemory First(S.Globals, S.Heap, S.Stack);
      for (auto [Base, Size] : segments(S)) {
        ASSERT_TRUE(First.writeBytes(Base, Span, Dirt.data()));
        ASSERT_TRUE(First.writeBytes(Base + Size - Span, Span, Dirt.data()));
      }
    }
    SimMemory Second(S.Globals, S.Heap, S.Stack);
    for (auto [Base, Size] : segments(S)) {
      EXPECT_TRUE(allZero(Second, Base, Span)) << "segment at " << Base;
      EXPECT_TRUE(allZero(Second, Base + Size - Span, Span))
          << "segment at " << Base;
    }
  }
}

TEST(SimMemory, ZeroSizeSegmentsFaultOnEveryAccess) {
  SimMemory M(0, 0, 0);
  uint8_t Byte = 0;
  for (auto [Base, Size] : segments({0, 0, 0})) {
    ASSERT_EQ(Size, 0u);
    uint64_t V = 0;
    EXPECT_FALSE(M.read(Base, 1, V));
    EXPECT_FALSE(M.write(Base, 1, 1));
    EXPECT_FALSE(M.readBytes(Base, 1, &Byte));
    EXPECT_FALSE(M.writeBytes(Base, 1, &Byte));
    EXPECT_FALSE(M.accessible(Base, 1));
  }
  EXPECT_EQ(M.allocateGlobal(1, 1), 0u);
  EXPECT_EQ(M.heapAlloc(1), 0u);
}

#ifdef __linux__
/// Resident set size in bytes, from /proc/self/statm.
uint64_t residentBytes() {
  std::ifstream Statm("/proc/self/statm");
  uint64_t Pages = 0, Resident = 0;
  Statm >> Pages >> Resident;
  return Resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

TEST(SimMemory, ConstructionTouchesNoSegmentPages) {
  // Demand-zero segments: building the default 4/64/2 MB address space
  // (and reading its untouched bytes) must not make it resident.
  uint64_t Before = residentBytes();
  ASSERT_GT(Before, 0u);
  SimMemory M(Defaults.Globals, Defaults.Heap, Defaults.Stack);
  uint64_t V = 0;
  EXPECT_TRUE(M.read(simlayout::HeapBase + Defaults.Heap / 2, 8, V));
  uint64_t After = residentBytes();
  EXPECT_LT(After, Before + (1u << 20))
      << "constructing SimMemory made " << (After - Before)
      << " bytes resident";
}
#endif

//===----------------------------------------------------------------------===//
// VM image loading
//===----------------------------------------------------------------------===//

TEST(VMImage, GlobalSegmentOverflowIsRefused) {
  // One byte past the default 4 MB global segment: no lane may start, and
  // the trap names the global, what it needs and the segment size.
  const std::string Big = "char big[4194305];\n"
                          "int main() { big[0] = 1; return 7; }";
  for (unsigned Lanes : {1u, 2u}) {
    RunRequest Req;
    Req.Lanes = Lanes;
    RunResult R = runPlain(Big, Req);
    EXPECT_EQ(R.Trap, TrapKind::OutOfMemory) << "lanes " << Lanes;
    EXPECT_EQ(R.Counters.Insts, 0u) << "lanes " << Lanes;
    EXPECT_NE(R.Message.find("global segment exhausted"), std::string::npos)
        << R.Message;
    EXPECT_NE(R.Message.find("@big"), std::string::npos) << R.Message;
    EXPECT_NE(R.Message.find("4194305 bytes"), std::string::npos)
        << R.Message;
    EXPECT_NE(R.Message.find("4194304-byte"), std::string::npos)
        << R.Message;
  }

  // Global padding counts: a global that fits alone overflows once the
  // checker-baseline guard zone is added.
  const std::string Fits = "char big[4194300];\n"
                           "int main() { big[0] = 1; return 7; }";
  RunResult Plain = runPlain(Fits);
  ASSERT_TRUE(Plain.ok()) << Plain.Message;
  EXPECT_EQ(Plain.ExitCode, 7);
  RunRequest Padded;
  Padded.GlobalPad = 16;
  RunResult R = runPlain(Fits, Padded);
  EXPECT_EQ(R.Trap, TrapKind::OutOfMemory);
  EXPECT_NE(R.Message.find("4194316 bytes"), std::string::npos) << R.Message;
}

//===----------------------------------------------------------------------===//
// VM control-data integrity (the attack substrate)
//===----------------------------------------------------------------------===//

TEST(VMControlData, GarbageReturnAddressIsACrash) {
  // Corrupting the return word with a non-function value is a crash
  // (CorruptedReturn), not a hijack.
  RunResult R = runPlain("int f() {\n"
                         "  char buf[16];\n"
                         "  long* w = (long*)buf;\n"
                         "  w[3] = 0x41414141;\n"
                         "  return 1;\n"
                         "}\n"
                         "int main() { return f(); }");
  EXPECT_EQ(R.Trap, TrapKind::CorruptedReturn) << trapName(R.Trap);
}

TEST(VMControlData, FunctionAddressInReturnSlotHijacks) {
  RunResult R = runPlain("int pay(int x) { return x; }\n"
                         "int f() {\n"
                         "  char buf[16];\n"
                         "  long* w = (long*)buf;\n"
                         "  w[3] = (long)pay;\n"
                         "  return 1;\n"
                         "}\n"
                         "int main() { return f(); }");
  EXPECT_EQ(R.Trap, TrapKind::Hijacked);
  EXPECT_EQ(R.HijackTarget, "pay");
}

TEST(VMControlData, CorruptedJmpBufMagicTraps) {
  RunResult R = runPlain("long jb[4];\n"
                         "int main() {\n"
                         "  if (setjmp(jb) != 0) return 7;\n"
                         "  jb[0] = 12345;\n" // Smash the magic.
                         "  longjmp(jb, 1);\n"
                         "  return 0;\n"
                         "}");
  EXPECT_EQ(R.Trap, TrapKind::CorruptedJmpBuf);
}

TEST(VMControlData, LongjmpToDeadFrameTraps) {
  RunResult R = runPlain("long jb[4];\n"
                         "int arm() { return setjmp(jb); }\n"
                         "int main() {\n"
                         "  arm();\n" // The armed frame returns.
                         "  longjmp(jb, 1);\n"
                         "  return 0;\n"
                         "}");
  EXPECT_EQ(R.Trap, TrapKind::CorruptedJmpBuf);
}

TEST(VMControlData, DeepRecursionHitsStackGuard) {
  RunResult R = runPlain("int down(int n) {\n"
                         "  long pad[64];\n"
                         "  pad[0] = n;\n"
                         "  if (n == 0) return 0;\n"
                         "  return down(n - 1) + (int)pad[0];\n"
                         "}\n"
                         "int main() { return down(1000000); }");
  EXPECT_EQ(R.Trap, TrapKind::StackOverflow);
}

TEST(VMCounters, CycleModelComponentsAdd) {
  // Instrumented cycles = base + 3 per check + 5 per shadow metadata op.
  const char *Src = "int main() {\n"
                    "  long* p = (long*)malloc(80);\n"
                    "  long* q;\n"
                    "  for (int i = 0; i < 10; i++) p[i] = i;\n"
                    "  q = p;\n"
                    "  return (int)q[9];\n"
                    "}";
  RunResult Plain = runPlain(Src);
  PipelinePlan Plan;
  Plan.frontend(Src).optimize().softbound().checkOpt();
  RunResult SB = runSession(Plan).Combined;
  ASSERT_TRUE(Plain.ok() && SB.ok()) << SB.Message;
  EXPECT_EQ(SB.ExitCode, 9);
  uint64_t Expected = SB.Counters.Insts + 3 * SB.Counters.Checks +
                      5 * SB.Counters.metaOps();
  // Builtin costs (malloc) and frame metadata clearing add a remainder;
  // the modeled components must account for the bulk.
  EXPECT_GE(SB.Counters.Cycles, Expected);
  EXPECT_LT(SB.Counters.Cycles, Expected + 200);
}

TEST(VMCounters, MaxFrameDepthTracksRecursion) {
  RunResult R = runPlain("int f(int n) {\n"
                         "  if (n == 0) return 0;\n"
                         "  return f(n - 1) + 1;\n"
                         "}\n"
                         "int main() { return f(40); }");
  EXPECT_EQ(R.ExitCode, 40);
  EXPECT_GE(R.Counters.MaxFrameDepth, 41u);
}

//===----------------------------------------------------------------------===//
// GEP address arithmetic
//===----------------------------------------------------------------------===//

TEST(VMGEP, IndexTimesSizeWrapsModulo2To64) {
  // (2^62 + 1) * 4 wraps to 4, so a[i] reads a[1]: the modular address
  // real hardware computes, with no host overflow, and the same exit
  // code whether or not the access is checked or its check elided.
  const char *Src = "int a[4];\n"
                    "int main() {\n"
                    "  a[1] = 7;\n"
                    "  long i = 4611686018427387905;\n"
                    "  return a[i];\n"
                    "}";
  for (const char *Spec : {"optimize", "optimize,softbound,checkopt",
                           "optimize,softbound,checkopt,safe-elision"}) {
    PipelinePlan Plan;
    ASSERT_TRUE(Plan.frontend(Src).appendSpec(Spec)) << Spec;
    RunResult R = runSession(Plan, {}).Combined;
    EXPECT_EQ(R.Trap, TrapKind::None) << Spec << ": " << trapName(R.Trap);
    EXPECT_EQ(R.ExitCode, 7) << Spec;
  }
}

//===----------------------------------------------------------------------===//
// The decoded interpreter
//===----------------------------------------------------------------------===//

/// Runs \p M's main in a fresh uninstrumented VM.
RunResult runModule(Module &M, uint64_t StepLimit = VMConfig().StepLimit) {
  VMConfig Cfg;
  Cfg.StepLimit = StepLimit;
  VM Machine(M, Cfg);
  return Machine.run("main");
}

/// main() { a = 1; b = 2; c = 0; for (i = 0; i < Trips; i++)
/// { a, b, c = b, a, a; } return a * 100 + b * 10 + c; } with the loop
/// state held only in header phis: a and b swap, and c is fed by a.
std::unique_ptr<Module> phiSwapLoop(int64_t Trips) {
  auto M = std::make_unique<Module>();
  TypeContext &Ctx = M->ctx();
  Function *F = M->createFunction("main", Ctx.funcTy(Ctx.i64(), {}));
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Latch = F->createBlock("latch");
  BasicBlock *Exit = F->createBlock("exit");
  IRBuilder B(*M);
  B.setInsertPoint(Entry);
  B.br(Header);
  // phi() inserts at the block's start: create in reverse to get
  // a, b, c, i in block order, so c reads a phi written before it.
  B.setInsertPoint(Header);
  PhiInst *I = B.phi(Ctx.i64(), "i");
  PhiInst *C = B.phi(Ctx.i64(), "c");
  PhiInst *Bv = B.phi(Ctx.i64(), "b");
  PhiInst *A = B.phi(Ctx.i64(), "a");
  Value *More = B.icmp(ICmpInst::Pred::SLT, I, M->constI64(Trips));
  B.condBr(More, Latch, Exit);
  B.setInsertPoint(Latch);
  Value *Next = B.add(I, M->constI64(1));
  B.br(Header);
  A->addIncoming(M->constI64(1), Entry);
  A->addIncoming(Bv, Latch);
  Bv->addIncoming(M->constI64(2), Entry);
  Bv->addIncoming(A, Latch);
  C->addIncoming(M->constI64(0), Entry);
  C->addIncoming(A, Latch);
  I->addIncoming(M->constI64(0), Entry);
  I->addIncoming(Next, Latch);
  B.setInsertPoint(Exit);
  Value *Out = B.add(B.add(B.mul(A, M->constI64(100)),
                           B.mul(Bv, M->constI64(10))),
                     C);
  B.ret(Out);
  return M;
}

TEST(VMDecoded, HeaderPhisMoveInParallel) {
  // Every phi of a block reads its incoming value before any is written:
  // a and b swap each trip, and c gets the a of the trip before.
  for (auto [Trips, Expected] : {std::pair{0, 120}, std::pair{1, 211},
                                 std::pair{2, 122}, std::pair{3, 211}}) {
    auto M = phiSwapLoop(Trips);
    ASSERT_TRUE(verifyModule(*M).empty()) << verifyModule(*M).front();
    RunResult R = runModule(*M);
    ASSERT_TRUE(R.ok()) << R.Message;
    EXPECT_EQ(R.ExitCode, Expected) << Trips << " trips";
  }
}

TEST(VMDecoded, GlobalAndFunctionAddressesAreImmediates) {
  // A phi choosing between a global's address and null, a phi choosing
  // between a function's address and null, and a store whose value is a
  // function address: each constant address reaches the register or the
  // memory word as the address the image gave it.
  Module M;
  TypeContext &Ctx = M.ctx();
  FunctionType *SevenTy = Ctx.funcTy(Ctx.i64(), {});
  PointerType *FnPtr = Ctx.ptrTo(SevenTy);
  PointerType *I64Ptr = Ctx.ptrTo(Ctx.i64());
  GlobalVariable *G = M.createGlobal("g", Ctx.i64(), GlobalInitializer());
  GlobalVariable *Slot = M.createGlobal("slot", FnPtr, GlobalInitializer());
  Function *Seven = M.createFunction("seven", SevenTy);
  IRBuilder B(M);
  B.setInsertPoint(Seven->createBlock("entry"));
  B.ret(M.constI64(7));

  Function *Main = M.createFunction("main", Ctx.funcTy(Ctx.i64(), {}));
  BasicBlock *Entry = Main->createBlock("entry");
  BasicBlock *Left = Main->createBlock("left");
  BasicBlock *Right = Main->createBlock("right");
  BasicBlock *Join = Main->createBlock("join");
  B.setInsertPoint(Entry);
  B.condBr(M.constI1(true), Left, Right);
  for (BasicBlock *Arm : {Left, Right}) {
    B.setInsertPoint(Arm);
    B.br(Join);
  }
  B.setInsertPoint(Join);
  PhiInst *Fp = B.phi(FnPtr, "fp");
  Fp->addIncoming(Seven, Left);
  Fp->addIncoming(M.nullPtr(FnPtr), Right);
  PhiInst *P = B.phi(I64Ptr, "p");
  P->addIncoming(G, Left);
  P->addIncoming(M.nullPtr(I64Ptr), Right);
  B.store(M.constI64(42), P);
  B.store(Seven, Slot);
  Value *Loaded = B.load(FnPtr, Slot);
  Value *ViaPhi = B.callIndirect(SevenTy, Fp, {});
  Value *ViaMemory = B.callIndirect(SevenTy, Loaded, {});
  Value *Stored = B.load(Ctx.i64(), G);
  B.ret(B.add(B.add(Stored, ViaPhi), B.mul(ViaMemory, M.constI64(1000))));
  ASSERT_TRUE(verifyModule(M).empty()) << verifyModule(M).front();

  VM Machine(M, VMConfig{});
  RunResult R = Machine.run("main");
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ExitCode, 42 + 7 + 7000);
  uint64_t Word = 0;
  ASSERT_TRUE(Machine.memory().read(Machine.globalAddress(Slot), 8, Word));
  EXPECT_EQ(Word, Machine.functionAddress(Seven));
  ASSERT_TRUE(Machine.memory().read(Machine.globalAddress(G), 8, Word));
  EXPECT_EQ(Word, 42u);
}

/// main() { long x = 0; for (long i = 0; i < 3; i++) x += i; return x; }
/// with x an alloca and i a header phi. Executed instructions: entry 2
/// (store, br), header 4 x 2 (icmp, condbr), body 3 x 5 (load, add,
/// store, add, br), exit 2 (load, ret): 27. The alloca and the phi are
/// free.
std::unique_ptr<Module> allocaPhiLoop() {
  auto M = std::make_unique<Module>();
  TypeContext &Ctx = M->ctx();
  Function *F = M->createFunction("main", Ctx.funcTy(Ctx.i64(), {}));
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");
  IRBuilder B(*M);
  B.setInsertPoint(Entry);
  Value *X = B.alloca_(Ctx.i64(), "x");
  B.store(M->constI64(0), X);
  B.br(Header);
  B.setInsertPoint(Header);
  PhiInst *I = B.phi(Ctx.i64(), "i");
  B.condBr(B.icmp(ICmpInst::Pred::SLT, I, M->constI64(3)), Body, Exit);
  B.setInsertPoint(Body);
  B.store(B.add(B.load(Ctx.i64(), X), I), X);
  Value *Next = B.add(I, M->constI64(1));
  B.br(Header);
  I->addIncoming(M->constI64(0), Entry);
  I->addIncoming(Next, Body);
  B.setInsertPoint(Exit);
  B.ret(B.load(Ctx.i64(), X));
  return M;
}

TEST(VMDecoded, AllocasAndPhisAreFreeAndTheStepLimitCountsFirst) {
  auto M = allocaPhiLoop();
  ASSERT_TRUE(verifyModule(*M).empty()) << verifyModule(*M).front();
  RunResult Full = runModule(*M);
  ASSERT_TRUE(Full.ok()) << Full.Message;
  EXPECT_EQ(Full.ExitCode, 3);
  EXPECT_EQ(Full.Counters.Insts, 27u);
  EXPECT_EQ(Full.Counters.Cycles, 27u);
  EXPECT_EQ(Full.Counters.Loads, 4u);
  EXPECT_EQ(Full.Counters.Stores, 4u);
  EXPECT_EQ(Full.Counters.Calls, 1u);

  // A limit of exactly the run's instructions lets it finish.
  RunResult AtLimit = runModule(*M, 27);
  EXPECT_TRUE(AtLimit.ok()) << AtLimit.Message;
  EXPECT_EQ(AtLimit.Counters.Insts, 27u);

  // Past the limit, the instruction is counted, then refused before
  // it is charged a cycle.
  for (uint64_t N : {0u, 1u, 10u, 26u}) {
    RunResult R = runModule(*M, N);
    EXPECT_EQ(R.Trap, TrapKind::StepLimit) << N << ": " << trapName(R.Trap);
    EXPECT_EQ(R.Counters.Insts, N + 1) << N;
    EXPECT_EQ(R.Counters.Cycles, N) << N;
  }
}

TEST(VMDecoded, LongjmpResumesAfterAMidBlockSetjmp) {
  // setjmp sits mid-block, between two increments of a memory local; a
  // longjmp three frames down resumes at the instruction after the
  // setjmp call with main's locals and registers as the longjmp found
  // them: r == 5, arr[0] == 13 as the first pass left it (so the
  // increment after setjmp makes it 14), and k (a register once
  // optimized) still 21.
  const char *Src = "long jb[4];\n"
                    "void deep(int n) {\n"
                    "  if (n == 0) longjmp(jb, 5);\n"
                    "  deep(n - 1);\n"
                    "}\n"
                    "int main() {\n"
                    "  int arr[4];\n"
                    "  arr[0] = 11;\n"
                    "  arr[2] = 7;\n"
                    "  int k = arr[2] * 3;\n"
                    "  arr[0] = arr[0] + 1;\n"
                    "  int r = setjmp(jb);\n"
                    "  arr[0] = arr[0] + 1;\n"
                    "  if (r == 0) {\n"
                    "    deep(3);\n"
                    "    return 99;\n"
                    "  }\n"
                    "  return r * 100 + arr[0] + k;\n"
                    "}";
  for (const char *Spec : {"", "optimize", "optimize,softbound,checkopt"}) {
    PipelinePlan Plan;
    Plan.frontend(Src);
    if (*Spec) {
      ASSERT_TRUE(Plan.appendSpec(Spec)) << Spec;
    }
    RunResult R = runSession(Plan, {}).Combined;
    ASSERT_TRUE(R.ok()) << Spec << ": " << R.Message;
    EXPECT_EQ(R.ExitCode, 500 + 14 + 21) << Spec;
    EXPECT_GE(R.Counters.MaxFrameDepth, 5u) << Spec;
  }
}

} // namespace
