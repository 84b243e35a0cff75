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
/// that the attack suite relies on, and wrapping GEP address arithmetic.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
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

} // namespace
