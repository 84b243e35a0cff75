//===- tests/test_softbound.cpp - SoftBound transformation tests -----------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Behavioural tests of the SoftBound pass: transparency on correct
/// programs, detection of spatial violations (paper §3, §6.2), sub-object
/// overflow protection, both checking modes, and both metadata facilities.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include <gtest/gtest.h>

using namespace softbound;

namespace {

struct ModeCase {
  CheckMode Mode;
  FacilityKind Facility;
};

/// The default instrumented pipeline over \p Src with pass config \p SB.
PipelinePlan sbPlan(const std::string &Src, const SoftBoundConfig &SB = {}) {
  PipelinePlan Plan;
  Plan.frontend(Src).optimize().softbound(SB).checkOpt();
  return Plan;
}

/// Builds + runs under a given mode/facility.
RunResult runSB(const std::string &Src, CheckMode Mode,
                FacilityKind Facility = FacilityKind::Shadow,
                std::vector<int64_t> Args = {}) {
  SoftBoundConfig SB;
  SB.Mode = Mode;
  RunRequest R;
  R.Facility = Facility;
  R.Args = std::move(Args);
  RunResult Out = runSession(sbPlan(Src, SB), R).Combined;
  EXPECT_NE(Out.Message.substr(0, 12), "build failed") << Out.Message;
  return Out;
}

RunResult runPlain(const std::string &Src, std::vector<int64_t> Args = {}) {
  RunRequest R;
  R.Args = std::move(Args);
  return runSession(PipelinePlan().frontend(Src).optimize(), R).Combined;
}

//===----------------------------------------------------------------------===//
// Transparency: instrumented correct programs behave identically.
//===----------------------------------------------------------------------===//

class SoftBoundTransparency
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

const char *TransparentPrograms[] = {
    // Pointer-heavy linked list.
    "struct node { int val; struct node* next; };\n"
    "int main() {\n"
    "  struct node* head = NULL;\n"
    "  for (int i = 1; i <= 50; i++) {\n"
    "    struct node* n = (struct node*)malloc(sizeof(struct node));\n"
    "    n->val = i; n->next = head; head = n;\n"
    "  }\n"
    "  int sum = 0;\n"
    "  while (head) { sum += head->val; head = head->next; }\n"
    "  return sum % 251;\n" // 1275 % 251 = 20
    "}",
    // Array/string workload.
    "int main() {\n"
    "  char buf[32];\n"
    "  strcpy(buf, \"softbound\");\n"
    "  strcat(buf, \"-2009\");\n"
    "  return (int)strlen(buf);\n" // 14
    "}",
    // Function pointers + struct fields.
    "struct ops { int (*f)(int); int bias; };\n"
    "int dbl(int x) { return 2 * x; }\n"
    "int main() {\n"
    "  struct ops o;\n"
    "  o.f = dbl; o.bias = 2;\n"
    "  return o.f(10) + o.bias;\n" // 22
    "}",
    // Pointer returned through calls.
    "int* pick(int* a, int* b, int which) { return which ? a : b; }\n"
    "int main() {\n"
    "  int x = 7; int y = 9;\n"
    "  int* p = pick(&x, &y, 1);\n"
    "  return *p + *pick(&x, &y, 0);\n" // 16
    "}",
    // memcpy of a pointer-containing struct keeps metadata usable.
    "struct box { int* p; int pad; };\n"
    "int main() {\n"
    "  int v = 31;\n"
    "  struct box a; struct box b;\n"
    "  a.p = &v; a.pad = 1;\n"
    "  memcpy((char*)&b, (char*)&a, sizeof(struct box));\n"
    "  return *b.p;\n" // 31
    "}",
};
const int TransparentExpected[] = {20, 14, 22, 16, 31};

TEST_P(SoftBoundTransparency, MatchesUninstrumented) {
  int ProgIdx = std::get<0>(GetParam());
  int CfgIdx = std::get<1>(GetParam());
  const ModeCase Cases[] = {
      {CheckMode::Full, FacilityKind::Shadow},
      {CheckMode::Full, FacilityKind::Hash},
      {CheckMode::StoreOnly, FacilityKind::Shadow},
      {CheckMode::StoreOnly, FacilityKind::Hash},
  };
  const std::string Src = TransparentPrograms[ProgIdx];

  RunResult Plain = runPlain(Src);
  ASSERT_TRUE(Plain.ok()) << Plain.Message;
  EXPECT_EQ(Plain.ExitCode, TransparentExpected[ProgIdx]);

  RunResult SB = runSB(Src, Cases[CfgIdx].Mode, Cases[CfgIdx].Facility);
  EXPECT_TRUE(SB.ok()) << SB.Message << " (" << trapName(SB.Trap) << ")";
  EXPECT_EQ(SB.ExitCode, Plain.ExitCode);
  EXPECT_EQ(SB.Output, Plain.Output);
}

INSTANTIATE_TEST_SUITE_P(AllProgramsAllModes, SoftBoundTransparency,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Range(0, 4)));

//===----------------------------------------------------------------------===//
// Detection: spatial violations trap.
//===----------------------------------------------------------------------===//

TEST(SoftBoundDetect, HeapWriteOverflow) {
  const char *Src = "int main() {\n"
                    "  int* p = (int*)malloc(10 * sizeof(int));\n"
                    "  for (int i = 0; i <= 10; i++) p[i] = i;\n" // one past
                    "  return 0;\n"
                    "}";
  EXPECT_TRUE(runPlain(Src).ok()); // Silent corruption without SoftBound.
  EXPECT_EQ(runSB(Src, CheckMode::Full).Trap, TrapKind::SpatialViolation);
  EXPECT_EQ(runSB(Src, CheckMode::StoreOnly).Trap,
            TrapKind::SpatialViolation);
}

TEST(SoftBoundDetect, HeapReadOverflowFullOnly) {
  const char *Src = "int main() {\n"
                    "  int* p = (int*)malloc(10 * sizeof(int));\n"
                    "  int sum = 0;\n"
                    "  for (int i = 0; i <= 10; i++) sum += p[i];\n"
                    "  return sum;\n"
                    "}";
  // Read overflows are exactly what store-only checking gives up (§6.3).
  EXPECT_EQ(runSB(Src, CheckMode::Full).Trap, TrapKind::SpatialViolation);
  EXPECT_TRUE(runSB(Src, CheckMode::StoreOnly).ok());
}

TEST(SoftBoundDetect, StackBufferWriteOverflow) {
  const char *Src = "int main() {\n"
                    "  char buf[8];\n"
                    "  for (int i = 0; i < 9; i++) buf[i] = 'x';\n"
                    "  return 0;\n"
                    "}";
  EXPECT_EQ(runSB(Src, CheckMode::Full).Trap, TrapKind::SpatialViolation);
  EXPECT_EQ(runSB(Src, CheckMode::StoreOnly).Trap,
            TrapKind::SpatialViolation);
}

TEST(SoftBoundDetect, GlobalArrayOverflow) {
  const char *Src = "int table[16];\n"
                    "int main(int n) {\n"
                    "  for (int i = 0; i < n; i++) table[i] = i;\n"
                    "  return 0;\n"
                    "}";
  BuildResult Prog = sbPlan(Src).build();
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  RunRequest R;
  R.Args = {16};
  EXPECT_TRUE(runSession(Prog, R).Combined.ok());
  R.Args = {17};
  EXPECT_EQ(runSession(Prog, R).Combined.Trap, TrapKind::SpatialViolation);
}

TEST(SoftBoundDetect, SubObjectOverflowCaught) {
  // §2.1's motivating example: overflow of a struct-internal array into an
  // adjacent field. Object-based approaches cannot catch this; SoftBound's
  // shrunk field bounds do (§3.1).
  const char *Src =
      "struct node { char str[8]; int count; };\n"
      "int main() {\n"
      "  struct node n;\n"
      "  n.count = 1000;\n"
      "  char* ptr = n.str;\n"
      "  strcpy(ptr, \"overflow...\");\n" // 11 chars + NUL into str[8]
      "  return n.count;\n"
      "}";
  EXPECT_EQ(runSB(Src, CheckMode::Full).Trap, TrapKind::SpatialViolation);
  EXPECT_EQ(runSB(Src, CheckMode::StoreOnly).Trap,
            TrapKind::SpatialViolation);

  // With bound shrinking disabled (the MSCC-like configuration) the
  // overflow stays inside the struct object: silent data corruption.
  SoftBoundConfig NoShrink;
  NoShrink.ShrinkBounds = false;
  RunResult R = runSession(sbPlan(Src, NoShrink)).Combined;
  EXPECT_TRUE(R.ok()) << R.Message;
  EXPECT_NE(R.ExitCode, 1000); // n.count was silently overwritten.
}

TEST(SoftBoundDetect, SubObjectOverflowIntoFunctionPointer) {
  // The full §2.1 scenario with a function pointer target. Even without
  // shrunk bounds, the forged pointer is caught at the indirect call: the
  // disjoint metadata still holds the *old* bounds, which no longer match
  // the overwritten pointer bits (base == bound == ptr fails, §5.2).
  const char *Src =
      "struct node { char str[8]; int (*func)(int); };\n"
      "int id(int x) { return x; }\n"
      "int main() {\n"
      "  struct node n;\n"
      "  n.func = id;\n"
      "  char* ptr = n.str;\n"
      "  strcpy(ptr, \"overflow...\");\n"
      "  return n.func(0);\n"
      "}";
  // With shrinking: caught at the overflowing write itself.
  EXPECT_EQ(runSB(Src, CheckMode::Full).Trap, TrapKind::SpatialViolation);

  // Without shrinking: caught later, at the corrupted indirect call.
  SoftBoundConfig NoShrink;
  NoShrink.ShrinkBounds = false;
  RunResult R = runSession(sbPlan(Src, NoShrink)).Combined;
  EXPECT_EQ(R.Trap, TrapKind::FuncPtrViolation) << trapName(R.Trap);
}

TEST(SoftBoundDetect, StaleMetadataClearedOnFree) {
  // §5.2 "memory reuse and stale metadata": when freed memory is
  // reallocated, pointer slots in it must not resurrect old bounds.
  const char *Src =
      "long g;\n"
      "int main() {\n"
      "  long** p = (long**)malloc(8);\n"
      "  p[0] = &g;\n"          // Record metadata for this heap slot.
      "  free((char*)p);\n"
      "  char* raw = malloc(8);\n" // First fit: same address, old bits.
      "  long** q = (long**)raw;\n"
      "  long* d = q[0];\n"     // Stale pointer bits from before the free.
      "  *d = 1;\n"             // Metadata was cleared: must trap.
      "  return 0;\n"
      "}";
  EXPECT_EQ(runSB(Src, CheckMode::Full).Trap, TrapKind::SpatialViolation);
}

TEST(SoftBoundDetect, ForgedFunctionPointerBlocked) {
  // A function pointer manufactured from an integer has null bounds, so
  // the base==bound==ptr encoding check fails at the indirect call (§5.2).
  const char *Src = "int main(long addr) {\n"
                    "  int (*fp)(int);\n"
                    "  fp = (int (*)(int))(char*)addr;\n"
                    "  return fp(1);\n"
                    "}";
  RunResult R = runSB(Src, CheckMode::Full, FacilityKind::Shadow,
                      {0x100010});
  EXPECT_EQ(R.Trap, TrapKind::FuncPtrViolation) << trapName(R.Trap);
}

TEST(SoftBoundDetect, WildCastStillChecked) {
  // Casts do not change bounds: casting int* to char* then overflowing is
  // still caught (disjoint metadata cannot be coerced, §5.2).
  const char *Src = "int main() {\n"
                    "  int x[2];\n"
                    "  char* p = (char*)x;\n"
                    "  p[8] = 1;\n" // one byte past the 8-byte array
                    "  return 0;\n"
                    "}";
  EXPECT_EQ(runSB(Src, CheckMode::Full).Trap, TrapKind::SpatialViolation);
}

TEST(SoftBoundDetect, IntToPtrGetsNullBounds) {
  const char *Src = "int main() {\n"
                    "  long fake = 0x20000040;\n"
                    "  int* p = (int*)(char*)fake;\n"
                    "  return *p;\n"
                    "}";
  EXPECT_EQ(runSB(Src, CheckMode::Full).Trap, TrapKind::SpatialViolation);
}

TEST(SoftBoundDetect, SetboundEscapeHatch) {
  // __setbound gives a programmer-asserted extent to a manufactured
  // pointer (custom allocators, §5.2).
  const char *Src = "int main() {\n"
                    "  char* arena = malloc(64);\n"
                    "  long base = (long)arena;\n"
                    "  char* p = __setbound((char*)base, 8);\n"
                    "  p[7] = 1;\n"  // In asserted bounds.
                    "  p[8] = 1;\n"  // Out.
                    "  return 0;\n"
                    "}";
  EXPECT_EQ(runSB(Src, CheckMode::Full).Trap, TrapKind::SpatialViolation);
}

TEST(SoftBoundDetect, AccessSizeMatters) {
  // Casting a char pointer to int* makes a 4-byte access overflow a
  // 1-byte extent — the check includes the access size (§3.1).
  const char *Src = "int main() {\n"
                    "  char* c = malloc(1);\n"
                    "  int* p = (int*)c;\n"
                    "  *p = 5;\n"
                    "  return 0;\n"
                    "}";
  EXPECT_EQ(runSB(Src, CheckMode::Full).Trap, TrapKind::SpatialViolation);
}

TEST(SoftBoundDetect, NegativeIndexUnderflow) {
  const char *Src = "int main() {\n"
                    "  int* p = (int*)malloc(8 * sizeof(int));\n"
                    "  p[-1] = 3;\n"
                    "  return 0;\n"
                    "}";
  EXPECT_EQ(runSB(Src, CheckMode::Full).Trap, TrapKind::SpatialViolation);
}

TEST(SoftBoundDetect, OutOfBoundsPointerCreationIsAllowed) {
  // C allows creating out-of-bounds pointers; only dereferences trap
  // (§3.1 "pointer arithmetic and pointer assignment").
  const char *Src = "int main() {\n"
                    "  int a[4];\n"
                    "  int* p = a + 9;\n" // Way past the end: fine.
                    "  p = p - 7;\n"      // Back in bounds.
                    "  *p = 12;\n"        // a[2]: fine.
                    "  return a[2];\n"
                    "}";
  RunResult R = runSB(Src, CheckMode::Full);
  EXPECT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ExitCode, 12);
}

//===----------------------------------------------------------------------===//
// Pass-level structural checks
//===----------------------------------------------------------------------===//

TEST(SoftBoundPassStats, ChecksAndMetadataInserted) {
  const char *Src = "struct n { int v; struct n* next; };\n"
                    "struct n* g;\n"
                    "int main() {\n"
                    "  g = (struct n*)malloc(sizeof(struct n));\n"
                    "  g->next = g;\n"
                    "  return g->next->v;\n"
                    "}";
  BuildResult Prog = sbPlan(Src).build();
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  const SoftBoundStats &Stats = Prog.Pipeline.SB;
  EXPECT_GT(Stats.ChecksInserted, 0u);
  EXPECT_GT(Stats.MetaLoadsInserted, 0u);
  EXPECT_GT(Stats.MetaStoresInserted, 0u);
  EXPECT_EQ(Stats.FunctionsTransformed, 1u);
  // Functions are renamed with the _sb_ prefix (§3.3).
  EXPECT_NE(Prog.M->getFunction("_sb_main"), nullptr);
  EXPECT_EQ(Prog.M->getFunction("main"), nullptr);
}

TEST(SoftBoundPassStats, StoreOnlyInsertsFewerChecks) {
  const char *Src = "int main() {\n"
                    "  int* p = (int*)malloc(64);\n"
                    "  int s = 0;\n"
                    "  for (int i = 0; i < 16; i++) { p[i] = i; s += p[i]; }\n"
                    "  return s;\n"
                    "}";
  SoftBoundConfig Store;
  Store.Mode = CheckMode::StoreOnly;
  BuildResult F = sbPlan(Src).build();
  BuildResult S = sbPlan(Src, Store).build();
  ASSERT_TRUE(F.ok() && S.ok());
  const SoftBoundStats &FS = F.Pipeline.SB, &SS = S.Pipeline.SB;
  EXPECT_LT(SS.ChecksInserted, FS.ChecksInserted);
  // Metadata propagation is identical in both modes (§6.3).
  EXPECT_EQ(SS.MetaLoadsInserted, FS.MetaLoadsInserted);
  EXPECT_EQ(SS.MetaStoresInserted, FS.MetaStoresInserted);
}

TEST(SoftBoundPassStats, RedundantCheckElimination) {
  const char *Src = "int main() {\n"
                    "  int* p = (int*)malloc(16);\n"
                    "  p[1] = 1;\n"
                    "  p[1] = 2;\n" // Same pointer, same bounds: redundant.
                    "  p[1] = 3;\n"
                    "  return p[1];\n"
                    "}";
  BuildResult Prog = sbPlan(Src).build(); // ReoptimizeAfter is the default.
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  EXPECT_GT(Prog.Pipeline.SB.ChecksEliminated, 0u);
  RunResult R = runSession(Prog).Combined;
  EXPECT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ExitCode, 3);
}

} // namespace
