//===- tests/test_frontend_vm.cpp - frontend + VM end-to-end ---------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests: mini-C source -> IR -> VM execution, uninstrumented.
///
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

using namespace softbound;

namespace {

/// Compiles, verifies and runs a program; returns the RunResult.
RunResult execSource(const std::string &Src,
                     const std::vector<int64_t> &Args = {}) {
  CompileResult CR = compileC(Src);
  EXPECT_TRUE(CR.ok()) << CR.errorText();
  if (!CR.ok())
    return RunResult{};
  auto Errors = verifyModule(*CR.M);
  EXPECT_TRUE(Errors.empty()) << Errors.front() << "\n" << printModule(*CR.M);
  VM Machine(*CR.M, VMConfig{});
  return Machine.run("main", Args);
}

TEST(FrontendVM, ReturnsConstant) {
  RunResult R = execSource("int main() { return 42; }");
  EXPECT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ExitCode, 42);
}

TEST(FrontendVM, Arithmetic) {
  RunResult R = execSource(
      "int main() { int a = 6; int b = 7; return a * b + 10 / 2 - 5; }");
  EXPECT_EQ(R.ExitCode, 42);
}

TEST(FrontendVM, WhileLoopSum) {
  RunResult R = execSource("int main() {\n"
                           "  int i = 0; int sum = 0;\n"
                           "  while (i < 10) { sum += i; i++; }\n"
                           "  return sum;\n"
                           "}");
  EXPECT_EQ(R.ExitCode, 45);
}

TEST(FrontendVM, ForLoopAndBreakContinue) {
  RunResult R = execSource("int main() {\n"
                           "  int sum = 0;\n"
                           "  for (int i = 0; i < 100; i++) {\n"
                           "    if (i % 2 == 0) continue;\n"
                           "    if (i > 10) break;\n"
                           "    sum += i;\n"
                           "  }\n"
                           "  return sum;\n" // 1+3+5+7+9 = 25
                           "}");
  EXPECT_EQ(R.ExitCode, 25);
}

TEST(FrontendVM, PointersAndArrays) {
  RunResult R = execSource("int main() {\n"
                           "  int a[10];\n"
                           "  int* p = a;\n"
                           "  for (int i = 0; i < 10; i++) p[i] = i * i;\n"
                           "  int* q = &a[4];\n"
                           "  return *q + a[3];\n" // 16 + 9
                           "}");
  EXPECT_EQ(R.ExitCode, 25);
}

TEST(FrontendVM, PointerArithmetic) {
  RunResult R = execSource("int main() {\n"
                           "  int a[8];\n"
                           "  int* p = a;\n"
                           "  int* q = p + 5;\n"
                           "  *q = 7;\n"
                           "  long d = q - p;\n"
                           "  return a[5] * 10 + (int)d;\n" // 75
                           "}");
  EXPECT_EQ(R.ExitCode, 75);
}

TEST(FrontendVM, StructsAndFields) {
  RunResult R = execSource("struct point { int x; int y; };\n"
                           "int main() {\n"
                           "  struct point p;\n"
                           "  p.x = 11; p.y = 31;\n"
                           "  struct point* q = &p;\n"
                           "  return q->x + q->y;\n"
                           "}");
  EXPECT_EQ(R.ExitCode, 42);
}

TEST(FrontendVM, StructWithInternalArray) {
  RunResult R = execSource(
      "struct node { char str[8]; int tag; };\n"
      "int main() {\n"
      "  struct node n;\n"
      "  n.tag = 5;\n"
      "  for (int i = 0; i < 7; i++) n.str[i] = 'a' + i;\n"
      "  n.str[7] = 0;\n"
      "  return (int)strlen(n.str) + n.tag;\n" // 7 + 5
      "}");
  EXPECT_EQ(R.ExitCode, 12);
}

TEST(FrontendVM, HeapAllocation) {
  RunResult R = execSource("int main() {\n"
                           "  int* p = (int*)malloc(10 * sizeof(int));\n"
                           "  for (int i = 0; i < 10; i++) p[i] = i;\n"
                           "  int sum = 0;\n"
                           "  for (int i = 0; i < 10; i++) sum += p[i];\n"
                           "  free((char*)p);\n"
                           "  return sum;\n"
                           "}");
  EXPECT_EQ(R.ExitCode, 45);
}

TEST(FrontendVM, FunctionsAndRecursion) {
  RunResult R = execSource("int fib(int n) {\n"
                           "  if (n < 2) return n;\n"
                           "  return fib(n - 1) + fib(n - 2);\n"
                           "}\n"
                           "int main() { return fib(10); }");
  EXPECT_EQ(R.ExitCode, 55);
}

TEST(FrontendVM, GlobalsWithInitializers) {
  RunResult R = execSource("int counter = 40;\n"
                           "int table[4] = {1, 2, 3, 4};\n"
                           "int main() { return counter + table[1]; }");
  EXPECT_EQ(R.ExitCode, 42);
}

TEST(FrontendVM, GlobalPointerInitializer) {
  RunResult R = execSource("int value = 33;\n"
                           "int* vp = &value;\n"
                           "int main() { return *vp + 9; }");
  EXPECT_EQ(R.ExitCode, 42);
}

TEST(FrontendVM, StringsAndBuiltins) {
  RunResult R = execSource("int main() {\n"
                           "  char buf[16];\n"
                           "  strcpy(buf, \"hello\");\n"
                           "  print_str(buf);\n"
                           "  return (int)strlen(buf);\n"
                           "}");
  EXPECT_EQ(R.ExitCode, 5);
  EXPECT_EQ(R.Output, "hello");
}

TEST(FrontendVM, FunctionPointers) {
  RunResult R = execSource("int add(int a, int b) { return a + b; }\n"
                           "int mul(int a, int b) { return a * b; }\n"
                           "int apply(int (*f)(int, int), int a, int b) {\n"
                           "  return f(a, b);\n"
                           "}\n"
                           "int main() {\n"
                           "  int (*op)(int, int);\n"
                           "  op = add;\n"
                           "  int s = apply(op, 2, 3);\n"
                           "  op = mul;\n"
                           "  return s + apply(op, 4, 5);\n" // 5 + 20
                           "}");
  EXPECT_EQ(R.ExitCode, 25);
}

TEST(FrontendVM, LinkedList) {
  RunResult R = execSource(
      "struct node { int val; struct node* next; };\n"
      "int main() {\n"
      "  struct node* head = NULL;\n"
      "  for (int i = 1; i <= 5; i++) {\n"
      "    struct node* n = (struct node*)malloc(sizeof(struct node));\n"
      "    n->val = i; n->next = head; head = n;\n"
      "  }\n"
      "  int sum = 0;\n"
      "  while (head != NULL) { sum += head->val; head = head->next; }\n"
      "  return sum;\n"
      "}");
  EXPECT_EQ(R.ExitCode, 15);
}

TEST(FrontendVM, SetjmpLongjmp) {
  RunResult R = execSource("long jb[4];\n"
                           "void thrower(int depth) {\n"
                           "  if (depth == 0) longjmp(jb, 7);\n"
                           "  thrower(depth - 1);\n"
                           "}\n"
                           "int main() {\n"
                           "  int v = setjmp(jb);\n"
                           "  if (v != 0) return v;\n"
                           "  thrower(5);\n"
                           "  return 0;\n"
                           "}");
  EXPECT_EQ(R.ExitCode, 7);
}

TEST(FrontendVM, TernaryAndLogicalOps) {
  RunResult R = execSource("int main() {\n"
                           "  int a = 5;\n"
                           "  int b = (a > 3 && a < 10) ? 30 : 1;\n"
                           "  int c = (a == 0 || a == 5) ? 12 : 2;\n"
                           "  return b + c;\n"
                           "}");
  EXPECT_EQ(R.ExitCode, 42);
}

TEST(FrontendVM, CharAndSignExtension) {
  RunResult R = execSource("int main() {\n"
                           "  char c = 200;\n" // Wraps to -56 as signed char.
                           "  int i = c;\n"
                           "  return i == -56;\n"
                           "}");
  EXPECT_EQ(R.ExitCode, 1);
}

TEST(FrontendVM, UnionThroughCast) {
  RunResult R = execSource("int main() {\n"
                           "  long x = 0x0102030405060708;\n"
                           "  char* p = (char*)&x;\n"
                           "  return p[0] + p[7];\n" // 8 + 1 little endian
                           "}");
  EXPECT_EQ(R.ExitCode, 9);
}

TEST(FrontendVM, MultiDimensionalArray) {
  RunResult R = execSource("int m[3][4];\n"
                           "int main() {\n"
                           "  for (int i = 0; i < 3; i++)\n"
                           "    for (int j = 0; j < 4; j++)\n"
                           "      m[i][j] = i * 4 + j;\n"
                           "  return m[2][3];\n"
                           "}");
  EXPECT_EQ(R.ExitCode, 11);
}

TEST(FrontendVM, NullDerefSegfaults) {
  RunResult R = execSource("int main() { int* p = NULL; return *p; }");
  EXPECT_EQ(R.Trap, TrapKind::Segfault);
}

TEST(FrontendVM, DivByZeroTraps) {
  RunResult R = execSource("int main(int x) { return 10 / x; }", {0});
  EXPECT_EQ(R.Trap, TrapKind::DivByZero);
}

TEST(FrontendVM, ExitBuiltin) {
  RunResult R = execSource("int main() { exit(3); return 9; }");
  EXPECT_EQ(R.ExitCode, 3);
}

TEST(FrontendVM, SizeofSemantics) {
  RunResult R = execSource(
      "struct s { char c; long l; int i; };\n"
      "int main() {\n"
      "  return sizeof(char) + sizeof(int) + sizeof(long) + sizeof(int*) +\n"
      "         sizeof(struct s);\n" // 1 + 4 + 8 + 8 + 24
      "}");
  EXPECT_EQ(R.ExitCode, 45);
}

TEST(FrontendVM, StackSmashIsDetectedByVM) {
  // Without SoftBound, overflowing into the return-address word corrupts
  // control data; the VM notices at function return.
  // buf is the first local, so it sits just below the saved-FP word and
  // the return-address word: 24 bytes of overflow covers both.
  RunResult R = execSource("int smash() {\n"
                           "  char buf[8];\n"
                           "  for (int i = 0; i < 24; i++) buf[i] = 0x41;\n"
                           "  return 0;\n"
                           "}\n"
                           "int main() { return smash(); }");
  EXPECT_TRUE(R.Trap == TrapKind::CorruptedReturn ||
              R.Trap == TrapKind::CorruptedFrame)
      << trapName(R.Trap);
}

} // namespace
