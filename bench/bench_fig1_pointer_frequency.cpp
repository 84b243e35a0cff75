//===- bench/bench_fig1_pointer_frequency.cpp - Figure 1 --------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Figure 1: the percentage of memory operations that load or
/// store a pointer (and thus require a metadata access), per benchmark,
/// in the paper's sorted order. Paper's qualitative claims: several
/// benchmarks under 5% (five of the seven SPEC kernels), several Olden
/// kernels above 50%.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

using namespace softbound;
using namespace softbound::benchutil;

int main() {
  std::printf("=== Figure 1: frequency of pointer memory operations ===\n");
  std::printf("(percentage of loads+stores that move a pointer value;\n"
              " benchmarks in the paper's sorted order, SPEC vs Olden)\n\n");

  TablePrinter T({"benchmark", "suite", "mem ops", "ptr loads", "ptr stores",
                  "% pointer ops"});
  double Prev = -1.0;
  bool Sorted = true;
  for (const auto &W : benchmarkSuite()) {
    BuildResult Prog = mustBuild(W.Source, "optimize");
    Measurement M = measure(Prog);
    if (!M.R.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", W.Name.c_str(),
                   M.R.Message.c_str());
      return 1;
    }
    const VMCounters &C = M.R.Counters;
    double Pct = C.ptrOpFraction() * 100.0;
    T.addRow({W.Name, W.Suite, std::to_string(C.memOps()),
              std::to_string(C.PtrLoads), std::to_string(C.PtrStores),
              TablePrinter::fmt(Pct, 1)});
    if (Pct + 3.0 < Prev) // Allow small non-monotonic wiggle.
      Sorted = false;
    Prev = Pct;
  }
  T.print();
  std::printf("\nshape check: ordering ascending (±3%%): %s\n",
              Sorted ? "yes" : "NO");
  return 0;
}
