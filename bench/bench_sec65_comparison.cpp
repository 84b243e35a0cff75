//===- bench/bench_sec65_comparison.cpp - §6.5 -------------------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the §6.5 comparison against related pointer-based schemes:
///   * MSCC-like: no sub-object shrinking, costlier linked metadata
///     (modelled as the hash facility + no shrink) — the paper reports
///     MSCC above SoftBound (e.g. go: 144% vs 55%).
///   * CCured-like: whole-program SAFE-pointer inference removes checks
///     statically (modelled with the safe-elision pass after checkopt, so
///     hull hoisting sees every check first) — lower than SoftBound on
///     average, at the price of source-compatibility (see the caveat).
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

using namespace softbound;
using namespace softbound::benchutil;

int main() {
  std::printf("=== §6.5: comparison to pointer-based schemes ===\n");
  std::printf("(percent simulated-cycle overhead vs uninstrumented)\n\n");

  TablePrinter T({"benchmark", "softbound-full %", "mscc-like %",
                  "ccured-like %", "checks elided (ccured)"});
  double SumSB = 0, SumMSCC = 0, SumCC = 0;
  double GoSB = 0, GoMSCC = 0;
  int N = 0;
  bool CCEveryKernel = true;

  for (const auto &W : benchmarkSuite()) {
    BuildResult Base = mustBuild(W.Source, "optimize");
    Measurement MB = measure(Base);
    uint64_t BaseCycles = MB.R.Counters.Cycles;

    // SoftBound proper: shadow facility, full checking.
    Measurement MSB =
        measure(mustBuild(W.Source, "optimize,softbound,checkopt"));

    // MSCC-like: no shrinking, hash facility (linked metadata cost).
    RunRequest RM;
    RM.Facility = FacilityKind::Hash;
    // MSCC's per-dereference check consults its linked metadata structures
    // (~8 instructions vs SoftBound's 3-instruction compare pair).
    RM.CheckCost = 8;
    Measurement MM = measure(
        mustBuild(W.Source, "optimize,softbound(no-shrink),checkopt"), RM);

    // CCured-like: static SAFE-pointer check elision, shadow facility.
    BuildResult CCProg = mustBuild(
        W.Source, "optimize,softbound,checkopt,safe-elision,reoptimize");
    Measurement MC = measure(CCProg);

    double SB = overheadPct(MSB.R.Counters.Cycles, BaseCycles);
    double MSCC = overheadPct(MM.R.Counters.Cycles, BaseCycles);
    double CC = overheadPct(MC.R.Counters.Cycles, BaseCycles);
    SumSB += SB;
    SumMSCC += MSCC;
    SumCC += CC;
    CCEveryKernel &= MC.R.Counters.Cycles <= MSB.R.Counters.Cycles;
    ++N;
    if (W.Name == "go") {
      GoSB = SB;
      GoMSCC = MSCC;
    }
    T.addRow({W.Name, TablePrinter::fmt(SB, 1), TablePrinter::fmt(MSCC, 1),
              TablePrinter::fmt(CC, 1),
              std::to_string(CCProg.Pipeline.CheckOpt.SafeChecksElided)});
  }
  T.addRow({"average", TablePrinter::fmt(SumSB / N, 1),
            TablePrinter::fmt(SumMSCC / N, 1),
            TablePrinter::fmt(SumCC / N, 1), ""});
  T.print();

  std::printf("\npaper shape checks:\n");
  std::printf("  MSCC-like > SoftBound on average:  %s (paper: MSCC avg 68%%"
              " spatial-only vs SoftBound 79%% full incl. sub-object; on\n"
              "   shared benchmarks like go MSCC is ~2.6x SoftBound)\n",
              SumMSCC > SumSB ? "yes" : "NO");
  std::printf("  go: mscc/softbound ratio = %.2f (paper: 144%%/55%% = 2.6)\n",
              GoSB > 0 ? GoMSCC / GoSB : 0.0);
  std::printf("  CCured-like <= SoftBound on average: %s (paper: CCured "
              "3-87%% vs SoftBound 79%%)\n",
              SumCC <= SumSB ? "yes" : "NO");
  std::printf("   caveat: the model elides only the checks counted above and "
              "strips no metadata;\n   the paper's 3-87%% comes from SAFE "
              "pointers that carry no metadata at all\n");
  std::printf("  CCured-like <= SoftBound on every kernel: %s\n",
              CCEveryKernel ? "yes" : "NO");
  return 0;
}
