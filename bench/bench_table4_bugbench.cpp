//===- bench/bench_table4_bugbench.cpp - Table 4 ----------------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Table 4: detection of the BugBench overflow kernels by a
/// Valgrind-style red-zone checker, a Mudflap-style object table, and
/// SoftBound (store-only and full). Paper's matrix:
///
///   go:        valgrind no, mudflap no,  store no,  full yes
///   compress:  valgrind no, mudflap yes, store yes, full yes
///   polymorph: valgrind yes, mudflap yes, store yes, full yes
///   gzip:      valgrind yes, mudflap yes, store yes, full yes
///
//===----------------------------------------------------------------------===//

#include "baselines/MemcheckLite.h"
#include "baselines/ObjectTableChecker.h"
#include "bench/BenchUtil.h"

using namespace softbound;
using namespace softbound::benchutil;

namespace {

const char *yn(bool B) { return B ? "yes" : "no"; }

} // namespace

int main() {
  std::printf("=== Table 4: BugBench overflow detection matrix ===\n\n");
  TablePrinter T({"benchmark", "bug class", "valgrind", "mudflap",
                  "sb-store", "sb-full"});

  const bool Paper[4][4] = {{false, false, false, true},
                            {false, true, true, true},
                            {true, true, true, true},
                            {true, true, true, true}};
  bool AllMatch = true;
  int Idx = 0;
  for (const auto &Bug : bugbenchSuite()) {
    BuildResult Plain = mustBuild(Bug.Source, "optimize");

    MemcheckLite MC;
    RunRequest RMC;
    RMC.Checker = &MC;
    RMC.RedzonePad = MemcheckLite::RecommendedRedzone;
    bool Valgrind = runSession(Plain, RMC).Combined.violationDetected();

    ObjectTableChecker OT;
    RunRequest ROT;
    ROT.Checker = &OT;
    ROT.RedzonePad = 16;
    ROT.GlobalPad = 16;
    bool Mudflap = runSession(mustBuild(Bug.Source, "optimize"), ROT)
                       .Combined.violationDetected();

    BuildResult StoreProg =
        mustBuild(Bug.Source, "optimize,softbound(store-only),checkopt");
    bool Store = runSession(StoreProg).Combined.violationDetected();

    BuildResult FullProg = mustBuild(Bug.Source, "optimize,softbound,checkopt");
    bool Full = runSession(FullProg).Combined.violationDetected();

    bool Match = Valgrind == Paper[Idx][0] && Mudflap == Paper[Idx][1] &&
                 Store == Paper[Idx][2] && Full == Paper[Idx][3];
    AllMatch &= Match;
    T.addRow({Bug.Name, Bug.BugClass, yn(Valgrind), yn(Mudflap), yn(Store),
              yn(Full)});
    ++Idx;
  }
  T.print();
  std::printf("\nmatrix matches the paper's Table 4: %s\n",
              AllMatch ? "yes" : "NO");
  return AllMatch ? 0 : 1;
}
