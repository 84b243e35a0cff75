//===- wallbench/src/main.cpp - layered wall-clock benchmark driver -------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Usage:
///   wallbench --workload kernels|verdicts|traffic --seed N --seconds S
///             --trace 0|1 --expected DIR [--trace-out FILE]
///   wallbench --print-expected kernels|verdicts
///
/// Prints a human-readable summary on stderr and, as the last line of
/// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
/// Exits 0 only when every op and check passed; prints no JSON when setup
/// failed before any op ran.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace wallbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "wallbench: %s\n"
               "usage: wallbench --workload kernels|verdicts|traffic --seed N "
               "--seconds S --trace 0|1 --expected DIR [--trace-out FILE]\n"
               "       wallbench --print-expected kernels|verdicts\n",
               Why);
  return 2;
}

/// Shortest text that reads back as exactly \p V.
std::string number(double V) {
  char Buf[64];
  auto Res = std::to_chars(Buf, Buf + sizeof Buf, V);
  return std::string(Buf, Res.ptr);
}

std::string json(const Report &R) {
  std::string S = "{\"correct\": ";
  S += R.correct() ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(R.Attempted);
  S += ", \"failed\": " + std::to_string(R.Failed);
  S += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, M] : R.Metrics) {
    S += First ? "" : ", ";
    S += "\"" + Name + "\": {\"value\": " + number(M.Value) + ", \"unit\": \"" +
         M.Unit + "\"}";
    First = false;
  }
  return S + "}}";
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    std::string Val = Argv[++I];
    char *End = nullptr;
    if (Flag == "--print-expected") {
      if (Val == "kernels")
        printKernelAnswers(stdout);
      else if (Val == "verdicts")
        printVerdictAnswers(stdout);
      else
        return usage("--print-expected takes kernels or verdicts");
      return 0;
    }
    if (Flag == "--workload") {
      O.Workload = Val;
    } else if (Flag == "--seed") {
      O.Seed = std::strtoull(Val.c_str(), &End, 10);
      HaveSeed = *End == 0 && !Val.empty();
    } else if (Flag == "--seconds") {
      O.Seconds = std::strtod(Val.c_str(), &End);
      HaveSeconds = *End == 0 && O.Seconds > 0;
    } else if (Flag == "--trace") {
      HaveTrace = Val == "0" || Val == "1";
      O.Trace = Val == "1";
    } else if (Flag == "--expected") {
      O.ExpectedDir = Val;
    } else if (Flag == "--trace-out") {
      O.TraceOut = Val;
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace || O.ExpectedDir.empty())
    return usage("--seed, --seconds, --trace and --expected are required");

  Report R;
  if (O.Workload == "kernels")
    R = runKernels(O);
  else if (O.Workload == "verdicts")
    R = runVerdicts(O);
  else if (O.Workload == "traffic")
    R = runTraffic(O);
  else
    return usage(("unknown workload '" + O.Workload + "'").c_str());

  for (auto &[Name, M] : R.Metrics) {
    if (!std::isfinite(M.Value)) {
      failSetup(R, "metric " + Name + " is not a finite number");
      M.Value = 0; // Keep the JSON line valid; correct is now false.
    }
    std::fprintf(stderr, "%-44s %14.4f %s\n", Name.c_str(), M.Value,
                 M.Unit.c_str());
  }
  std::fprintf(stderr, "%s: %llu ops, %llu failed, %s\n", O.Workload.c_str(),
               static_cast<unsigned long long>(R.Attempted),
               static_cast<unsigned long long>(R.Failed),
               R.correct() ? "correct" : "NOT correct");
  if (R.Attempted == 0)
    return 1; // Setup failed before any op: there is no result to print.
  std::printf("%s\n", json(R).c_str());
  return R.correct() ? 0 : 1;
}
