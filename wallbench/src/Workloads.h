//===- wallbench/src/Workloads.h - the benchmark workloads ------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload sets up, then runs whole rounds of ops for the requested
/// time, checks every op, and reports its metrics: end-to-end ones from an
/// untraced run, per-layer ones (plus tracing overhead) when O.Trace is
/// set. A traced run alternates untraced and traced rounds.
///
//===----------------------------------------------------------------------===//

#ifndef WALLBENCH_WORKLOADS_H
#define WALLBENCH_WORKLOADS_H

#include "Common.h"

#include <cstdio>

namespace wallbench {

Report runKernels(const Options &O);
Report runVerdicts(const Options &O);
Report runTraffic(const Options &O);

/// Print the answer files (expected/kernels.txt, expected/verdicts.txt) as
/// the current tree computes them.
void printKernelAnswers(std::FILE *Out);
void printVerdictAnswers(std::FILE *Out);

/// Runs whole rounds, numbered from 0, until \p Seconds have passed
/// (always at least one).
template <typename F> void forRounds(double Seconds, F &&Round) {
  auto T0 = Clock::now();
  unsigned N = 0;
  do
    Round(N++);
  while (msSince(T0) < Seconds * 1000.0);
}

/// Seeded generator for round \p Round's op order.
inline std::mt19937_64 roundRng(uint64_t Seed, unsigned Round) {
  return std::mt19937_64(Seed * 0x9e3779b97f4a7c15ULL + Round);
}

} // namespace wallbench

#endif // WALLBENCH_WORKLOADS_H
