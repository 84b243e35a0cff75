//===- examples/webserver_hardening.cpp - §6.4 in practice -----------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The production-deployment scenario the paper motivates: take a network
/// server as-is (no source changes), transform it with SoftBound, and
/// compare the two checking modes. Full checking for testing; store-only
/// for production — it still stops the attack (every exploit needs an
/// out-of-bounds write) at a fraction of the overhead.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace softbound;

int main() {
  std::printf("== Hardening a web server with SoftBound ==\n\n");
  std::string Src = httpServerSource();

  // Benign traffic, three build pipelines: the deployment choice is just
  // a different pipeline spec over the unmodified source.
  PipelinePlan Stock, Full, Store;
  std::string Err;
  if (!Stock.frontend(Src).appendSpec("optimize", &Err) ||
      !Full.frontend(Src).appendSpec("optimize,softbound,checkopt", &Err) ||
      !Store.frontend(Src).appendSpec("optimize,softbound(store-only),checkopt",
                                      &Err)) {
    std::fprintf(stderr, "bad pipeline spec: %s\n", Err.c_str());
    return 1;
  }

  RunRequest Traffic;
  Traffic.Args = {0};

  RunResult Plain = runSession(Stock, Traffic).Combined;
  std::printf("1. stock server:       %llu cycles, %d requests OK\n",
              static_cast<unsigned long long>(Plain.Counters.Cycles),
              Plain.ExitCode == 0 ? 120 : 0);

  RunResult F = runSession(Full, Traffic).Combined;
  std::printf("2. full checking:      %llu cycles (%.1f%% overhead), "
              "output identical: %s\n",
              static_cast<unsigned long long>(F.Counters.Cycles),
              100.0 * (double(F.Counters.Cycles) /
                           double(Plain.Counters.Cycles) -
                       1.0),
              F.Output == Plain.Output ? "yes" : "NO");

  RunResult S = runSession(Store, Traffic).Combined;
  std::printf("3. store-only (prod):  %llu cycles (%.1f%% overhead), "
              "output identical: %s\n\n",
              static_cast<unsigned long long>(S.Counters.Cycles),
              100.0 * (double(S.Counters.Cycles) /
                           double(Plain.Counters.Cycles) -
                       1.0),
              S.Output == Plain.Output ? "yes" : "NO");

  // Now the attack: a request whose query string overflows a fixed buffer
  // through an unbounded strcpy (the vulnerable code path).
  RunRequest Attack;
  Attack.Args = {1};
  RunResult Hit = runSession(Stock, Attack).Combined;
  std::printf("attack vs stock server:      trap=%s (exploitable "
              "corruption)\n",
              trapName(Hit.Trap));
  RunResult Blocked = runSession(Store, Attack).Combined;
  std::printf("attack vs store-only server: trap=%s\n  %s\n",
              trapName(Blocked.Trap), Blocked.Message.c_str());

  return Blocked.violationDetected() ? 0 : 1;
}
