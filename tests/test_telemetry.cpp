//===- tests/test_telemetry.cpp - telemetry layer unit tests ----------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer (docs/observability.md): histogram bucketing
/// edges, the zero-cost disabled mode (attaching telemetry must not
/// change a single deterministic counter), per-site profile determinism
/// and site-ID stability across builds, the facility probe-length
/// histogram on a crafted collision set, and the Chrome-trace export.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchJson.h"
#include "driver/Pipeline.h"
#include "ir/IRPrinter.h"
#include "runtime/HashTableMetadata.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

using namespace softbound;

namespace {

//===----------------------------------------------------------------------===//
// Histogram bucketing
//===----------------------------------------------------------------------===//

TEST(TelemetryHistogram, BucketEdges) {
  // Bucket 0 holds exactly the value 0; bucket B >= 1 holds
  // [2^(B-1), 2^B - 1].
  EXPECT_EQ(TelemetryHistogram::bucketFor(0), 0u);
  EXPECT_EQ(TelemetryHistogram::bucketFor(1), 1u);
  EXPECT_EQ(TelemetryHistogram::bucketFor(2), 2u);
  EXPECT_EQ(TelemetryHistogram::bucketFor(3), 2u);
  EXPECT_EQ(TelemetryHistogram::bucketFor(4), 3u);
  // Power-of-two boundaries, saturating into the open-ended last bucket.
  constexpr unsigned Last = TelemetryHistogram::NumBuckets - 1;
  for (unsigned K = 1; K < 63; ++K) {
    uint64_t Pow = uint64_t(1) << K;
    EXPECT_EQ(TelemetryHistogram::bucketFor(Pow - 1), std::min(K, Last))
        << "2^" << K << "-1";
    EXPECT_EQ(TelemetryHistogram::bucketFor(Pow), std::min(K + 1, Last))
        << "2^" << K;
  }
  // The last bucket is open-ended.
  EXPECT_EQ(TelemetryHistogram::bucketFor(UINT64_MAX),
            TelemetryHistogram::NumBuckets - 1);
  EXPECT_EQ(TelemetryHistogram::bucketHi(TelemetryHistogram::NumBuckets - 1),
            UINT64_MAX);
  // Lo/hi are consistent with bucketFor on every bucket boundary.
  for (unsigned B = 0; B < TelemetryHistogram::NumBuckets; ++B) {
    EXPECT_EQ(TelemetryHistogram::bucketFor(TelemetryHistogram::bucketLo(B)),
              B);
    EXPECT_EQ(TelemetryHistogram::bucketFor(TelemetryHistogram::bucketHi(B)),
              B);
  }
}

TEST(TelemetryHistogram, RecordAccumulates) {
  TelemetryHistogram H;
  for (uint64_t V : {0, 1, 1, 3, 8})
    H.record(V);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_EQ(H.sum(), 13u);
  EXPECT_EQ(H.max(), 8u);
  EXPECT_DOUBLE_EQ(H.mean(), 13.0 / 5.0);
  EXPECT_EQ(H.bucketCount(0), 1u); // 0
  EXPECT_EQ(H.bucketCount(1), 2u); // 1, 1
  EXPECT_EQ(H.bucketCount(2), 1u); // 3
  EXPECT_EQ(H.bucketCount(4), 1u); // 8
}

//===----------------------------------------------------------------------===//
// Shared workload
//===----------------------------------------------------------------------===//

// Pointer stores and loads (metadata traffic) plus a counted loop (a
// hull-hoisted guarded check), so every site kind shows up.
const char *ProfiledSource =
    "int main() {\n"
    "  int* p = (int*)malloc(64);\n"
    "  int** pp = (int**)malloc(8);\n"
    "  *pp = p;\n"
    "  int* q = *pp;\n"
    "  int s = 0;\n"
    "  for (int i = 0; i < 16; i++) { q[i] = i; s += q[i]; }\n"
    "  return s;\n"
    "}";

BuildResult buildInstrumented(Telemetry *T = nullptr) {
  PipelinePlan Plan;
  Plan.frontend(ProfiledSource).optimize().softbound().checkOpt();
  if (T)
    Plan.telemetry(T, "test:");
  BuildResult Prog = Plan.build();
  EXPECT_TRUE(Prog.ok()) << Prog.errorText();
  return Prog;
}

//===----------------------------------------------------------------------===//
// Zero-cost disabled mode
//===----------------------------------------------------------------------===//

TEST(Telemetry, DisabledModeIsObservationFree) {
  // The same build + run with and without a telemetry sink and a site
  // profile attached must agree on every deterministic counter — the
  // docs/observability.md zero-cost contract, and what keeps the CI
  // bench gate's baselines valid whether or not --profile is passed.
  BuildResult Plain = buildInstrumented();
  SessionResult SPlain = runSession(Plain);
  const RunResult &RPlain = SPlain.Combined;

  Telemetry Telem;
  SiteProfile Prof;
  BuildResult Observed = buildInstrumented(&Telem);
  RunRequest Opts;
  Opts.Telem = &Telem;
  Opts.ProfileOut = &Prof;
  Opts.TraceTag = "test:";
  SessionResult SObs = runSession(Observed, Opts);
  const RunResult &RObs = SObs.Combined;

  ASSERT_EQ(RPlain.Trap, RObs.Trap);
  EXPECT_EQ(RPlain.ExitCode, RObs.ExitCode);
  EXPECT_TRUE(RPlain.Counters.sameCounts(RObs.Counters));
  EXPECT_EQ(RPlain.Counters.MaxFrameDepth, RObs.Counters.MaxFrameDepth);
  EXPECT_GT(SObs.Meta.Lookups, 0u);
  EXPECT_EQ(SPlain.Meta.Lookups, SObs.Meta.Lookups);
  EXPECT_EQ(SPlain.Meta.Updates, SObs.Meta.Updates);

  // And the observed run actually observed something: every summed
  // counter is published under its `vm/` name.
#define EXPECT_VM_COUNTER_PUBLISHED(Name, Path)                                \
  EXPECT_EQ(Telem.counter("vm/" #Path), RObs.Counters.Name) << #Path;
  SOFTBOUND_VM_COUNTERS(EXPECT_VM_COUNTER_PUBLISHED)
#undef EXPECT_VM_COUNTER_PUBLISHED
  EXPECT_GT(Telem.counter("vm/checks"), 0u);
  EXPECT_FALSE(Telem.traceEvents().empty());
  uint64_t SiteExecuted = 0;
  for (const auto &SC : Prof.Sites)
    SiteExecuted += SC.Executed;
  EXPECT_GT(SiteExecuted, 0u);
}

//===----------------------------------------------------------------------===//
// Per-site IDs and profiles
//===----------------------------------------------------------------------===//

TEST(Telemetry, SiteIdsAreDeterministicAcrossBuilds) {
  BuildResult A = buildInstrumented();
  BuildResult B = buildInstrumented();
  const auto &SA = A.M->checkSites();
  const auto &SB = B.M->checkSites();
  ASSERT_FALSE(SA.empty());
  ASSERT_EQ(SA.size(), SB.size());
  for (size_t I = 0; I < SA.size(); ++I) {
    EXPECT_EQ(SA[I].Name, SB[I].Name) << "site " << I;
    EXPECT_EQ(SA[I].Kind, SB[I].Kind) << "site " << I;
    EXPECT_EQ(SA[I].Guarded, SB[I].Guarded) << "site " << I;
  }
  // Site names are "<function>#<ordinal>" and unique.
  std::set<std::string> Names;
  for (const auto &S : SA) {
    EXPECT_NE(S.Name.find('#'), std::string::npos) << S.Name;
    EXPECT_TRUE(Names.insert(S.Name).second) << "duplicate " << S.Name;
  }
  // Re-assignment is idempotent: IDs and table entries survive.
  size_t Before = SA.size();
  EXPECT_EQ(A.M->assignCheckSites(), Before);
  EXPECT_EQ(A.M->checkSites().size(), Before);
  for (size_t I = 0; I < Before; ++I)
    EXPECT_EQ(A.M->checkSites()[I].Name, SB[I].Name);
}

TEST(Telemetry, SiteProfilesAreIdenticalAcrossRuns) {
  BuildResult Prog = buildInstrumented();
  auto RunProfiled = [&] {
    SiteProfile P;
    RunRequest Opts;
    Opts.ProfileOut = &P;
    RunResult R = runSession(Prog, Opts).Combined;
    EXPECT_TRUE(R.ok()) << R.Message;
    return P.Sites;
  };
  std::vector<SiteCounters> R1 = RunProfiled();
  std::vector<SiteCounters> R2 = RunProfiled();
  ASSERT_EQ(R1.size(), R2.size());
  ASSERT_EQ(R1.size(), Prog.M->checkSites().size());
  for (size_t I = 0; I < R1.size(); ++I) {
    EXPECT_EQ(R1[I].Executed, R2[I].Executed) << "site " << I;
    EXPECT_EQ(R1[I].GuardElided, R2[I].GuardElided) << "site " << I;
    EXPECT_EQ(R1[I].FallbackFired, R2[I].FallbackFired) << "site " << I;
    EXPECT_EQ(R1[I].Traps, R2[I].Traps) << "site " << I;
  }
}

TEST(Telemetry, SiteTagsPrintAndStayStable) {
  BuildResult Prog = buildInstrumented();
  std::string Printed = printModule(*Prog.M);
  // Every assigned site appears as a ", site N" tag on its instruction,
  // and printing is stable (the IRPrinter golden-file contract).
  for (size_t I = 0; I < Prog.M->checkSites().size(); ++I)
    EXPECT_NE(Printed.find(", site " + std::to_string(I)),
              std::string::npos)
        << "site " << I << " missing from printed IR";
  EXPECT_EQ(Printed, printModule(*Prog.M));
}

//===----------------------------------------------------------------------===//
// Facility probe-length histogram
//===----------------------------------------------------------------------===//

TEST(Telemetry, HashProbeHistogramOnCraftedCollisions) {
  // hash() multiplies (Addr >> 3) by an odd constant and masks by the
  // table size, so addresses whose slot indices differ by a multiple of
  // the table size land in the same bucket: with a 2^16-entry table,
  // stride (2^16) << 3. Four such inserts then four lookups walk probe
  // chains of exactly 1, 2, 3, 4 slots — twice.
  HashTableMetadata M(16);
  Telemetry Telem;
  M.attachTelemetry(&Telem, "facility/hashtable");
  const TelemetryHistogram &H =
      Telem.histogram("facility/hashtable/probe_length");
  constexpr uint64_t Base = 0x4000'0000;
  constexpr uint64_t Stride = uint64_t(1) << 19;
  for (uint64_t I = 0; I < 4; ++I)
    M.update(Base + I * Stride, I, I + 64);
  for (uint64_t I = 0; I < 4; ++I)
    EXPECT_EQ(M.lookup(Base + I * Stride).Base, I);
  EXPECT_EQ(H.count(), 8u);
  EXPECT_EQ(H.sum(), 20u); // 2 * (1 + 2 + 3 + 4)
  EXPECT_EQ(H.max(), 4u);
  EXPECT_EQ(H.bucketCount(1), 2u); // probe length 1
  EXPECT_EQ(H.bucketCount(2), 4u); // lengths 2 and 3
  EXPECT_EQ(H.bucketCount(3), 2u); // length 4
  EXPECT_EQ(M.stats().Collisions, 12u); // 2 * (0 + 1 + 2 + 3)

  // flushTelemetry publishes the occupancy counters.
  M.flushTelemetry();
  EXPECT_EQ(Telem.counter("facility/hashtable/live_entries"), 4u);
  EXPECT_EQ(Telem.counter("facility/hashtable/table_entries"),
            uint64_t(1) << 16);

  // Detaching restores the disabled mode: no further recording.
  M.attachTelemetry(nullptr, "");
  M.lookup(Base);
  EXPECT_EQ(H.count(), 8u);
}

//===----------------------------------------------------------------------===//
// Trace export
//===----------------------------------------------------------------------===//

TEST(Telemetry, ChromeTraceJsonIsWellFormed) {
  Telemetry Telem;
  SiteProfile Prof;
  BuildResult Prog = buildInstrumented(&Telem);
  RunRequest Opts;
  Opts.Telem = &Telem;
  Opts.ProfileOut = &Prof;
  Opts.TraceTag = "test:";
  RunResult R = runSession(Prog, Opts).Combined;
  ASSERT_TRUE(R.ok()) << R.Message;

  // Pipeline timings flowed into the shared registry.
  EXPECT_FALSE(Telem.timersMs().empty());
  EXPECT_GT(Telem.timersMs().count("test:pass/softbound"), 0u);

  benchjson::JsonValue Doc;
  ASSERT_TRUE(benchjson::parseJson(Telem.chromeTraceJson(), Doc));
  const benchjson::JsonValue *Events = Doc.get("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_FALSE(Events->Arr.empty());
  bool SawPipeline = false, SawVM = false;
  for (const auto &E : Events->Arr) {
    ASSERT_TRUE(E.isObject());
    EXPECT_EQ(E.get("ph")->Str, "X");
    ASSERT_NE(E.get("cat"), nullptr);
    ASSERT_NE(E.get("name"), nullptr);
    ASSERT_TRUE(E.get("ts")->isNumber());
    ASSERT_TRUE(E.get("dur")->isNumber());
    if (E.get("cat")->Str == "pipeline") {
      SawPipeline = true;
      EXPECT_EQ(E.get("tid")->asInt(), Telemetry::TidPipeline);
    }
    if (E.get("cat")->Str == "vm") {
      SawVM = true;
      EXPECT_EQ(E.get("tid")->asInt(), Telemetry::TidVM);
      // VM timestamps are simulated cycles: the whole-run event's
      // duration is exactly the cycle count.
      if (E.get("name")->Str == "test:run:main") {
        EXPECT_EQ(static_cast<uint64_t>(E.get("dur")->asInt()),
                  R.Counters.Cycles);
      }
    }
  }
  EXPECT_TRUE(SawPipeline);
  EXPECT_TRUE(SawVM);
}

} // namespace
