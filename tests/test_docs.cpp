//===- tests/test_docs.cpp - documentation drift gate -----------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Keeps docs/ from rotting: the pass and knob tables in docs/pipeline.md
/// (between `<!-- drift:... -->` markers) must name exactly the passes
/// and knobs the live PassRegistry exposes, in both directions — a pass
/// or knob added, renamed, or removed without a doc update fails here,
/// and a documented name that no longer parses fails too. Also pins the
/// README-defers-to-docs structure.
///
//===----------------------------------------------------------------------===//

#include "driver/PassManager.h"
#include "runtime/MetadataFacility.h"
#include "support/Telemetry.h"
#include "vm/VM.h"

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

using namespace softbound;

namespace {

#ifndef SB_SOURCE_DIR
#error "SB_SOURCE_DIR must point at the repository root"
#endif

std::string readFile(const std::string &Rel) {
  std::ifstream In(std::string(SB_SOURCE_DIR) + "/" + Rel);
  EXPECT_TRUE(In.good()) << "cannot open " << Rel;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// The lines between `<!-- drift:Tag -->` and the next `<!-- /drift` line.
std::vector<std::string> driftRegion(const std::string &Doc,
                                     const std::string &Tag) {
  std::string Open = "<!-- drift:" + Tag + " -->";
  size_t B = Doc.find(Open);
  if (B == std::string::npos)
    return {};
  B += Open.size();
  size_t E = Doc.find("<!-- /drift", B);
  if (E == std::string::npos)
    return {};
  std::vector<std::string> Lines;
  std::istringstream SS(Doc.substr(B, E - B));
  for (std::string Line; std::getline(SS, Line);)
    Lines.push_back(Line);
  return Lines;
}

/// First-column backticked identifier of a markdown table row, or "".
std::string firstCell(const std::string &Line) {
  size_t Tick = Line.find("| `");
  if (Tick != 0)
    return "";
  size_t B = Line.find('`') + 1;
  size_t E = Line.find('`', B);
  if (E == std::string::npos)
    return "";
  return Line.substr(B, E - B);
}

std::set<std::string> firstColumn(const std::vector<std::string> &Region) {
  std::set<std::string> Names;
  for (const auto &Line : Region) {
    std::string N = firstCell(Line);
    if (!N.empty())
      Names.insert(N);
  }
  return Names;
}

std::string joined(const std::set<std::string> &S) {
  std::string Out;
  for (const auto &N : S)
    Out += N + " ";
  return Out;
}

TEST(DocsDrift, PassTableMatchesRegistry) {
  std::string Doc = readFile("docs/pipeline.md");
  std::set<std::string> Documented = firstColumn(driftRegion(Doc, "passes"));
  ASSERT_FALSE(Documented.empty())
      << "docs/pipeline.md lost its drift:passes table";

  std::set<std::string> Registered;
  for (const auto &N : PassRegistry::global().names())
    Registered.insert(N);

  EXPECT_EQ(Documented, Registered)
      << "docs/pipeline.md pass table != PassRegistry\n  documented: "
      << joined(Documented) << "\n  registered: " << joined(Registered);
}

TEST(DocsDrift, KnobTablesMatchRegistry) {
  std::string Doc = readFile("docs/pipeline.md");
  // Every pass that accepts knobs must have a drift-checked knob table,
  // and each table must name exactly the registry's knob list.
  for (const auto &Name : PassRegistry::global().names()) {
    const PassRegistry::Entry *E = PassRegistry::global().lookup(Name);
    ASSERT_NE(E, nullptr) << Name;
    std::set<std::string> Documented =
        firstColumn(driftRegion(Doc, "knobs " + Name));
    if (E->Knobs.empty()) {
      EXPECT_TRUE(Documented.empty())
          << Name << " takes no knobs but has a knob table";
      continue;
    }
    std::set<std::string> Registered(E->Knobs.begin(), E->Knobs.end());
    EXPECT_EQ(Documented, Registered)
        << "docs/pipeline.md '" << Name
        << "' knob table != registry\n  documented: " << joined(Documented)
        << "\n  registered: " << joined(Registered);
  }
}

TEST(DocsDrift, DocumentedCheckOptKnobsActuallyParse) {
  // The registry's knob *list* is only diagnostics; tie each documented
  // knob to the real CheckOptConfig parser by constructing a pass with
  // it. A doc'd knob the parser rejects — or a phantom knob it accepts —
  // is drift of the worst kind.
  std::string Doc = readFile("docs/pipeline.md");
  for (const auto &Knob : firstColumn(driftRegion(Doc, "knobs checkopt"))) {
    std::string Err;
    auto P = PassRegistry::global().create("checkopt", {Knob}, Err);
    EXPECT_NE(P, nullptr) << "documented checkopt knob '" << Knob
                          << "' no longer parses: " << Err;
  }
  std::string Err;
  EXPECT_EQ(PassRegistry::global().create("checkopt", {"no-such-knob"}, Err),
            nullptr);
}

TEST(DocsDrift, ReadmeDefersToDocs) {
  std::string Readme = readFile("README.md");
  EXPECT_NE(Readme.find("docs/pipeline.md"), std::string::npos)
      << "README must point at the pipeline doc";
  EXPECT_NE(Readme.find("docs/checkopt.md"), std::string::npos)
      << "README must point at the check-optimization doc";
  // The README stays a map, not a book.
  size_t Lines = static_cast<size_t>(
      std::count(Readme.begin(), Readme.end(), '\n'));
  EXPECT_LE(Lines, 200u) << "README.md grew past ~200 lines; move the "
                            "content into docs/ instead";

  // The subsystem book documents every checkopt knob by name.
  std::string Book = readFile("docs/checkopt.md");
  const PassRegistry::Entry *E = PassRegistry::global().lookup("checkopt");
  ASSERT_NE(E, nullptr);
  for (const auto &Knob : E->Knobs) {
    if (Knob != "none") {
      EXPECT_NE(Book.find("`" + Knob + "`"), std::string::npos)
          << "docs/checkopt.md no longer mentions knob '" << Knob << "'";
    }
  }
  // SAFE elision is a pass of its own, not a checkopt knob.
  EXPECT_NE(Book.find("`safe-elision`"), std::string::npos)
      << "docs/checkopt.md no longer mentions the safe-elision pass";
}

TEST(DocsDrift, RuntimeDocCurrent) {
  std::string Readme = readFile("README.md");
  EXPECT_NE(Readme.find("docs/runtime.md"), std::string::npos)
      << "README must point at the runtime doc";

  // The runtime book names the live surface: the session API, the
  // facility range operations, the stripe core, the simulated address
  // space, and the bench flags.
  std::string Doc = readFile("docs/runtime.md");
  for (const char *Needle :
       {"runSession", "RunRequest", "SessionResult", "FacilityOptions",
        "clearRange", "copyRange", "StripedFacility", "--lanes",
        "--shards", "--lockfree", "SessionResult::Meta", "test_concurrency.cpp",
        "LockFreeRead", "LockFreeReads", "StripeSeqlock", "SeqlockRetryCost",
        "SeqlockReads", "SeqlockRetries",
        // Traffic tier: builtins, sample plumbing, per-request keys.
        "sb_guard", "sb_request_end", "RequestSample", "TrafficSchedule",
        "TrafficReport", "checks_per_request", "sim_cost_per_request",
        "test_traffic.cpp", "--requests",
        // Simulated address space: demand-zero segments, global refusal.
        "MAP_NORESERVE", "global segment exhausted",
        // Interpreter: the decoded form and the step-limit rule.
        "DecodedFunction", "StepLimit", "Insts == N + 1"})
    EXPECT_NE(Doc.find(Needle), std::string::npos)
        << "docs/runtime.md no longer mentions '" << Needle << "'";

  // Constants quoted in the doc track the code: the stripe size (whose
  // equality with one shadow page ShadowSpaceMetadata static_asserts)
  // and the lock prices in the drift-marked cost table.
  EXPECT_NE(Doc.find("2^" + std::to_string(ShardStripeLog2) + "-byte"),
            std::string::npos)
      << "docs/runtime.md stripe size drifted from ShardStripeLog2";
  EXPECT_NE(Doc.find("`MaxLanesOrShards = " +
                     std::to_string(MaxLanesOrShards) + "`"),
            std::string::npos)
      << "docs/runtime.md lane/shard cap drifted from MaxLanesOrShards";
  std::vector<std::string> Costs = driftRegion(Doc, "lock-costs");
  ASSERT_FALSE(Costs.empty())
      << "docs/runtime.md lost its drift:lock-costs table";
  auto RowHas = [&Costs](const std::string &Row, uint64_t Price) {
    for (const auto &Line : Costs)
      if (Line.find("| " + Row + " |") != std::string::npos &&
          Line.find("| " + std::to_string(Price) + " |") != std::string::npos)
        return true;
    return false;
  };
  EXPECT_TRUE(RowHas("uncontended", UncontendedLockCost))
      << "docs/runtime.md uncontended price drifted from "
         "UncontendedLockCost";
  EXPECT_TRUE(RowHas("contended", ContendedLockCost))
      << "docs/runtime.md contended price drifted from ContendedLockCost";
  EXPECT_TRUE(RowHas("seqlock retry", SeqlockRetryCost))
      << "docs/runtime.md seqlock retry price drifted from SeqlockRetryCost";
}

TEST(DocsDrift, ObservabilityDocCurrent) {
  std::string Readme = readFile("README.md");
  EXPECT_NE(Readme.find("docs/observability.md"), std::string::npos)
      << "README must point at the observability doc";

  // The telemetry book names the live surface: bench flags, the site-tag
  // instruction, the probe histogram path.
  std::string Doc = readFile("docs/observability.md");
  for (const char *Needle :
       {"--profile", "--trace", "spatial.check", "probe_length",
        "assignCheckSites", "writeChromeTrace"})
    EXPECT_NE(Doc.find(Needle), std::string::npos)
        << "docs/observability.md no longer mentions '" << Needle << "'";

  // Constants quoted in the doc track the code: the histogram bucket
  // count and the trace lane IDs.
  EXPECT_NE(
      Doc.find(std::to_string(TelemetryHistogram::NumBuckets) + " buckets"),
      std::string::npos)
      << "docs/observability.md bucket count drifted from "
         "TelemetryHistogram::NumBuckets";
  EXPECT_NE(Doc.find("| " + std::to_string(Telemetry::TidPipeline) +
                     " | `pipeline` |"),
            std::string::npos)
      << "docs/observability.md pipeline lane drifted from "
         "Telemetry::TidPipeline";
  EXPECT_NE(Doc.find("| " + std::to_string(Telemetry::TidVM) + " | `vm` |"),
            std::string::npos)
      << "docs/observability.md vm lane drifted from Telemetry::TidVM";

  // Every counter VMExec::run publishes, from the list that generates
  // them.
#define SOFTBOUND_VM_COUNTER_DOCUMENTED(Name, Path)                            \
  EXPECT_NE(Doc.find("`vm/" #Path "`"), std::string::npos)                     \
      << "docs/observability.md does not list vm/" #Path;
  SOFTBOUND_VM_COUNTERS(SOFTBOUND_VM_COUNTER_DOCUMENTED)
#undef SOFTBOUND_VM_COUNTER_DOCUMENTED
}

} // namespace
