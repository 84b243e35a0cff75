//===- wallbench/src/Verdicts.cpp - the time-to-verdict workload ----------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `verdicts`: the 18 Table 3 attacks, the 4 Table 4 BugBench kernels,
/// and the HTTP and FTP single-shot servers with the vulnerability flag
/// set and clear, each under the shadow and the hash facility. An op is
/// one time to verdict — build `optimize,softbound,checkopt`, then
/// runSession — and its verdict must match expected/verdicts.txt. A round
/// runs all 52 ops in a seeded order.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Workloads.h"

#include "workloads/Workloads.h"

using namespace wallbench;
using namespace softbound;

namespace {

/// Setup repetitions behind the median setup_s.
constexpr unsigned SetupRepeats = 9;

struct Program {
  std::string Name;
  std::string Source;
  std::vector<int64_t> Args;
};

constexpr FacilityKind Facilities[] = {FacilityKind::Shadow,
                                       FacilityKind::Hash};

const char *facilityName(FacilityKind K) {
  return K == FacilityKind::Shadow ? "shadow" : "hash";
}

std::vector<Program> programs() {
  std::vector<Program> P;
  for (const AttackCase &A : attackSuite())
    P.push_back({A.Name, A.Source, {}});
  for (const BugCase &B : bugbenchSuite())
    P.push_back({B.Name, B.Source, {}});
  for (int Vuln : {1, 0}) {
    std::string Flag = "-vuln" + std::to_string(Vuln);
    P.push_back({"http" + Flag, httpServerSource(), {Vuln}});
    P.push_back({"ftp" + Flag, ftpServerSource(), {Vuln}});
  }
  return P;
}

/// "detected:<trap>" when a spatial check stopped the run, "clean:<exit>"
/// for a normal exit, "trap:<trap>" otherwise.
std::string verdictOf(const RunResult &R) {
  if (R.violationDetected() && !R.attackLanded())
    return std::string("detected:") + trapName(R.Trap);
  if (R.ok())
    return "clean:" + std::to_string(R.ExitCode);
  return std::string("trap:") + trapName(R.Trap);
}

RunRequest requestFor(const Program &P, FacilityKind K) {
  RunRequest Req;
  Req.Facility = K;
  Req.Args = P.Args;
  return Req;
}

struct VerdictOp {
  unsigned Program;
  FacilityKind Facility;

  std::pair<unsigned, FacilityKind> key() const { return {Program, Facility}; }
};

/// Times to verdict of one phase, by (program, facility).
using Phase = OpTimes<std::pair<unsigned, FacilityKind>>;

class VerdictBench {
public:
  VerdictBench(const Options &O, Report &R) : O(O), R(R) {}

  bool loadAnswers();
  /// Input generation and one warm-up op per facility.
  void setup();
  void round(unsigned N, Phase &P, Tracer *T, LayerStats *L);
  size_t opsPerRound() const { return Progs.size() * std::size(Facilities); }
  unsigned selfChecked() const { return Checks.checked(); }

  /// Σ simulated cycles of one round's sessions.
  double simMcycles() const;
  /// Σ C source of one round's programs (one facility), in KB.
  double sourceKb() const;

private:
  void runOp(const VerdictOp &Op, Phase *P, Tracer *T, LayerStats *L);

  const Options &O;
  Report &R;
  std::vector<Program> Progs;
  std::map<std::string, std::string> Expected; ///< "name/facility" -> verdict.
  std::map<std::pair<unsigned, FacilityKind>, uint64_t> Cycles;
  SelfCheck<std::pair<unsigned, FacilityKind>> Checks;
  uint64_t OpId = 0;
};

bool VerdictBench::loadAnswers() {
  std::vector<std::vector<std::string>> Rows;
  if (!readAnswers(O.ExpectedDir + "/verdicts.txt", Rows)) {
    failSetup(R, "cannot read " + O.ExpectedDir + "/verdicts.txt");
    return false;
  }
  for (const auto &Row : Rows)
    if (Row.size() == 3)
      Expected[Row[0] + "/" + Row[1]] = Row[2];
  for (const Program &P : programs())
    for (FacilityKind K : Facilities)
      if (!Expected.count(P.Name + "/" + facilityName(K))) {
        failSetup(R, "verdicts.txt has no answer for " + P.Name + "/" +
                         facilityName(K));
        return false;
      }
  return true;
}

void VerdictBench::setup() {
  Progs = programs();
  for (FacilityKind K : Facilities)
    runOp({0, K}, nullptr, nullptr, nullptr);
}

void VerdictBench::round(unsigned N, Phase &P, Tracer *T, LayerStats *L) {
  std::vector<VerdictOp> Ops;
  for (unsigned I = 0; I < Progs.size(); ++I)
    for (FacilityKind K : Facilities)
      Ops.push_back({I, K});
  auto Rng = roundRng(O.Seed, N);
  seededShuffle(Ops, Rng);
  for (const VerdictOp &Op : Ops)
    runOp(Op, &P, T, L);
}

void VerdictBench::runOp(const VerdictOp &Op, Phase *P, Tracer *T,
                         LayerStats *L) {
  const Program &Prog = Progs[Op.Program];
  RunRequest Req = requestFor(Prog, Op.Facility);
  SessionResult S;
  double Ms;
  {
    Scope Span(T, "op", ++OpId);
    BuildResult Built =
        T ? tracedBuild(Prog.Source, CheckedSpec, *T, OpId, *L)
          : planBuild(Prog.Source, CheckedSpec);
    if (Built.ok())
      S = T ? tracedSession(Built, Req, *T, OpId, *L) : runSession(Built, Req);
    else
      S.Combined.Message = Built.errorText();
    Ms = Span.stop();
  }
  ++R.Attempted;
  if (P)
    P->add(Op.key(), Ms);
  std::string Name = Prog.Name + "/" + facilityName(Op.Facility);
  std::string Got = S.PerLane.empty() ? "build-failed" : verdictOf(S.Combined);
  std::string Err;
  if (Got != Expected[Name]) {
    Err = Name + ": verdict " + Got + ", expected " + Expected[Name] + " " +
          S.Combined.Message;
  } else {
    // The simulated cost is deterministic: every session of a key must
    // charge exactly the cycles its first one did.
    uint64_t Cyc = S.Combined.Counters.Cycles;
    auto [It, New] = Cycles.emplace(Op.key(), Cyc);
    if (!New && It->second != Cyc)
      Err = Name + ": " + std::to_string(Cyc) + " simulated cycles, earlier " +
            std::to_string(It->second);
  }
  if (Err.empty() && O.Trace && P)
    Err = Checks.add(Op.key(), S, T != nullptr, Name);
  if (!Err.empty())
    failOp(R, Err);
}

double VerdictBench::simMcycles() const {
  uint64_t Sum = 0;
  for (const auto &[K, C] : Cycles)
    Sum += C;
  return static_cast<double>(Sum) / 1e6;
}

double VerdictBench::sourceKb() const {
  double Bytes = 0;
  for (const Program &P : Progs)
    Bytes += static_cast<double>(P.Source.size());
  return Bytes / 1024.0;
}

} // namespace

Report wallbench::runVerdicts(const Options &O) {
  Report R;
  VerdictBench B(O, R);
  if (!B.loadAnswers())
    return R;
  double SetupS = timedSetup(SetupRepeats, [&] { B.setup(); });
  if (!R.SetupOk)
    return R;

  if (!O.Trace) {
    Phase P;
    forRounds(O.Seconds, [&](unsigned N) { B.round(N, P, nullptr, nullptr); });
    R.set("setup_s", SetupS, "s");
    R.set("op_ms", P.opMs(), "ms");
    R.set("sim_mcycles", B.simMcycles(), "Mcycles");
    R.set("peak_rss_mb", peakRssMb(), "MB");
    return R;
  }

  Tracer T;
  LayerStats L;
  Phase Untraced, Traced;
  // Untraced and traced rounds alternate, so both see the same host.
  forRounds(O.Seconds, [&](unsigned N) {
    B.round(2 * N, Untraced, nullptr, nullptr);
    B.round(2 * N + 1, Traced, &T, &L);
  });
  reportLayers(R, L, static_cast<double>(L.Builds) / B.opsPerRound());
  R.set("workloads.source_kb", B.sourceKb(), "KB");
  R.set("trace.selfcheck_sessions", B.selfChecked(), "count");
  reportTrace(R, T, O, Untraced.opMs(), Traced.opMs());
  return R;
}

void wallbench::printVerdictAnswers(std::FILE *Out) {
  std::fprintf(Out, "# program facility verdict: `%s` build, one session\n",
               CheckedSpec);
  for (const Program &P : programs())
    for (FacilityKind K : Facilities) {
      SessionResult S = runSession(planBuild(P.Source, CheckedSpec),
                                   requestFor(P, K));
      std::fprintf(Out, "%s %s %s\n", P.Name.c_str(), facilityName(K),
                   verdictOf(S.Combined).c_str());
    }
}
