//===- wallbench/src/Kernels.cpp - the Figure 2 kernels workload ----------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `kernels`: the 15 Figure 2 kernels, built once during setup. Each op is
/// one runSession of one kernel under one of three configurations — plain
/// `optimize`, or `optimize,softbound,checkopt` on the shadow or the hash
/// facility. A round runs all 45 (kernel, configuration) ops in a seeded
/// order; only whole rounds run, so every metric sees the same mix.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Workloads.h"

#include "workloads/Workloads.h"

using namespace wallbench;
using namespace softbound;

namespace {

/// Setup repetitions behind the median setup_s.
constexpr unsigned SetupRepeats = 7;

enum class Config { Plain, Shadow, Hash };
constexpr Config Configs[] = {Config::Plain, Config::Shadow, Config::Hash};

const char *configName(Config C) {
  return C == Config::Plain ? "plain" : C == Config::Shadow ? "shadow" : "hash";
}

RunRequest requestFor(Config C) {
  RunRequest Req;
  Req.Facility = C == Config::Hash ? FacilityKind::Hash : FacilityKind::Shadow;
  return Req;
}

struct KernelOp {
  unsigned Kernel;
  Config C;
};

/// Session times of one phase, by (kernel, configuration).
using Phase = OpTimes<std::pair<unsigned, Config>>;

struct Answer {
  int64_t Exit = 0;
  std::string Digest;
};

class KernelBench {
public:
  KernelBench(const Options &O, Report &R)
      : O(O), R(R), Suite(benchmarkSuite()) {}

  bool loadAnswers();
  /// Builds every kernel both ways (and, traced, layer by layer too), then
  /// warms up one session per configuration.
  void setup(Tracer *T, LayerStats *L);
  void round(unsigned N, Phase &P, Tracer *T, LayerStats *L);

  /// Σ simulated cycles of one round's instrumented sessions.
  double simMcycles() const;
  /// Σ C source of the suite, in KB.
  double sourceKb() const;
  unsigned selfChecked() const { return Checks.checked(); }

private:
  using Key = std::pair<unsigned, Config>;

  void runOp(const KernelOp &Op, Phase *P, Tracer *T, LayerStats *L);
  /// Why \p S is wrong, or "".
  std::string check(const KernelOp &Op, const SessionResult &S);

  const Options &O;
  Report &R;
  const std::vector<Workload> &Suite;
  std::vector<Answer> Answers;
  std::vector<BuildResult> Plain, Checked;           ///< PipelinePlan.
  std::vector<BuildResult> SplitPlain, SplitChecked; ///< tracedBuild.
  std::map<Key, uint64_t> Cycles;
  SelfCheck<Key> Checks;
  uint64_t OpId = 0;
};

bool KernelBench::loadAnswers() {
  std::vector<std::vector<std::string>> Rows;
  if (!readAnswers(O.ExpectedDir + "/kernels.txt", Rows)) {
    failSetup(R, "cannot read " + O.ExpectedDir + "/kernels.txt");
    return false;
  }
  Answers.assign(Suite.size(), Answer{});
  std::vector<bool> Seen(Suite.size());
  for (const auto &Row : Rows)
    for (size_t I = 0; I < Suite.size(); ++I)
      if (Row.size() == 3 && Row[0] == Suite[I].Name) {
        Answers[I] = Answer{std::stoll(Row[1]), Row[2]};
        Seen[I] = true;
      }
  for (size_t I = 0; I < Suite.size(); ++I)
    if (!Seen[I]) {
      failSetup(R, "kernels.txt has no answer for " + Suite[I].Name);
      return false;
    }
  return true;
}

void KernelBench::setup(Tracer *T, LayerStats *L) {
  auto Build = [&](std::vector<BuildResult> &Out, const char *Spec,
                   bool Split) {
    Out.clear();
    for (const Workload &W : Suite) {
      Out.push_back(Split ? tracedBuild(W.Source, Spec, *T, ++OpId, *L)
                          : planBuild(W.Source, Spec));
      if (!Out.back().ok())
        failSetup(R, W.Name + " (" + Spec + "): " + Out.back().errorText());
    }
  };
  Build(Plain, PlainSpec, false);
  Build(Checked, CheckedSpec, false);
  if (T) {
    Build(SplitPlain, PlainSpec, true);
    Build(SplitChecked, CheckedSpec, true);
  }
  if (!R.SetupOk)
    return;
  for (Config C : Configs)
    runOp({0, C}, nullptr, nullptr, nullptr);
}

void KernelBench::round(unsigned N, Phase &P, Tracer *T, LayerStats *L) {
  std::vector<KernelOp> Ops;
  for (unsigned K = 0; K < Suite.size(); ++K)
    for (Config C : Configs)
      Ops.push_back({K, C});
  auto Rng = roundRng(O.Seed, N);
  seededShuffle(Ops, Rng);
  for (const KernelOp &Op : Ops)
    runOp(Op, &P, T, L);
}

void KernelBench::runOp(const KernelOp &Op, Phase *P, Tracer *T,
                        LayerStats *L) {
  bool IsPlain = Op.C == Config::Plain;
  Key K{Op.Kernel, Op.C};
  RunRequest Req = requestFor(Op.C);
  SessionResult S;
  double Ms;
  if (T) {
    Scope Span(T, "op", ++OpId);
    S = tracedSession(IsPlain ? SplitPlain[Op.Kernel] : SplitChecked[Op.Kernel],
                      Req, *T, OpId, *L);
    Ms = Span.stop();
  } else {
    auto T0 = Clock::now();
    S = runSession(IsPlain ? Plain[Op.Kernel] : Checked[Op.Kernel], Req);
    Ms = msSince(T0);
  }
  ++R.Attempted;
  if (P)
    P->add(K, Ms);
  std::string Err = check(Op, S);
  if (Err.empty() && O.Trace && P)
    Err = Checks.add(K, S, T != nullptr,
                     Suite[Op.Kernel].Name + "/" + configName(Op.C));
  if (!Err.empty())
    failOp(R, Err);
}

std::string KernelBench::check(const KernelOp &Op, const SessionResult &S) {
  const Answer &A = Answers[Op.Kernel];
  const RunResult &Run = S.Combined;
  std::string Name = Suite[Op.Kernel].Name + "/" + configName(Op.C);
  if (!Run.ok())
    return Name + ": trapped (" + trapName(Run.Trap) + ")";
  if (Run.ExitCode != A.Exit)
    return Name + ": exit " + std::to_string(Run.ExitCode) + ", expected " +
           std::to_string(A.Exit);
  if (digest(Run.Output) != A.Digest)
    return Name + ": output digest " + digest(Run.Output) + ", expected " +
           A.Digest;
  if (Op.C == Config::Plain)
    return "";
  // The simulated cost is deterministic: every session of a key must
  // charge exactly the cycles its first one did.
  auto [It, New] = Cycles.emplace(Key{Op.Kernel, Op.C}, Run.Counters.Cycles);
  if (!New && It->second != Run.Counters.Cycles)
    return Name + ": " + std::to_string(Run.Counters.Cycles) +
           " simulated cycles, earlier " + std::to_string(It->second);
  return "";
}

double KernelBench::simMcycles() const {
  uint64_t Sum = 0;
  for (const auto &[K, C] : Cycles)
    Sum += C;
  return static_cast<double>(Sum) / 1e6;
}

double KernelBench::sourceKb() const {
  double Bytes = 0;
  for (const Workload &W : Suite)
    Bytes += static_cast<double>(W.Source.size());
  return Bytes / 1024.0;
}

} // namespace

Report wallbench::runKernels(const Options &O) {
  Report R;
  KernelBench B(O, R);
  if (!B.loadAnswers())
    return R;

  if (!O.Trace) {
    double SetupS =
        timedSetup(SetupRepeats, [&] { B.setup(nullptr, nullptr); });
    if (!R.SetupOk)
      return R;
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
  timedSetup(SetupRepeats, [&] { B.setup(&T, &L); });
  if (!R.SetupOk)
    return R;
  Phase Untraced, Traced;
  // Untraced and traced rounds alternate, so both see the same host.
  forRounds(O.Seconds, [&](unsigned N) {
    B.round(2 * N, Untraced, nullptr, nullptr);
    B.round(2 * N + 1, Traced, &T, &L);
  });

  reportLayers(R, L, SetupRepeats);
  R.set("workloads.source_kb", B.sourceKb(), "KB");
  R.set("trace.selfcheck_sessions", B.selfChecked(), "count");
  reportTrace(R, T, O, Untraced.opMs(), Traced.opMs());
  return R;
}

void wallbench::printKernelAnswers(std::FILE *Out) {
  std::fprintf(Out, "# kernel exit_code output_fnv1a64: plain `%s` session; "
                    "instrumented sessions must match\n",
               PlainSpec);
  for (const Workload &W : benchmarkSuite()) {
    SessionResult S = runSession(planBuild(W.Source, PlainSpec));
    std::fprintf(Out, "%s %lld %s\n", W.Name.c_str(),
                 static_cast<long long>(S.Combined.ExitCode),
                 digest(S.Combined.Output).c_str());
  }
}
