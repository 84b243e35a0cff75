//===- wallbench/src/Traffic.cpp - the sustained-traffic workload ---------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `traffic`: one seeded HTTP and one seeded FTP TrafficSchedule, driven
/// through the vulnerable handlers under `optimize,softbound,checkopt` on
/// the shadow facility. An op is one session of a whole schedule; ops
/// alternate between 1-lane sessions and 2-lane sessions (the default
/// RunRequest with Lanes = 2, FacilityShards = 2). A round is one session
/// of each (server, lane count), in a seeded server order.
///
/// Every lane must trap every adversarial request and no benign one. A
/// 1-lane session must also exit 0 and print exactly the responses the
/// uninstrumented build prints for the benign requests. Lanes share the
/// servers' globals, so 2-lane output is not compared.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Workloads.h"

#include "runtime/ShadowSpaceMetadata.h"
#include "workloads/Traffic.h"

using namespace wallbench;
using namespace softbound;

namespace {

/// Requests per schedule: enough that VM setup is a small part of a
/// session.
constexpr unsigned RequestsPerSchedule = 8000;

/// Setup repetitions behind the median setup_s (each builds and runs both
/// uninstrumented references).
constexpr unsigned SetupRepeats = 5;

constexpr ServerKind Kinds[] = {ServerKind::Http, ServerKind::Ftp};

struct Server {
  TrafficSchedule Sched;
  std::string Source;
  BuildResult Checked, SplitChecked;
  std::string ExpectedOutput; ///< Plain responses to the benign requests.
};

struct TrafficOp {
  unsigned Server;
  unsigned Lanes;
};

/// Session times of one phase, by (server, lanes).
using Phase = OpTimes<std::pair<unsigned, unsigned>>;

/// Splits \p S into lines, keeping each line's '\n'.
std::vector<std::string> lines(const std::string &S) {
  std::vector<std::string> L;
  size_t B = 0;
  while (B < S.size()) {
    size_t E = S.find('\n', B);
    E = E == std::string::npos ? S.size() : E + 1;
    L.push_back(S.substr(B, E - B));
    B = E;
  }
  return L;
}

class TrafficBench {
public:
  TrafficBench(const Options &O, Report &R) : O(O), R(R) {}

  /// Generates both schedules, builds them, and runs the uninstrumented
  /// builds once for the reference responses (which also warms the VM).
  void setup(Tracer *T, LayerStats *L);
  void round(unsigned N, Phase &P, Tracer *T, LayerStats *L);

  /// Σ simulated cycles of one 1-lane session per server.
  double simMcycles() const;

  double DriverKb = 0; ///< Σ generated driver source.
  SelfCheck<std::pair<unsigned, unsigned>> Checks;

private:
  void runOp(const TrafficOp &Op, Phase &P, Tracer *T, LayerStats *L);

  const Options &O;
  Report &R;
  std::vector<Server> Servers;
  ShadowSpaceMetadata Prices;          ///< Prices of metadata ops.
  std::map<unsigned, uint64_t> Cycles; ///< 1-lane session cycles by server.
  uint64_t OpId = 0;
};

void TrafficBench::setup(Tracer *T, LayerStats *L) {
  Servers.clear();
  uint64_t SetupOp = ++OpId;
  for (ServerKind K : Kinds) {
    Server S;
    {
      Scope Span(T, "schedule", SetupOp);
      TrafficConfig Cfg;
      Cfg.Seed = O.Seed;
      Cfg.Requests = RequestsPerSchedule;
      S.Sched = TrafficSchedule::generate(K, Cfg);
      S.Source = S.Sched.driverSource(/*Vuln=*/true);
    }
    S.Checked = planBuild(S.Source, CheckedSpec);
    if (T)
      S.SplitChecked = tracedBuild(S.Source, CheckedSpec, *T, SetupOp, *L);
    BuildResult Plain = planBuild(S.Source, PlainSpec);
    std::string Name = serverKindName(K);
    if (!S.Checked.ok() || !Plain.ok() || (T && !S.SplitChecked.ok()))
      return failSetup(R, Name + " driver does not build: " +
                              S.Checked.errorText() + Plain.errorText());

    SessionResult Ref = runSession(Plain);
    std::vector<std::string> Resp = lines(Ref.Combined.Output);
    if (!Ref.ok() || Resp.size() != S.Sched.Requests.size())
      return failSetup(R, Name + " reference run printed " +
                              std::to_string(Resp.size()) + " responses for " +
                              std::to_string(S.Sched.Requests.size()) +
                              " requests");
    for (size_t I = 0; I < Resp.size(); ++I)
      if (!S.Sched.Requests[I].Adversarial)
        S.ExpectedOutput += Resp[I];
    Servers.push_back(std::move(S));
  }
  DriverKb = 0;
  for (const Server &S : Servers)
    DriverKb += static_cast<double>(S.Source.size()) / 1024.0;
}

void TrafficBench::round(unsigned N, Phase &P, Tracer *T, LayerStats *L) {
  std::vector<unsigned> One = {0, 1}, Two = {0, 1};
  auto Rng = roundRng(O.Seed, N);
  seededShuffle(One, Rng);
  seededShuffle(Two, Rng);
  for (unsigned I = 0; I < 2; ++I) {
    runOp({One[I], 1}, P, T, L);
    runOp({Two[I], 2}, P, T, L);
  }
}

void TrafficBench::runOp(const TrafficOp &Op, Phase &P, Tracer *T,
                         LayerStats *L) {
  const Server &Srv = Servers[Op.Server];
  RunRequest Req;
  Req.Lanes = Op.Lanes;
  Req.FacilityShards = Op.Lanes;
  SessionResult S;
  double Ms;
  {
    Scope Span(T, "op", ++OpId);
    S = T ? tracedSession(Srv.SplitChecked, Req, *T, OpId, *L)
          : runSession(Srv.Checked, Req);
    Ms = Span.stop();
  }
  ++R.Attempted;

  std::string Name = std::string(serverKindName(Srv.Sched.Kind)) + "/" +
                     std::to_string(Op.Lanes) + "-lane";
  uint64_t Want = Srv.Sched.Requests.size();
  std::string Err;
  if (S.PerLane.size() != Op.Lanes)
    Err = Name + ": " + std::to_string(S.PerLane.size()) + " lanes ran";
  for (size_t I = 0; I < S.PerLane.size(); ++I) {
    TrafficReport Rep = TrafficReport::fromSamples(
        Srv.Sched.Requests, S.PerLane[I].Requests, Prices.lookupCost(),
        Prices.updateCost());
    if (Err.empty() &&
        (Rep.Requests != Want || Rep.Missed || Rep.FalseTraps ||
         Rep.Trapped != Srv.Sched.adversarialCount()))
      Err = Name + " lane " + std::to_string(I) + ": " +
            std::to_string(Rep.Requests) + "/" + std::to_string(Want) +
            " requests, " + std::to_string(Rep.Missed) + " missed, " +
            std::to_string(Rep.FalseTraps) + " false traps";
  }
  P.add({Op.Server, Op.Lanes}, Ms);
  // Lanes share the servers' globals, so only 1-lane output is fixed.
  const RunResult &Run = S.Combined;
  if (Err.empty() && Op.Lanes == 1) {
    if (!Run.ok() || Run.ExitCode != 0)
      Err = Name + ": exit " + std::to_string(Run.ExitCode) + " (" +
            trapName(Run.Trap) + ")";
    else if (Run.Output != Srv.ExpectedOutput)
      Err = Name + ": benign responses differ from the plain build's";
    auto [It, New] = Cycles.emplace(Op.Server, Run.Counters.Cycles);
    if (Err.empty() && !New && It->second != Run.Counters.Cycles)
      Err = Name + ": " + std::to_string(Run.Counters.Cycles) +
            " simulated cycles, earlier " + std::to_string(It->second);
  }
  if (Err.empty() && O.Trace)
    Err = Checks.add({Op.Server, Op.Lanes}, S, T != nullptr, Name);
  if (!Err.empty())
    failOp(R, Err);
}

double TrafficBench::simMcycles() const {
  uint64_t Sum = 0;
  for (const auto &[Server, C] : Cycles)
    Sum += C;
  return static_cast<double>(Sum) / 1e6;
}

} // namespace

Report wallbench::runTraffic(const Options &O) {
  Report R;
  TrafficBench B(O, R);

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
  R.set("workloads.source_kb", B.DriverKb, "KB");
  R.set("trace.selfcheck_sessions", B.Checks.checked(), "count");
  reportTrace(R, T, O, Untraced.opMs(), Traced.opMs());
  return R;
}
