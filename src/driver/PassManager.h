//===- driver/PassManager.h - composable pass pipeline API ------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The composable pipeline API. The paper's toolchain is a *sequence of
/// passes* (optimize -> SoftBound instrument -> re-optimize ->
/// check-elimination, §6.1/§6.3); this header makes that sequence an
/// explicit, first-class object instead of a set of booleans:
///
///   * ModulePass — one named transformation over a verified Module,
///     recording what it did into a PassContext.
///   * PassContext — carried through the pipeline; owns the unified
///     PipelineStats registry (transformation counters, check-optimization
///     counters, per-pass wall-clock timings) and collects diagnostics.
///   * PassRegistry — maps stable string names ("optimize", "softbound",
///     "reoptimize", "checkopt", "safe-elision") to pass factories, so
///     benches and tests can ablate by string.
///   * PipelinePlan — a fluent builder:
///
///       PipelinePlan().frontend(Src).optimize().softbound(Cfg)
///                     .checkOpt(CCfg).build()
///
///     plus a textual spec parser/printer
///     ("optimize,softbound,checkopt(range,redundant,hoist)") with
///     round-trip canonicalization via spec().
///
/// driver/Pipeline.h runs the result (runSession); PipelineResult is its
/// BuildResult.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_DRIVER_PASSMANAGER_H
#define SOFTBOUND_DRIVER_PASSMANAGER_H

#include "softbound/SoftBoundPass.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace softbound {

class Telemetry;

//===----------------------------------------------------------------------===//
// Unified statistics
//===----------------------------------------------------------------------===//

/// Wall-clock record of one executed pass.
struct PassTiming {
  std::string Pass;  ///< Canonical pass spec (name plus non-default knobs).
  double Millis = 0; ///< Time spent inside ModulePass::run.
};

/// The single owner of everything the pipeline measured.
struct PipelineStats {
  /// SoftBound transformation counters (checks/metadata inserted, calls
  /// rewritten, post-instrumentation eliminations). Its nested CheckOpt
  /// member stays zero here — CheckOpt below is the owner.
  SoftBoundStats SB;
  /// Check-optimization counters over every checkopt / safe-elision
  /// pass in the plan (see addCheckPass).
  CheckOptStats CheckOpt;
  /// Check passes folded into CheckOpt so far.
  unsigned CheckPasses = 0;
  /// Set by the softbound pass.
  bool Instrumented = false;
  CheckMode Mode = CheckMode::Full;
  /// Per-pass timings, in execution order.
  std::vector<PassTiming> Passes;

  /// Folds one check pass's counters into CheckOpt: ChecksBefore stays
  /// the count entering the plan's first check pass, ChecksAfter becomes
  /// the count leaving the last, and every other counter sums.
  void addCheckPass(const CheckOptStats &Pass) {
    unsigned Before = CheckPasses++ ? CheckOpt.ChecksBefore : Pass.ChecksBefore;
    CheckOpt += Pass;
    CheckOpt.ChecksBefore = Before;
    CheckOpt.ChecksAfter = Pass.ChecksAfter;
  }

  double totalMillis() const {
    double S = 0;
    for (const auto &T : Passes)
      S += T.Millis;
    return S;
  }
};

//===----------------------------------------------------------------------===//
// Pass interface
//===----------------------------------------------------------------------===//

/// Carried through the pipeline: stats registry + diagnostics sink.
class PassContext {
public:
  PipelineStats &stats() { return Stats; }
  const PipelineStats &stats() const { return Stats; }

  /// Reports a pass failure; the pipeline stops after the current pass.
  void error(std::string E) { Errors.push_back(std::move(E)); }
  bool hadErrors() const { return !Errors.empty(); }
  const std::vector<std::string> &errors() const { return Errors; }

private:
  PipelineStats Stats;
  std::vector<std::string> Errors;
};

/// One named module transformation. Implementations are immutable after
/// construction (configuration is baked in), so plans can share them.
class ModulePass {
public:
  virtual ~ModulePass() = default;

  /// Stable registry name ("softbound", "checkopt", ...).
  virtual std::string_view name() const = 0;

  /// Canonical textual form: the name, plus parenthesized knobs when the
  /// configuration differs from the registered default. Feeding this back
  /// through the spec parser reproduces the pass exactly.
  virtual std::string spec() const { return std::string(name()); }

  /// Runs over \p M, which is verifier-clean on entry and must stay so.
  virtual void run(Module &M, PassContext &Ctx) const = 0;
};

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

/// String-keyed pass factory table: the five built-in phases, fixed at
/// construction. A new optimization is one more entry in the built-in
/// table (PassManager.cpp); plans can also append a ModulePass instance
/// directly.
class PassRegistry {
public:
  /// Builds a pass from spec knobs. On failure, sets \p Err (naming the
  /// offending knob) and returns null.
  using Factory = std::function<std::shared_ptr<const ModulePass>(
      const std::vector<std::string> &Knobs, std::string &Err)>;

  struct Entry {
    std::string Description;        ///< One line, for --list-passes/docs.
    std::vector<std::string> Knobs; ///< Accepted knob names, for diagnostics.
    Factory Make;
  };

  /// The process-wide registry.
  static const PassRegistry &global();

  const Entry *lookup(const std::string &Name) const;

  /// Creates a configured pass, or null with a diagnostic in \p Err
  /// ("unknown pass", "unknown knob") suitable for showing verbatim.
  std::shared_ptr<const ModulePass>
  create(const std::string &Name, const std::vector<std::string> &Knobs,
         std::string &Err) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

private:
  PassRegistry();

  std::map<std::string, Entry> Entries;
};

//===----------------------------------------------------------------------===//
// Pipeline plan
//===----------------------------------------------------------------------===//

/// Result of running a plan: the built module plus everything measured.
/// driver/Pipeline.h aliases it as BuildResult.
struct PipelineResult {
  std::unique_ptr<Module> M;
  /// Single owner of all pipeline statistics.
  PipelineStats Pipeline;
  /// Unused by build(); only wallbench/ still writes it.
  SoftBoundStats Stats;
  std::vector<std::string> Errors;
  bool Instrumented = false;
  CheckMode Mode = CheckMode::Full;

  bool ok() const { return M != nullptr && Errors.empty(); }
  std::string errorText() const {
    std::string S;
    for (const auto &E : Errors)
      S += E + "\n";
    return S;
  }
};

/// A frontend source plus an ordered pass sequence. Cheap to copy (passes
/// are shared and immutable). Misuse (unknown pass name, spec typo pushed
/// through pass()) is reported by build(), never by aborting.
class PipelinePlan {
public:
  PipelinePlan() = default;

  /// Sets the mini-C source the plan compiles. Required before build().
  PipelinePlan &frontend(std::string Source);

  // Fluent appenders; "reoptimize" and "safe-elision" take no
  // configuration and are appended with pass(Name).
  PipelinePlan &optimize();                            ///< "optimize"
  PipelinePlan &softbound(SoftBoundConfig Cfg = {});   ///< "softbound"
  PipelinePlan &checkOpt(CheckOptConfig Cfg = {});     ///< "checkopt"

  /// Appends a custom pass instance.
  PipelinePlan &pass(std::shared_ptr<const ModulePass> P);

  /// Appends a registered pass by name with default knobs; an unknown
  /// name becomes a build() error.
  PipelinePlan &pass(const std::string &Name);

  /// Parses a comma-separated pipeline spec — e.g.
  /// "optimize,softbound,checkopt(range,redundant,hoist)" — and appends
  /// the passes. On any error the plan is left unchanged, \p ErrOut (when
  /// non-null) receives the diagnostic, and false is returned.
  bool appendSpec(const std::string &Spec, std::string *ErrOut = nullptr);

  /// Routes per-pass timings and pipeline-phase trace events into \p T
  /// during build() (docs/observability.md); null detaches. \p TracePrefix
  /// namespaces event and timer names — benches pass "<workload>:" so one
  /// sink can hold several builds. Telemetry never affects the built
  /// module or its statistics.
  PipelinePlan &telemetry(Telemetry *T, std::string TracePrefix = "");

  /// Canonical spec of the whole plan (pass specs joined by commas).
  /// Round-trips: appendSpec(spec()) rebuilds an equivalent plan.
  std::string spec() const;

  size_t size() const { return Passes.size(); }

  /// Compiles, verifies, then runs each pass in order (re-verifying after
  /// each and attributing failures to the offending pass), and returns the
  /// module with unified stats. On error the module is null.
  PipelineResult build() const;

private:
  std::string Source;
  bool HaveSource = false;
  std::vector<std::shared_ptr<const ModulePass>> Passes;
  std::vector<std::string> PlanErrors; ///< Deferred to build().
  Telemetry *Telem = nullptr;
  std::string TracePrefix;
};

} // namespace softbound

#endif // SOFTBOUND_DRIVER_PASSMANAGER_H
