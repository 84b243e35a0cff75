//===- softbound/SoftBoundPass.h - the SoftBound transformation -*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's core contribution (§3, §5): a module transformation that
///   1. associates base/bound metadata with every pointer SSA value,
///   2. loads/stores that metadata through the disjoint metadata space on
///      every load/store of a pointer value (§3.2),
///   3. inserts a spatial check before every dereference (full mode) or
///      before stores only (store-only mode, §6.3),
///   4. rewrites every function to `_sb_<name>` with extra bounds
///      parameters, returning {ptr, base, bound} for pointer returns (§3.3),
///   5. shrinks bounds at struct-field accesses to catch sub-object
///      overflows (§3.1), and
///   6. maps C library calls to checked wrappers (§5.2).
///
/// The transformation is strictly intra-procedural: no whole-program
/// analysis, which is what gives SoftBound separate compilation (§5.2).
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_SOFTBOUND_SOFTBOUNDPASS_H
#define SOFTBOUND_SOFTBOUND_SOFTBOUNDPASS_H

#include "ir/Module.h"
#include "opt/checks/CheckOpt.h"

namespace softbound {

/// Which dereferences get checks (§6: full vs store-only checking).
enum class CheckMode {
  Full,      ///< Check every load and store (complete spatial safety).
  StoreOnly, ///< Check stores only; metadata still fully propagated.
};

/// Pass configuration.
struct SoftBoundConfig {
  CheckMode Mode = CheckMode::Full;
  /// Shrink bounds when deriving a pointer to a struct field (§3.1). Off
  /// reproduces schemes that cannot detect sub-object overflows (MSCC).
  bool ShrinkBounds = true;
  /// §5.2: infer pointer-free memcpy from argument types and skip the
  /// metadata copy for them.
  bool InferMemcpyPointerFree = true;
  /// Run redundant-check elimination + DCE after instrumentation (the
  /// paper re-runs LLVM's optimizers, §6.1).
  bool ReoptimizeAfter = true;
};

/// Every summed SoftBoundStats counter, listed once: the list declares
/// the fields and generates operator+=.
#define SOFTBOUND_SB_COUNTERS(X)                                               \
  X(FunctionsTransformed)                                                      \
  X(ChecksInserted)                                                            \
  X(FuncPtrChecksInserted)                                                     \
  X(MetaLoadsInserted)                                                         \
  X(MetaStoresInserted)                                                        \
  X(BoundsShrunk)                                                              \
  X(CallsRewritten)                                                            \
  X(ChecksEliminated)

/// What the pass did (for tests and the instrumentation-cost benches).
struct SoftBoundStats {
#define SOFTBOUND_SB_FIELD(Name) unsigned Name = 0;
  SOFTBOUND_SB_COUNTERS(SOFTBOUND_SB_FIELD)
#undef SOFTBOUND_SB_FIELD
  /// Never filled by the pipeline (PipelineStats::CheckOpt owns these
  /// counters); only wallbench/ still writes it.
  CheckOptStats CheckOpt;

  SoftBoundStats &operator+=(const SoftBoundStats &O) {
#define SOFTBOUND_SB_ADD(Name) Name += O.Name;
    SOFTBOUND_SB_COUNTERS(SOFTBOUND_SB_ADD)
#undef SOFTBOUND_SB_ADD
    CheckOpt += O.CheckOpt;
    return *this;
  }
};

/// Applies the SoftBound transformation to every defined function in \p M.
/// The module must be verified beforehand; it verifies afterwards too.
SoftBoundStats applySoftBound(Module &M, const SoftBoundConfig &Cfg);

/// Queries over the `_sb_` calling convention the transformation emits
/// (§3.3): every pointer parameter gets one bounds parameter appended
/// after the original parameter list, in pointer-parameter order, and
/// call sites pass arguments in the same layout. The inter-procedural
/// check optimizer (opt/checks/InterProc.cpp) keys its argument summaries
/// on this contract, so the mapping lives here with the transformation
/// rather than being re-derived by every analysis.
namespace sbabi {

/// Number of parameters the function had before the signature rewrite
/// (the appended bounds parameters are exactly the trailing boundsTy
/// run). Equals numArgs() for untransformed functions.
unsigned originalParamCount(const Function &F);

/// Index of the bounds parameter paired with pointer parameter
/// \p PtrParam, or -1 when \p PtrParam is not a pointer parameter (or the
/// function was never transformed).
int boundsParamIndex(const Function &F, unsigned PtrParam);

/// The bounds value a transformed call site passes for pointer argument
/// \p ArgIdx, or null when the call does not follow the `_sb_` layout for
/// \p Callee (e.g. argument-count mismatch on a weird indirect call).
Value *passedBounds(const CallInst &Call, const Function &Callee,
                    unsigned ArgIdx);

} // namespace sbabi
} // namespace softbound

#endif // SOFTBOUND_SOFTBOUND_SOFTBOUNDPASS_H
