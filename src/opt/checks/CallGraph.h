//===- opt/checks/CallGraph.h - module call graph ---------------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The call graph underneath the inter-procedural bounds propagation
/// (InterProc.cpp), partitioning and loop hull hoisting. Direct calls
/// between defined functions form the edges; everything the graph cannot
/// see is folded into one conservative attribute instead of edges:
///
///   * externallyReachable(F): F can be entered by a caller the analysis
///     will never inspect — the VM entry function, any address-taken
///     function (a function-pointer call could target it; §5.2's
///     base==bound==ptr encoding makes every escaped function callable),
///     or a builtin/declaration. Summaries for such functions must assume
///     nothing about their arguments and their callee-side checks can
///     never be elided.
///
/// A call through a pointer records no edge (the target set is
/// unknowable), which is sound because every possible target is
/// address-taken and therefore already externallyReachable.
///
/// Defined functions are numbered once, in module order, and every
/// per-function answer is kept by that number. Tarjan SCCs provide the
/// bottom-up order. The same order settles mayExitOrJump, the summary
/// loop hull hoisting reads (loopBodyIsSafe, Loops.h): one answer per
/// SCC, no walk down the call chain. The checkopt driver builds the graph
/// once per run.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_OPT_CHECKS_CALLGRAPH_H
#define SOFTBOUND_OPT_CHECKS_CALLGRAPH_H

#include "ir/Module.h"

#include <unordered_map>
#include <vector>

namespace softbound {
namespace checkopt {

/// One direct call from a defined function to a defined function.
struct CallSite {
  CallInst *Call = nullptr;
  Function *Caller = nullptr;
  Function *Callee = nullptr;
};

class CallGraph {
public:
  explicit CallGraph(Module &M);

  /// Every direct defined-to-defined call site, in module order.
  const std::vector<CallSite> &callSites() const { return Sites; }

  /// Direct call sites targeting \p F (indices into callSites()).
  const std::vector<unsigned> &callersOf(const Function *F) const;

  /// Direct call sites contained in \p F (indices into callSites()).
  const std::vector<unsigned> &callSitesIn(const Function *F) const;

  /// True when \p F's address escapes into data flow: used as an operand
  /// anywhere other than the callee slot of a direct call (stored,
  /// passed, compared, or given bounds for an indirect call).
  bool isAddressTaken(const Function *F) const;

  /// True when some caller of \p F is outside the graph: the VM entry
  /// function, address-taken functions, builtins/declarations, and
  /// defined functions with no recorded call site (nothing links to them,
  /// but the harness may still invoke them directly).
  bool externallyReachable(const Function *F) const;

  /// SCC id of \p F; ids are assigned in bottom-up (callee-first) order,
  /// so sorting functions by sccId yields a valid order for bottom-up
  /// summary propagation.
  unsigned sccId(const Function *F) const;

  /// Defined functions in bottom-up (callee-before-caller) order; members
  /// of one SCC are adjacent.
  const std::vector<Function *> &bottomUp() const { return BottomUp; }

  /// True when \p F, directly or through its direct defined callees,
  /// calls exit/setjmp/longjmp or makes an indirect call (an unknown
  /// callee could do either). Unknown functions: assume the worst.
  bool mayExitOrJump(const Function *F) const;

  /// True when executing \p Call may end the run normally or resume it
  /// elsewhere without returning: an indirect call, a call to
  /// exit/setjmp/longjmp, or a call to a defined function for which
  /// mayExitOrJump holds.
  bool callMayExitOrJump(const CallInst &Call) const;

private:
  struct Node {
    std::vector<unsigned> In;   ///< Sites calling this function.
    std::vector<unsigned> Out;  ///< Sites inside this function.
    bool AddressTaken = false;
    bool ExitsOrJumpsItself = false; ///< See exitsOrJumpsItself (.cpp).
    bool External = false;
    unsigned Scc = 0;
  };

  /// \p F's node, or null when \p F is not a defined function.
  const Node *node(const Function *F) const;

  std::vector<CallSite> Sites;
  /// Defined function to its position in module order.
  std::unordered_map<const Function *, unsigned> Position;
  std::vector<Node> Nodes; ///< By position.
  std::vector<Function *> BottomUp;
  std::vector<bool> SccMayExitOrJump; ///< mayExitOrJump, by SCC id.
};

} // namespace checkopt
} // namespace softbound

#endif // SOFTBOUND_OPT_CHECKS_CALLGRAPH_H
