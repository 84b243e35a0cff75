//===- opt/checks/CallGraph.cpp - module call graph -------------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/checks/CallGraph.h"

#include "support/Casting.h"

#include <algorithm>

using namespace softbound;
using namespace softbound::checkopt;

namespace {

/// True when \p Call itself may end the run normally or resume it
/// somewhere else: an indirect call (its callee is unknown) or a call to
/// exit/setjmp/longjmp. Traps (division, checks, step limits) need no
/// exclusion: a trapped run did not complete normally, which is all the
/// hoisting argument relies on.
bool exitsOrJumpsItself(const CallInst &Call) {
  const Function *Callee = Call.calledFunction();
  if (!Callee)
    return true;
  const std::string &Name = Callee->name();
  return Name == "exit" || Name == "setjmp" || Name == "longjmp";
}

} // namespace

CallGraph::CallGraph(Module &M) {
  // Seed a node per defined function so lookups never miss. Module order
  // is recorded so every derived order (DFS roots, SCC ids, bottomUp) is
  // deterministic across runs — the bench-regression gate compares
  // counts produced under order-sensitive widening.
  std::vector<Function *> InModuleOrder;
  for (const auto &F : M.functions())
    if (F->isDefinition()) {
      Nodes[F.get()].ModIdx = static_cast<unsigned>(InModuleOrder.size());
      InModuleOrder.push_back(F.get());
    }

  // A function whose address is baked into a global initializer escapes
  // exactly like one stored by an instruction.
  for (const auto &G : M.globals())
    for (const auto &R : G->initializer().Relocs)
      if (auto *F = dyn_cast<Function>(R.Target))
        if (auto It = Nodes.find(F); It != Nodes.end())
          It->second.AddressTaken = true;

  for (const auto &F : M.functions()) {
    if (!F->isDefinition())
      continue;
    Node &N = Nodes[F.get()];
    for (const auto &BB : F->blocks()) {
      for (const auto &IP : *BB) {
        Instruction *I = IP.get();
        auto *Call = dyn_cast<CallInst>(I);
        if (Call && Call->isIndirect())
          N.HasIndirect = true;
        if (Call && exitsOrJumpsItself(*Call))
          N.ExitsOrJumpsItself = true;
        for (unsigned K = 0; K < I->numOperands(); ++K) {
          auto *Target = dyn_cast<Function>(I->op(K));
          if (!Target)
            continue;
          if (Call && K == 0) {
            // Direct callee position: an edge when the target is defined.
            if (Target->isDefinition()) {
              unsigned Id = static_cast<unsigned>(Sites.size());
              Sites.push_back({Call, F.get(), Target});
              N.Out.push_back(Id);
              Nodes[Target].In.push_back(Id);
              if (Target == F.get())
                N.SelfEdge = true;
            }
            continue;
          }
          // Any other use leaks the address.
          if (auto It = Nodes.find(Target); It != Nodes.end())
            It->second.AddressTaken = true;
        }
      }
    }
  }

  // External reachability: entry, escaped, or never called from IR.
  Function *Entry = M.entryFunction();
  for (auto &[F, N] : Nodes)
    N.External = F == Entry || N.AddressTaken || N.In.empty();

  // Tarjan SCCs, assigning ids in completion order — callees complete
  // before their callers, so ascending sccId is bottom-up. Iterative with
  // explicit DFS frames: call-graph depth is program-sized, and a long
  // call chain must not overflow the host stack in a default-on pass.
  unsigned NextIndex = 0, NextScc = 0;
  std::map<const Function *, unsigned> Index, Low;
  std::vector<const Function *> Stack;
  std::map<const Function *, bool> OnStack;
  struct Frame {
    const Function *F;
    size_t NextOut;
  };
  std::vector<Frame> Frames;
  auto discover = [&](const Function *F) {
    Index[F] = Low[F] = NextIndex++;
    Stack.push_back(F);
    OnStack[F] = true;
    Frames.push_back({F, 0});
  };
  for (Function *Root : InModuleOrder) {
    if (Index.count(Root))
      continue;
    discover(Root);
    while (!Frames.empty()) {
      Frame &Top = Frames.back();
      const std::vector<unsigned> &Out = Nodes[Top.F].Out;
      if (Top.NextOut < Out.size()) {
        const Function *Callee = Sites[Out[Top.NextOut++]].Callee;
        if (!Index.count(Callee))
          discover(Callee); // Invalidates Top; re-fetched next turn.
        else if (OnStack[Callee])
          Low[Top.F] = std::min(Low[Top.F], Index[Callee]);
        continue;
      }
      // Subtree complete: fold this node's low-link into its DFS parent
      // (the recursive formulation's post-call min), then test for root.
      const Function *F = Top.F;
      Frames.pop_back();
      if (!Frames.empty())
        Low[Frames.back().F] = std::min(Low[Frames.back().F], Low[F]);
      if (Low[F] == Index[F]) {
        unsigned Members = 0;
        const Function *Member;
        std::vector<const Function *> Scc;
        do {
          Member = Stack.back();
          Stack.pop_back();
          OnStack[Member] = false;
          Nodes[Member].Scc = NextScc;
          Scc.push_back(Member);
          ++Members;
        } while (Member != F);
        for (const Function *S : Scc)
          Nodes[S].SccNontrivial = Members > 1;
        ++NextScc;
      }
    }
  }

  BottomUp = InModuleOrder;
  std::sort(BottomUp.begin(), BottomUp.end(),
            [this](const Function *A, const Function *B) {
              const Node &NA = Nodes.at(A), &NB = Nodes.at(B);
              return NA.Scc != NB.Scc ? NA.Scc < NB.Scc
                                      : NA.ModIdx < NB.ModIdx;
            });

  // The mayExitOrJump summary, one bit per SCC, in bottom-up order: a
  // callee in an earlier SCC is already settled, and a callee in the same
  // SCC reads the very bit being accumulated, so every member ends up
  // with one answer and no walk follows the call chain.
  SccMayExitOrJump.assign(NextScc, false);
  for (const Function *F : BottomUp) {
    const Node &N = Nodes.at(F);
    bool Any = N.ExitsOrJumpsItself;
    for (size_t K = 0; K < N.Out.size() && !Any; ++K)
      Any = SccMayExitOrJump[Nodes.at(Sites[N.Out[K]].Callee).Scc];
    if (Any)
      SccMayExitOrJump[N.Scc] = true;
  }
}

const CallGraph::Node *CallGraph::node(const Function *F) const {
  auto It = Nodes.find(F);
  return It == Nodes.end() ? nullptr : &It->second;
}

const std::vector<unsigned> &CallGraph::callersOf(const Function *F) const {
  static const std::vector<unsigned> Empty;
  const Node *N = node(F);
  return N ? N->In : Empty;
}

const std::vector<unsigned> &CallGraph::callSitesIn(const Function *F) const {
  static const std::vector<unsigned> Empty;
  const Node *N = node(F);
  return N ? N->Out : Empty;
}

bool CallGraph::isAddressTaken(const Function *F) const {
  const Node *N = node(F);
  return N && N->AddressTaken;
}

bool CallGraph::hasIndirectCallSites(const Function *F) const {
  const Node *N = node(F);
  return N && N->HasIndirect;
}

bool CallGraph::externallyReachable(const Function *F) const {
  const Node *N = node(F);
  return !N || N->External; // Unknown functions: assume the worst.
}

bool CallGraph::isRecursive(const Function *F) const {
  const Node *N = node(F);
  return N && (N->SelfEdge || N->SccNontrivial);
}

unsigned CallGraph::sccId(const Function *F) const {
  const Node *N = node(F);
  return N ? N->Scc : 0;
}

bool CallGraph::mayExitOrJump(const Function *F) const {
  const Node *N = node(F);
  return !N || SccMayExitOrJump[N->Scc]; // Unknown functions: the worst.
}

bool CallGraph::callMayExitOrJump(const CallInst &Call) const {
  if (exitsOrJumpsItself(Call))
    return true;
  const Function *Callee = Call.calledFunction();
  return Callee->isDefinition() && mayExitOrJump(Callee);
}
