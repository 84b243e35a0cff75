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
  // Number the defined functions in module order, so every derived order
  // (DFS roots, SCC ids, bottomUp) is deterministic across runs — the
  // bench-regression gate compares counts produced under order-sensitive
  // widening.
  std::vector<Function *> InModuleOrder;
  for (const auto &F : M.functions())
    if (F->isDefinition()) {
      Position.emplace(F.get(), static_cast<unsigned>(InModuleOrder.size()));
      InModuleOrder.push_back(F.get());
    }
  const unsigned N = static_cast<unsigned>(InModuleOrder.size());
  Nodes.resize(N);
  auto markAddressTaken = [&](const Function *F) {
    if (auto It = Position.find(F); It != Position.end())
      Nodes[It->second].AddressTaken = true;
  };

  // A function whose address is baked into a global initializer escapes
  // exactly like one stored by an instruction.
  for (const auto &G : M.globals())
    for (const auto &R : G->initializer().Relocs)
      if (auto *F = dyn_cast<Function>(R.Target))
        markAddressTaken(F);

  for (unsigned Pos = 0; Pos < N; ++Pos) {
    Function *F = InModuleOrder[Pos];
    for (const auto &BB : F->blocks()) {
      for (const auto &IP : *BB) {
        Instruction *I = IP.get();
        auto *Call = dyn_cast<CallInst>(I);
        if (Call && exitsOrJumpsItself(*Call))
          Nodes[Pos].ExitsOrJumpsItself = true;
        for (unsigned K = 0; K < I->numOperands(); ++K) {
          auto *Target = dyn_cast<Function>(I->op(K));
          if (!Target)
            continue;
          if (Call && K == 0) {
            // Direct callee position: an edge when the target is defined.
            if (Target->isDefinition()) {
              unsigned Id = static_cast<unsigned>(Sites.size());
              Sites.push_back({Call, F, Target});
              Nodes[Pos].Out.push_back(Id);
              Nodes[Position.at(Target)].In.push_back(Id);
            }
            continue;
          }
          markAddressTaken(Target); // Any other use leaks the address.
        }
      }
    }
  }

  // External reachability: entry, escaped, or never called from IR.
  Function *Entry = M.entryFunction();
  for (unsigned Pos = 0; Pos < N; ++Pos) {
    Node &Nd = Nodes[Pos];
    Nd.External = InModuleOrder[Pos] == Entry || Nd.AddressTaken ||
                  Nd.In.empty();
  }

  // Tarjan SCCs, assigning ids in completion order — callees complete
  // before their callers, so ascending sccId is bottom-up. Iterative with
  // explicit DFS frames: call-graph depth is program-sized, and a long
  // call chain must not overflow the host stack in a default-on pass.
  constexpr unsigned Unvisited = ~0u;
  unsigned NextIndex = 0, NextScc = 0;
  std::vector<unsigned> Index(N, Unvisited), Low(N), Stack;
  std::vector<bool> OnStack(N, false);
  struct Frame {
    unsigned Pos;
    size_t NextOut;
  };
  std::vector<Frame> Frames;
  auto discover = [&](unsigned Pos) {
    Index[Pos] = Low[Pos] = NextIndex++;
    Stack.push_back(Pos);
    OnStack[Pos] = true;
    Frames.push_back({Pos, 0});
  };
  for (unsigned Root = 0; Root < N; ++Root) {
    if (Index[Root] != Unvisited)
      continue;
    discover(Root);
    while (!Frames.empty()) {
      Frame &Top = Frames.back();
      const std::vector<unsigned> &Out = Nodes[Top.Pos].Out;
      if (Top.NextOut < Out.size()) {
        unsigned Callee = Position.at(Sites[Out[Top.NextOut++]].Callee);
        if (Index[Callee] == Unvisited)
          discover(Callee); // Invalidates Top; re-fetched next turn.
        else if (OnStack[Callee])
          Low[Top.Pos] = std::min(Low[Top.Pos], Index[Callee]);
        continue;
      }
      // Subtree complete: fold this node's low-link into its DFS parent
      // (the recursive formulation's post-call min), then test for root.
      unsigned Pos = Top.Pos;
      Frames.pop_back();
      if (!Frames.empty())
        Low[Frames.back().Pos] = std::min(Low[Frames.back().Pos], Low[Pos]);
      if (Low[Pos] == Index[Pos]) {
        unsigned Member;
        do {
          Member = Stack.back();
          Stack.pop_back();
          OnStack[Member] = false;
          Nodes[Member].Scc = NextScc;
        } while (Member != Pos);
        ++NextScc;
      }
    }
  }

  // Bottom-up order: module order bucketed by SCC id (a stable counting
  // sort), so members of one SCC are adjacent and keep module order.
  std::vector<unsigned> Start(NextScc + 1, 0);
  for (const Node &Nd : Nodes)
    ++Start[Nd.Scc + 1];
  for (unsigned Id = 0; Id < NextScc; ++Id)
    Start[Id + 1] += Start[Id];
  BottomUp.resize(N);
  for (unsigned Pos = 0; Pos < N; ++Pos)
    BottomUp[Start[Nodes[Pos].Scc]++] = InModuleOrder[Pos];

  // The mayExitOrJump summary, one bit per SCC, in bottom-up order: a
  // callee in an earlier SCC is already settled, and a callee in the same
  // SCC reads the very bit being accumulated, so every member ends up
  // with one answer and no walk follows the call chain.
  SccMayExitOrJump.assign(NextScc, false);
  for (const Function *F : BottomUp) {
    const Node &Nd = *node(F);
    bool Any = Nd.ExitsOrJumpsItself;
    for (size_t K = 0; K < Nd.Out.size() && !Any; ++K)
      Any = SccMayExitOrJump[node(Sites[Nd.Out[K]].Callee)->Scc];
    if (Any)
      SccMayExitOrJump[Nd.Scc] = true;
  }
}

const CallGraph::Node *CallGraph::node(const Function *F) const {
  auto It = Position.find(F);
  return It == Position.end() ? nullptr : &Nodes[It->second];
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

bool CallGraph::externallyReachable(const Function *F) const {
  const Node *N = node(F);
  return !N || N->External; // Unknown functions: assume the worst.
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
