//===- opt/Dominators.cpp - reverse postorder and dominator tree ------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/Dominators.h"

using namespace softbound;

namespace {

using Positions = std::unordered_map<const BasicBlock *, unsigned>;

/// Postorder DFS from entry over successor edges, on an explicit stack so
/// a deep CFG cannot exhaust the host stack. A block is marked on entry
/// and emitted once all its successors are done: the order the recursive
/// formulation yields. Returns the reverse of that order; \p Seen gains
/// every reachable block, each mapped to 0.
std::vector<BasicBlock *> reachableInReversePostorder(Function &F,
                                                      Positions &Seen) {
  std::vector<BasicBlock *> Post;
  struct Visit {
    BasicBlock *BB;
    std::vector<BasicBlock *> Succs;
    size_t Next = 0;
  };
  std::vector<Visit> Stack;
  auto Discover = [&](BasicBlock *BB) {
    if (Seen.try_emplace(BB, 0).second)
      Stack.push_back({BB, BB->successors()});
  };
  Discover(F.entry());
  while (!Stack.empty()) {
    Visit &Top = Stack.back();
    if (Top.Next < Top.Succs.size()) {
      Discover(Top.Succs[Top.Next++]); // May invalidate Top.
      continue;
    }
    Post.push_back(Top.BB);
    Stack.pop_back();
  }
  return {Post.rbegin(), Post.rend()};
}

} // namespace

std::vector<BasicBlock *> softbound::reversePostorder(Function &F) {
  Positions Seen;
  return reachableInReversePostorder(F, Seen);
}

DomTree::DomTree(Function &F) {
  RPO = reachableInReversePostorder(F, Pos);
  const unsigned N = static_cast<unsigned>(RPO.size());
  for (unsigned I = 0; I < N; ++I)
    Pos.find(RPO[I])->second = I;

  // Every successor of a reachable block is reachable.
  std::vector<std::vector<unsigned>> PredPos(N);
  Preds.resize(N);
  for (unsigned I = 0; I < N; ++I)
    for (BasicBlock *S : RPO[I]->successors()) {
      unsigned J = Pos.find(S)->second;
      PredPos[J].push_back(I);
      Preds[J].push_back(RPO[I]);
    }

  // Cooper–Harvey–Kennedy iteration over positions: a dominator precedes
  // what it dominates in reverse postorder.
  constexpr unsigned None = ~0u;
  IDom.assign(N, None);
  IDom[0] = 0;
  auto Intersect = [&](unsigned A, unsigned B) {
    while (A != B) {
      while (A > B)
        A = IDom[A];
      while (B > A)
        B = IDom[B];
    }
    return A;
  };
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (unsigned I = 1; I < N; ++I) {
      unsigned New = None;
      for (unsigned P : PredPos[I])
        if (IDom[P] != None)
          New = New == None ? P : Intersect(P, New);
      if (New != None && New != IDom[I]) {
        IDom[I] = New;
        Changed = true;
      }
    }
  }

  Kids.resize(N);
  for (unsigned I = 1; I < N; ++I)
    Kids[IDom[I]].push_back(RPO[I]);
}

bool DomTree::dominates(BasicBlock *A, BasicBlock *B) const {
  if (A == B)
    return B != nullptr;
  auto ItA = Pos.find(A), ItB = Pos.find(B);
  if (ItA == Pos.end() || ItB == Pos.end())
    return false;
  unsigned PA = ItA->second, PB = ItB->second;
  while (PB > PA)
    PB = IDom[PB];
  return PB == PA;
}
