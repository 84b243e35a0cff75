//===- opt/Dominators.h - reverse postorder and dominator tree --*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reverse postorder of a function's reachable blocks, the dominator
/// tree over it (Cooper–Harvey–Kennedy iterative algorithm), and the one
/// preorder walk of the tree that mem2reg renaming and the check
/// optimizer's fact propagation share.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_OPT_DOMINATORS_H
#define SOFTBOUND_OPT_DOMINATORS_H

#include "ir/Function.h"

#include <type_traits>
#include <unordered_map>
#include <vector>

namespace softbound {

/// Blocks reachable from \p F's entry, in reverse postorder. Iterative: a
/// deep CFG must not overflow the host stack.
std::vector<BasicBlock *> reversePostorder(Function &F);

/// Dominator information for one function. Every answer is kept by a
/// block's position in rpo(); unreachable blocks have none.
class DomTree {
public:
  explicit DomTree(Function &F);

  /// Immediate dominator, or null for the entry and unreachable blocks.
  BasicBlock *idom(BasicBlock *BB) const {
    auto It = Pos.find(BB);
    return It == Pos.end() || It->second == 0 ? nullptr
                                              : RPO[IDom[It->second]];
  }

  /// True if A dominates B (reflexive, also for an unreachable block).
  bool dominates(BasicBlock *A, BasicBlock *B) const;

  /// Dominator-tree children, in reverse postorder.
  const std::vector<BasicBlock *> &children(BasicBlock *BB) const {
    return at(Kids, BB);
  }

  /// Blocks in reverse postorder (reachable blocks only).
  const std::vector<BasicBlock *> &rpo() const { return RPO; }

  /// Reachable predecessors in reverse postorder, one entry per edge.
  const std::vector<BasicBlock *> &preds(BasicBlock *BB) const {
    return at(Preds, BB);
  }

private:
  const std::vector<BasicBlock *> &
  at(const std::vector<std::vector<BasicBlock *>> &ByPos,
     BasicBlock *BB) const {
    static const std::vector<BasicBlock *> Empty;
    auto It = Pos.find(BB);
    return It == Pos.end() ? Empty : ByPos[It->second];
  }

  std::vector<BasicBlock *> RPO;
  std::unordered_map<const BasicBlock *, unsigned> Pos; ///< Index in RPO.
  std::vector<unsigned> IDom; ///< By position; the entry's is itself.
  std::vector<std::vector<BasicBlock *>> Kids, Preds; ///< By position.
};

/// Preorder walk of the dominator tree below \p Root: \p Enter(BB) runs
/// before BB's dominated subtree and \p Leave(BB, Token) after it, where
/// Token is whatever Enter returned for BB (a fact-table mark, an undo
/// list) — so state scoped to the dominating path is set up and rolled
/// back innermost-first. An Enter returning void gets Leave(BB).
/// Iterative: a deep CFG must not overflow the host stack.
template <typename EnterFn, typename LeaveFn>
void walkDomTree(const DomTree &DT, BasicBlock *Root, EnterFn &&Enter,
                 LeaveFn &&Leave) {
  using Token = decltype(Enter(Root));
  constexpr bool NoToken = std::is_void_v<Token>;
  struct Frame {
    BasicBlock *BB;
    size_t NextChild;
    std::conditional_t<NoToken, char, Token> Tok;
  };
  std::vector<Frame> Stack;
  auto Push = [&](BasicBlock *BB) {
    if constexpr (NoToken) {
      Enter(BB);
      Stack.push_back({BB, 0, 0});
    } else {
      Stack.push_back({BB, 0, Enter(BB)});
    }
  };
  Push(Root);
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    const std::vector<BasicBlock *> &Kids = DT.children(Top.BB);
    if (Top.NextChild < Kids.size()) {
      Push(Kids[Top.NextChild++]); // Invalidates Top; re-fetched next turn.
      continue;
    }
    Frame Done = std::move(Top);
    Stack.pop_back();
    if constexpr (NoToken)
      Leave(Done.BB);
    else
      Leave(Done.BB, Done.Tok);
  }
}

} // namespace softbound

#endif // SOFTBOUND_OPT_DOMINATORS_H
