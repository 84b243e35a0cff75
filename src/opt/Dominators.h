//===- opt/Dominators.h - dominator tree and frontiers ----------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree (Cooper–Harvey–Kennedy iterative algorithm), dominance
/// frontiers for mem2reg's SSA construction, and the one preorder walk of
/// the tree that mem2reg renaming and the check optimizer's fact
/// propagation share.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_OPT_DOMINATORS_H
#define SOFTBOUND_OPT_DOMINATORS_H

#include "ir/Function.h"

#include <map>
#include <set>
#include <type_traits>
#include <vector>

namespace softbound {

/// Dominator information for one function.
class DomTree {
public:
  explicit DomTree(Function &F);

  /// Immediate dominator, or null for the entry block.
  BasicBlock *idom(BasicBlock *BB) const {
    auto It = IDom.find(BB);
    return It == IDom.end() ? nullptr : It->second;
  }

  /// True if A dominates B (reflexive).
  bool dominates(BasicBlock *A, BasicBlock *B) const;

  /// Dominance frontier of a block.
  const std::set<BasicBlock *> &frontier(BasicBlock *BB) const {
    static const std::set<BasicBlock *> Empty;
    auto It = DF.find(BB);
    return It == DF.end() ? Empty : It->second;
  }

  /// Dominator-tree children, in reverse postorder.
  const std::vector<BasicBlock *> &children(BasicBlock *BB) const {
    static const std::vector<BasicBlock *> Empty;
    auto It = Kids.find(BB);
    return It == Kids.end() ? Empty : It->second;
  }

  /// Blocks in reverse postorder (reachable blocks only).
  const std::vector<BasicBlock *> &rpo() const { return RPO; }

  /// Predecessors of reachable blocks.
  const std::vector<BasicBlock *> &preds(BasicBlock *BB) const {
    static const std::vector<BasicBlock *> Empty;
    auto It = Preds.find(BB);
    return It == Preds.end() ? Empty : It->second;
  }

private:
  std::map<BasicBlock *, BasicBlock *> IDom;
  std::map<BasicBlock *, std::set<BasicBlock *>> DF;
  std::map<BasicBlock *, std::vector<BasicBlock *>> Kids;
  std::map<BasicBlock *, std::vector<BasicBlock *>> Preds;
  std::map<BasicBlock *, int> Order; ///< RPO index.
  std::vector<BasicBlock *> RPO;
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
