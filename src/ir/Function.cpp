//===- ir/Function.cpp - functions ----------------------------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Function.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <iterator>

using namespace softbound;

unsigned Function::renumber() {
  int Next = 0;
  for (auto &A : Args)
    A->setSlot(Next++);
  for (auto &BB : Blocks)
    for (auto &I : *BB) {
      if (I->type()->isVoid())
        I->setSlot(-1);
      else
        I->setSlot(Next++);
    }
  NumRegs = static_cast<unsigned>(Next);
  return NumRegs;
}

void Function::replaceAllUsesWith(Value *From, Value *To) {
  for (auto &BB : Blocks)
    for (auto &I : *BB)
      I->replaceUsesOf(From, To);
}

size_t ValueReplacements::slotOf(const Value *V) const {
  size_t Mask = Table.size() - 1;
  size_t H = (reinterpret_cast<uintptr_t>(V) * 0x9E37'79B9'7F4A'7C15ULL) >> 32;
  for (H &= Mask; Table[H].first && Table[H].first != V; H = (H + 1) & Mask)
    ;
  return H;
}

void ValueReplacements::record(Instruction *From, Value *To) {
  if (2 * (Count + 1) > Table.size()) {
    std::vector<std::pair<const Value *, Value *>> Old(
        std::max<size_t>(16, 2 * Table.size()));
    Old.swap(Table);
    for (const auto &E : Old)
      if (E.first)
        Table[slotOf(E.first)] = E;
  }
  auto &E = Table[slotOf(From)];
  Count += !E.first;
  E = {From, To};
}

Value *ValueReplacements::resolve(Value *V) const {
  if (empty())
    return V;
  [[maybe_unused]] size_t Steps = 0;
  for (const auto *E = &Table[slotOf(V)]; E->first; E = &Table[slotOf(V)]) {
    assert(++Steps <= Count && "replacement chain loops");
    V = E->second;
  }
  return V;
}

void ValueReplacements::rewrite(Instruction &I) const {
  if (empty())
    return; // The common case: nothing recorded yet.
  for (unsigned K = 0; K < I.numOperands(); ++K)
    I.setOp(K, resolve(I.op(K)));
}

void ValueReplacements::apply(Function &F) const {
  if (empty())
    return;
  // Every use is rewritten before any replaced instruction is freed, so
  // no lookup ever sees a stale pointer. (The replaced instructions'
  // own operands are rewritten too, harmlessly.)
  for (auto &BB : F.blocks())
    for (auto &I : *BB)
      rewrite(*I);
  for (auto &BB : F.blocks())
    for (auto It = BB->begin(); It != BB->end();)
      It = Table[slotOf(It->get())].first ? BB->erase(It) : std::next(It);
}
