//===- ir/Function.h - functions --------------------------------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Function: a Constant (its address is a value) owning arguments and basic
/// blocks. Builtins are declarations whose behaviour the VM implements
/// natively (malloc, memcpy, print, setjmp, …).
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_IR_FUNCTION_H
#define SOFTBOUND_IR_FUNCTION_H

#include "ir/BasicBlock.h"

#include <list>
#include <memory>
#include <utility>
#include <vector>

namespace softbound {

class Module;

/// A function definition or builtin declaration.
class Function : public Constant {
public:
  using BlockList = std::list<std::unique_ptr<BasicBlock>>;

  Function(PointerType *AddrTy, FunctionType *FTy, std::string Name,
           Module *Parent, bool Builtin)
      : Constant(ValueKind::Func, AddrTy, std::move(Name)), FTy(FTy),
        Parent(Parent), Builtin(Builtin) {
    for (unsigned I = 0; I < FTy->numParams(); ++I)
      Args.push_back(std::make_unique<Argument>(
          FTy->param(I), "arg" + std::to_string(I), this, I));
  }

  FunctionType *functionType() const { return FTy; }
  Module *parent() const { return Parent; }
  bool isBuiltin() const { return Builtin; }
  bool isDefinition() const { return !Blocks.empty(); }
  Type *returnType() const { return FTy->returnType(); }

  unsigned numArgs() const { return Args.size(); }
  Argument *arg(unsigned I) const { return Args[I].get(); }

  /// Appends a fresh argument (used by the SoftBound signature rewrite,
  /// §3.3) and updates the function type. Returns the new argument.
  Argument *appendArg(Type *Ty, const std::string &Name, FunctionType *NewFTy) {
    Args.push_back(
        std::make_unique<Argument>(Ty, Name, this, Args.size()));
    FTy = NewFTy;
    return Args.back().get();
  }

  /// Replaces the function type (signature rewrites). Argument list must
  /// already match.
  void setFunctionType(FunctionType *T) { FTy = T; }

  BlockList &blocks() { return Blocks; }
  const BlockList &blocks() const { return Blocks; }
  BasicBlock *entry() {
    assert(!Blocks.empty() && "entry() on a declaration");
    return Blocks.front().get();
  }

  /// Creates a block appended at the end.
  BasicBlock *createBlock(const std::string &Name) {
    Blocks.push_back(std::make_unique<BasicBlock>(
        Name + "." + std::to_string(NextBlockId++), this));
    return Blocks.back().get();
  }

  /// Assigns VM register slots to arguments and value-producing
  /// instructions. Returns the frame register count.
  unsigned renumber();

  unsigned numRegs() const { return NumRegs; }

  /// Replaces all operand uses of \p From with \p To across the body.
  /// Scans the whole body: a pass that replaces many values records them
  /// in a ValueReplacements instead.
  void replaceAllUsesWith(Value *From, Value *To);

  /// SoftBound transformation marker: set when this function has been
  /// renamed to its `_sb_` form and given metadata parameters.
  bool isTransformed() const { return Transformed; }
  void setTransformed() { Transformed = true; }

  /// Checked-region partitioning marker (opt/checks/Partition.cpp): set
  /// when every access was discharged statically and the function's
  /// metadata instructions were stripped. The Verifier enforces that an
  /// uninstrumented function contains no meta.load/meta.store.
  bool isUninstrumented() const { return Uninstrumented; }
  void setUninstrumented() { Uninstrumented = true; }

  static bool classof(const Value *V) { return V->kind() == ValueKind::Func; }

private:
  FunctionType *FTy;
  Module *Parent;
  bool Builtin;
  bool Transformed = false;
  bool Uninstrumented = false;
  std::vector<std::unique_ptr<Argument>> Args;
  BlockList Blocks;
  unsigned NumRegs = 0;
  unsigned NextBlockId = 0;
};

/// Value replacements a pass records while it walks a function and then
/// applies in one rewrite of the body, where one replaceAllUsesWith per
/// replacement would rescan the body each time. A replacement's target
/// may itself be replaced later; uses end at the last value of the chain.
class ValueReplacements {
public:
  /// Records that \p From, an instruction of the function, is to be
  /// replaced by \p To and erased.
  void record(Instruction *From, Value *To);
  bool empty() const { return Count == 0; }

  /// What \p V stands for once every recorded replacement is applied.
  Value *resolve(Value *V) const;
  /// Points every operand of \p I at what it resolves to.
  void rewrite(Instruction &I) const;
  /// Rewrites the operands of every instruction of \p F, then erases
  /// the replaced instructions.
  void apply(Function &F) const;

private:
  /// The slot of \p V in Table: its entry, or the empty slot where it
  /// would go.
  size_t slotOf(const Value *V) const;

  /// (From, To) pairs, open-addressed: a power of two in size and at
  /// most half full, so a lookup is a multiply and a short probe.
  std::vector<std::pair<const Value *, Value *>> Table;
  size_t Count = 0;
};

} // namespace softbound

#endif // SOFTBOUND_IR_FUNCTION_H
