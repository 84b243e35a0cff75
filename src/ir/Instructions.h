//===- ir/Instructions.h - IR instruction set -------------------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// All IR instructions. The core set mirrors the LLVM instructions the paper's
/// transformation consumes (alloca/load/store/GEP/arithmetic/branches/calls/
/// phi), and the SoftBound set is the instrumentation vocabulary the pass
/// emits: bounds construction, spatial checks, and disjoint-metadata loads
/// and stores (§3.1–§3.2 of the paper).
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_IR_INSTRUCTIONS_H
#define SOFTBOUND_IR_INSTRUCTIONS_H

#include "ir/Value.h"

#include <cassert>

namespace softbound {

class BasicBlock;
class Function;
class FunctionType;

/// Base class of all instructions. Operands are raw Value pointers; use
/// lists are computed on demand by analyses rather than maintained eagerly.
class Instruction : public Value {
public:
  BasicBlock *parent() const { return Parent; }
  void setParent(BasicBlock *BB) { Parent = BB; }

  unsigned numOperands() const { return Ops.size(); }
  Value *op(unsigned I) const {
    assert(I < Ops.size() && "operand index out of range");
    return Ops[I];
  }
  void setOp(unsigned I, Value *V) {
    assert(I < Ops.size() && "operand index out of range");
    Ops[I] = V;
  }
  const std::vector<Value *> &operands() const { return Ops; }

  /// Replaces every operand equal to \p From with \p To.
  void replaceUsesOf(Value *From, Value *To) {
    for (auto &Op : Ops)
      if (Op == From)
        Op = To;
  }

  bool isTerminator() const {
    return kind() == ValueKind::Ret || kind() == ValueKind::Br ||
           kind() == ValueKind::Unreachable;
  }

  /// Stable profiling site ID (Module::assignCheckSites), or -1 when
  /// unassigned. Only check and metadata instructions carry one; the VM
  /// indexes its per-site profile with it and the printer emits it as
  /// ", site N" so reports map back to textual IR.
  int site() const { return SiteId; }
  void setSite(int Id) { SiteId = Id; }

  /// True for instructions with no side effects that are removable when the
  /// result is unused.
  bool isPure() const {
    switch (kind()) {
    case ValueKind::BinOp:
    case ValueKind::ICmp:
    case ValueKind::Cast:
    case ValueKind::Select:
    case ValueKind::GEP:
    case ValueKind::Phi:
    case ValueKind::MakeBounds:
    case ValueKind::PackPB:
    case ValueKind::ExtractPtr:
    case ValueKind::ExtractBounds:
      return true;
    default:
      return false;
    }
  }

  static bool classof(const Value *V) {
    return V->kind() >= ValueKind::Alloca &&
           V->kind() <= ValueKind::ExtractBounds;
  }

protected:
  Instruction(ValueKind Kind, Type *Ty, std::vector<Value *> Operands,
              std::string Name = "")
      : Value(Kind, Ty, std::move(Name)), Ops(std::move(Operands)) {}

  std::vector<Value *> &mutableOps() { return Ops; }

private:
  BasicBlock *Parent = nullptr;
  std::vector<Value *> Ops;
  int SiteId = -1;
};

/// Stack allocation of one value of allocatedType() in the current frame.
/// Yields the address (a pointer to allocatedType()).
class AllocaInst : public Instruction {
public:
  AllocaInst(PointerType *PtrTy, Type *AllocatedTy, std::string Name)
      : Instruction(ValueKind::Alloca, PtrTy, {}, std::move(Name)),
        AllocatedTy(AllocatedTy) {}

  Type *allocatedType() const { return AllocatedTy; }

  static bool classof(const Value *V) { return V->kind() == ValueKind::Alloca; }

private:
  Type *AllocatedTy;
};

/// Loads a value of type() from the pointer operand.
class LoadInst : public Instruction {
public:
  LoadInst(Type *Ty, Value *Ptr, std::string Name)
      : Instruction(ValueKind::Load, Ty, {Ptr}, std::move(Name)) {}

  Value *pointer() const { return op(0); }

  static bool classof(const Value *V) { return V->kind() == ValueKind::Load; }
};

/// Stores the value operand through the pointer operand.
class StoreInst : public Instruction {
public:
  StoreInst(Value *Val, Value *Ptr, Type *VoidTy)
      : Instruction(ValueKind::Store, VoidTy, {Val, Ptr}) {}

  Value *value() const { return op(0); }
  Value *pointer() const { return op(1); }

  static bool classof(const Value *V) { return V->kind() == ValueKind::Store; }
};

/// One index of a GEP resolved against the type layout. Index 0 and every
/// array index are *scaled* steps (address += Index * Bytes); a struct
/// index is a *field* step (address += Bytes, Index the field number).
struct GEPStep {
  unsigned K = 0;         ///< Position among the GEP's indices.
  Value *Index = nullptr; ///< The index operand.
  bool Field = false;     ///< Struct step: Bytes is the field's offset.
  int64_t Bytes = 0;      ///< Field offset, or bytes per unit of Index.
  const ArrayType *Array = nullptr; ///< Array a K > 0 scaled step indexes.
};

/// LLVM-style getelementptr: ops[0] is the base pointer, ops[1..] are
/// indices. The first index scales by sizeof(sourceType()); later indices
/// step into arrays (any value) or structs (ConstantInt field numbers).
class GEPInst : public Instruction {
public:
  GEPInst(PointerType *ResultTy, Type *SourceTy, Value *Ptr,
          std::vector<Value *> Indices, std::string Name)
      : Instruction(ValueKind::GEP, ResultTy, {}, std::move(Name)),
        SourceTy(SourceTy) {
    mutableOps().push_back(Ptr);
    for (auto *I : Indices)
      mutableOps().push_back(I);
  }

  Type *sourceType() const { return SourceTy; }
  Value *pointer() const { return op(0); }
  unsigned numIndices() const { return numOperands() - 1; }
  Value *index(unsigned I) const { return op(I + 1); }

  /// Computes the element type a GEP with these indices points at, walking
  /// from \p SourceTy. Struct steps must be ConstantInt.
  static Type *resultElementType(Type *SourceTy,
                                 const std::vector<Value *> &Indices);

  /// The layout walk every offset-folding pass shares: calls
  /// \p Step(const GEPStep &) for each index in order and returns false as
  /// soon as Step does, or when the index path leaves the type (an index
  /// past a scalar, or a struct index that is not an in-range constant).
  /// Caps, the sign rule and array-count validation are the caller's.
  template <typename StepFn> bool walkSteps(StepFn &&Step) const {
    Type *Cur = SourceTy;
    for (unsigned K = 0; K < numIndices(); ++K) {
      GEPStep S;
      S.K = K;
      S.Index = index(K);
      if (K == 0) {
        S.Bytes = static_cast<int64_t>(Cur->sizeInBytes());
      } else if (auto *AT = dyn_cast<ArrayType>(Cur)) {
        S.Array = AT;
        Cur = AT->element();
        S.Bytes = static_cast<int64_t>(Cur->sizeInBytes());
      } else if (auto *ST = dyn_cast<StructType>(Cur)) {
        auto *CI = dyn_cast<ConstantInt>(S.Index);
        if (!CI || CI->value() < 0 ||
            static_cast<uint64_t>(CI->value()) >= ST->numFields())
          return false;
        auto FieldIdx = static_cast<unsigned>(CI->value());
        S.Field = true;
        S.Bytes = static_cast<int64_t>(ST->fieldOffset(FieldIdx));
        Cur = ST->field(FieldIdx);
      } else {
        return false;
      }
      if (!Step(S))
        return false;
    }
    return true;
  }

  /// Position of the last struct-field step, or 0 when no step selects a
  /// field — the GEPs where SoftBound may shrink bounds (§3.1).
  unsigned lastFieldStep() const {
    unsigned Last = 0;
    walkSteps([&](const GEPStep &S) {
      if (S.Field)
        Last = S.K;
      return true;
    });
    return Last;
  }

  static bool classof(const Value *V) { return V->kind() == ValueKind::GEP; }

private:
  Type *SourceTy;
};

/// Integer binary operation.
class BinOpInst : public Instruction {
public:
  enum class Op {
    Add,
    Sub,
    Mul,
    SDiv,
    UDiv,
    SRem,
    URem,
    And,
    Or,
    Xor,
    Shl,
    LShr,
    AShr,
  };

  BinOpInst(Op O, Value *L, Value *R, std::string Name)
      : Instruction(ValueKind::BinOp, L->type(), {L, R}, std::move(Name)),
        Opcode(O) {}

  Op opcode() const { return Opcode; }
  Value *lhs() const { return op(0); }
  Value *rhs() const { return op(1); }

  static const char *opcodeName(Op O);

  static bool classof(const Value *V) { return V->kind() == ValueKind::BinOp; }

private:
  Op Opcode;
};

/// Integer/pointer comparison producing an i1.
class ICmpInst : public Instruction {
public:
  enum class Pred { EQ, NE, SLT, SLE, SGT, SGE, ULT, ULE, UGT, UGE };

  ICmpInst(Pred P, Value *L, Value *R, Type *I1Ty, std::string Name)
      : Instruction(ValueKind::ICmp, I1Ty, {L, R}, std::move(Name)), P(P) {}

  Pred pred() const { return P; }
  Value *lhs() const { return op(0); }
  Value *rhs() const { return op(1); }

  static const char *predName(Pred P);

  static bool classof(const Value *V) { return V->kind() == ValueKind::ICmp; }

private:
  Pred P;
};

/// Value conversions. Bitcast covers pointer-to-pointer casts; IntToPtr /
/// PtrToInt model C's "wild" integer/pointer conversions (§5.2).
class CastInst : public Instruction {
public:
  enum class Op { Bitcast, PtrToInt, IntToPtr, Trunc, ZExt, SExt };

  CastInst(Op O, Value *V, Type *DestTy, std::string Name)
      : Instruction(ValueKind::Cast, DestTy, {V}, std::move(Name)), Opcode(O) {}

  Op opcode() const { return Opcode; }
  Value *source() const { return op(0); }

  static const char *opcodeName(Op O);

  static bool classof(const Value *V) { return V->kind() == ValueKind::Cast; }

private:
  Op Opcode;
};

/// Ternary select: cond ? ifTrue : ifFalse.
class SelectInst : public Instruction {
public:
  SelectInst(Value *Cond, Value *T, Value *F, std::string Name)
      : Instruction(ValueKind::Select, T->type(), {Cond, T, F},
                    std::move(Name)) {}

  Value *condition() const { return op(0); }
  Value *ifTrue() const { return op(1); }
  Value *ifFalse() const { return op(2); }

  static bool classof(const Value *V) { return V->kind() == ValueKind::Select; }
};

/// SSA phi node. Incoming values are the operands; incoming blocks are kept
/// in a parallel array.
class PhiInst : public Instruction {
public:
  PhiInst(Type *Ty, std::string Name)
      : Instruction(ValueKind::Phi, Ty, {}, std::move(Name)) {}

  void addIncoming(Value *V, BasicBlock *BB) {
    mutableOps().push_back(V);
    Blocks.push_back(BB);
  }

  unsigned numIncoming() const { return numOperands(); }
  Value *incomingValue(unsigned I) const { return op(I); }
  BasicBlock *incomingBlock(unsigned I) const { return Blocks[I]; }
  void setIncomingBlock(unsigned I, BasicBlock *BB) { Blocks[I] = BB; }

  /// Drops every entry whose incoming block is \p BB, keeping the order
  /// of the rest.
  void removeIncomingFor(const BasicBlock *BB) {
    auto &Ops = mutableOps();
    unsigned Out = 0;
    for (unsigned I = 0; I < Blocks.size(); ++I)
      if (Blocks[I] != BB) {
        Ops[Out] = Ops[I];
        Blocks[Out++] = Blocks[I];
      }
    Ops.resize(Out);
    Blocks.resize(Out);
  }

  /// Returns the incoming value for \p BB, or null when absent.
  Value *incomingFor(const BasicBlock *BB) const {
    for (unsigned I = 0; I < Blocks.size(); ++I)
      if (Blocks[I] == BB)
        return incomingValue(I);
    return nullptr;
  }

  static bool classof(const Value *V) { return V->kind() == ValueKind::Phi; }

private:
  std::vector<BasicBlock *> Blocks;
};

/// Function call. ops[0] is the callee (a Function constant for direct
/// calls, any pointer value for indirect calls); ops[1..] are arguments.
class CallInst : public Instruction {
public:
  CallInst(FunctionType *CalleeTy, Value *Callee, std::vector<Value *> Args,
           Type *ResultTy, std::string Name)
      : Instruction(ValueKind::Call, ResultTy, {}, std::move(Name)),
        CalleeTy(CalleeTy) {
    mutableOps().push_back(Callee);
    for (auto *A : Args)
      mutableOps().push_back(A);
  }

  FunctionType *calleeType() const { return CalleeTy; }
  Value *callee() const { return op(0); }
  unsigned numArgs() const { return numOperands() - 1; }
  Value *arg(unsigned I) const { return op(I + 1); }
  void appendArg(Value *V) { mutableOps().push_back(V); }

  /// Returns the statically known callee, or null for indirect calls.
  Function *calledFunction() const;

  /// True when the callee is not a statically known Function — the case
  /// the inter-procedural analyses must treat as "could be any
  /// address-taken function" (§5.2 function-pointer encoding).
  bool isIndirect() const { return calledFunction() == nullptr; }

  static bool classof(const Value *V) { return V->kind() == ValueKind::Call; }

private:
  FunctionType *CalleeTy;
};

/// Function return, with an optional value.
class RetInst : public Instruction {
public:
  RetInst(Type *VoidTy, Value *V)
      : Instruction(ValueKind::Ret, VoidTy, V ? std::vector<Value *>{V}
                                              : std::vector<Value *>{}) {}

  bool hasValue() const { return numOperands() == 1; }
  Value *value() const { return hasValue() ? op(0) : nullptr; }

  static bool classof(const Value *V) { return V->kind() == ValueKind::Ret; }
};

/// Conditional or unconditional branch. Successors are block references,
/// not operands.
class BrInst : public Instruction {
public:
  /// Unconditional.
  BrInst(Type *VoidTy, BasicBlock *Dest)
      : Instruction(ValueKind::Br, VoidTy, {}), Succs{Dest, nullptr} {}
  /// Conditional.
  BrInst(Type *VoidTy, Value *Cond, BasicBlock *IfTrue, BasicBlock *IfFalse)
      : Instruction(ValueKind::Br, VoidTy, {Cond}), Succs{IfTrue, IfFalse} {}

  bool isConditional() const { return numOperands() == 1; }
  Value *condition() const {
    assert(isConditional() && "no condition on unconditional branch");
    return op(0);
  }
  unsigned numSuccessors() const { return isConditional() ? 2 : 1; }
  BasicBlock *successor(unsigned I) const {
    assert(I < numSuccessors() && "successor index out of range");
    return Succs[I];
  }

  static bool classof(const Value *V) { return V->kind() == ValueKind::Br; }

private:
  BasicBlock *Succs[2];
};

/// Marks statically unreachable control flow; trap if executed.
class UnreachableInst : public Instruction {
public:
  explicit UnreachableInst(Type *VoidTy)
      : Instruction(ValueKind::Unreachable, VoidTy, {}) {}

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::Unreachable;
  }
};

//===----------------------------------------------------------------------===//
// SoftBound instrumentation instructions (§3 of the paper).
//===----------------------------------------------------------------------===//

/// Builds a first-class bounds value from base and bound words (pointers or
/// i64). Corresponds to the paper's "ptr_base = …; ptr_bound = …" pairs.
class MakeBoundsInst : public Instruction {
public:
  MakeBoundsInst(Type *BoundsTy, Value *Base, Value *Bound, std::string Name)
      : Instruction(ValueKind::MakeBounds, BoundsTy, {Base, Bound},
                    std::move(Name)) {}

  Value *base() const { return op(0); }
  Value *bound() const { return op(1); }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::MakeBounds;
  }
};

/// The dereference check of §3.1: aborts unless
/// base <= ptr && ptr + accessSize <= bound.
///
/// A check may carry an optional i1 *guard* as a third operand: the check
/// is evaluated only when the guard is true at run time, and is a no-op
/// otherwise. This is the vocabulary of run-time-limit hull hoisting
/// (opt/checks/LoopHoist.cpp): the pre-loop hull checks are guarded by
/// the trip/wrap window over the loop limit, and the original in-loop
/// check survives as the fallback guarded by the window's complement.
/// Guarded checks are second-class for every static analysis — they must
/// never source facts or summaries, because nothing guarantees they
/// executed (see RedundantChecks.cpp / InterProc.cpp).
class SpatialCheckInst : public Instruction {
public:
  SpatialCheckInst(Type *VoidTy, Value *Ptr, Value *Bounds,
                   uint64_t AccessSize, bool IsStore, Value *Guard = nullptr)
      : Instruction(ValueKind::SpatialCheck, VoidTy,
                    Guard ? std::vector<Value *>{Ptr, Bounds, Guard}
                          : std::vector<Value *>{Ptr, Bounds}),
        AccessSize(AccessSize), Store(IsStore) {}

  Value *pointer() const { return op(0); }
  Value *bounds() const { return op(1); }
  /// The i1 guard, or null for an unconditional check.
  Value *guard() const { return numOperands() > 2 ? op(2) : nullptr; }
  bool isGuarded() const { return numOperands() > 2; }
  uint64_t accessSize() const { return AccessSize; }
  bool isStoreCheck() const { return Store; }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::SpatialCheck;
  }

private:
  uint64_t AccessSize;
  bool Store;
};

/// Indirect-call check (§5.2): aborts unless base == bound == ptr, the
/// encoding SoftBound reserves for function pointers.
class FuncPtrCheckInst : public Instruction {
public:
  FuncPtrCheckInst(Type *VoidTy, Value *Ptr, Value *Bounds)
      : Instruction(ValueKind::FuncPtrCheck, VoidTy, {Ptr, Bounds}) {}

  Value *pointer() const { return op(0); }
  Value *bounds() const { return op(1); }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::FuncPtrCheck;
  }
};

/// Disjoint-metadata lookup (§3.2): yields the bounds recorded for the
/// pointer stored at the given address.
class MetaLoadInst : public Instruction {
public:
  MetaLoadInst(Type *BoundsTy, Value *Addr, std::string Name)
      : Instruction(ValueKind::MetaLoad, BoundsTy, {Addr}, std::move(Name)) {}

  Value *address() const { return op(0); }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::MetaLoad;
  }
};

/// Disjoint-metadata update (§3.2): records bounds for the pointer stored
/// at the given address.
class MetaStoreInst : public Instruction {
public:
  MetaStoreInst(Type *VoidTy, Value *Addr, Value *Bounds)
      : Instruction(ValueKind::MetaStore, VoidTy, {Addr, Bounds}) {}

  Value *address() const { return op(0); }
  Value *bounds() const { return op(1); }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::MetaStore;
  }
};

/// Packs {ptr, bounds} into a ptrpair — the by-value triple a transformed
/// pointer-returning function returns (§3.3).
class PackPBInst : public Instruction {
public:
  PackPBInst(Type *PtrPairTy, Value *Ptr, Value *Bounds, std::string Name)
      : Instruction(ValueKind::PackPB, PtrPairTy, {Ptr, Bounds},
                    std::move(Name)) {}

  Value *pointer() const { return op(0); }
  Value *bounds() const { return op(1); }

  static bool classof(const Value *V) { return V->kind() == ValueKind::PackPB; }
};

/// Extracts the pointer component of a ptrpair.
class ExtractPtrInst : public Instruction {
public:
  ExtractPtrInst(PointerType *PtrTy, Value *Pair, std::string Name)
      : Instruction(ValueKind::ExtractPtr, PtrTy, {Pair}, std::move(Name)) {}

  Value *pair() const { return op(0); }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::ExtractPtr;
  }
};

/// Extracts the bounds component of a ptrpair.
class ExtractBoundsInst : public Instruction {
public:
  ExtractBoundsInst(Type *BoundsTy, Value *Pair, std::string Name)
      : Instruction(ValueKind::ExtractBounds, BoundsTy, {Pair},
                    std::move(Name)) {}

  Value *pair() const { return op(0); }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::ExtractBounds;
  }
};

} // namespace softbound

#endif // SOFTBOUND_IR_INSTRUCTIONS_H
