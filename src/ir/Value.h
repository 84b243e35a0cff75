//===- ir/Value.h - SSA values and constants --------------------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Value hierarchy: SSA values produced by instructions, function
/// arguments, and constants (integers, null pointers, undef, global
/// variables, and functions). Mirrors LLVM's Value/Constant design with a
/// Kind discriminator for isa/cast/dyn_cast.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_IR_VALUE_H
#define SOFTBOUND_IR_VALUE_H

#include "ir/Type.h"
#include "support/Casting.h"

#include <cstdint>
#include <string>
#include <vector>

namespace softbound {

class Function;
class Module;

/// Discriminator for the Value hierarchy. Instructions occupy the tail
/// range so that Instruction::classof is a range check.
enum class ValueKind {
  Argument,
  // Constants.
  ConstInt,
  ConstNull,
  ConstUndef,
  Global,
  Func,
  // Instructions (keep Alloca first and ExtractBounds last).
  Alloca,
  Load,
  Store,
  GEP,
  BinOp,
  ICmp,
  Cast,
  Select,
  Phi,
  Call,
  Ret,
  Br,
  Unreachable,
  // SoftBound instrumentation instructions (§3 of the paper).
  MakeBounds,
  SpatialCheck,
  FuncPtrCheck,
  MetaLoad,
  MetaStore,
  PackPB,
  ExtractPtr,
  ExtractBounds,
};

/// Base class of everything that can appear as an instruction operand.
class Value {
public:
  virtual ~Value() = default;
  Value(const Value &) = delete;
  Value &operator=(const Value &) = delete;

  ValueKind kind() const { return Kind; }
  Type *type() const { return Ty; }

  const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  /// VM register slot assigned by Function::renumber; -1 when the value
  /// produces no register (void-typed instructions, constants).
  int slot() const { return Slot; }
  void setSlot(int S) { Slot = S; }

  static bool classof(const Value *) { return true; }

protected:
  Value(ValueKind Kind, Type *Ty, std::string Name = "")
      : Kind(Kind), Ty(Ty), Name(std::move(Name)) {}

private:
  ValueKind Kind;
  Type *Ty;
  std::string Name;
  int Slot = -1;
};

/// A formal parameter of a Function.
class Argument : public Value {
public:
  Argument(Type *Ty, std::string Name, Function *Parent, unsigned Index)
      : Value(ValueKind::Argument, Ty, std::move(Name)), Parent(Parent),
        Index(Index) {}

  Function *parent() const { return Parent; }
  unsigned index() const { return Index; }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::Argument;
  }

private:
  Function *Parent;
  unsigned Index;
};

/// Base class for immutable constant values, interned by the Module.
class Constant : public Value {
public:
  static bool classof(const Value *V) {
    return V->kind() >= ValueKind::ConstInt && V->kind() <= ValueKind::Func;
  }

protected:
  using Value::Value;
};

/// A constant integer of some IntType.
class ConstantInt : public Constant {
public:
  ConstantInt(IntType *Ty, int64_t V)
      : Constant(ValueKind::ConstInt, Ty), Val(V) {}

  /// Sign-extended value.
  int64_t value() const { return Val; }
  /// Value zero-extended from the type's width.
  uint64_t zextValue() const {
    unsigned Bits = cast<IntType>(type())->bits();
    if (Bits == 64)
      return static_cast<uint64_t>(Val);
    return static_cast<uint64_t>(Val) & ((1ULL << Bits) - 1);
  }
  bool isZero() const { return Val == 0; }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::ConstInt;
  }

private:
  int64_t Val;
};

/// The null pointer constant of some pointer type.
class ConstantNull : public Constant {
public:
  explicit ConstantNull(PointerType *Ty)
      : Constant(ValueKind::ConstNull, Ty) {}

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::ConstNull;
  }
};

/// An undefined value of any type (used by mem2reg for uninitialized reads).
class ConstantUndef : public Constant {
public:
  explicit ConstantUndef(Type *Ty) : Constant(ValueKind::ConstUndef, Ty) {}

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::ConstUndef;
  }
};

/// A static initializer image: raw bytes plus pointer relocations that the
/// VM loader patches with the final simulated addresses.
struct GlobalInitializer {
  /// One pointer-sized slot at Offset must be patched to Target's address.
  struct Reloc {
    uint64_t Offset;
    Constant *Target; ///< GlobalVariable or Function.
  };

  std::vector<uint8_t> Bytes; ///< Zero-padded to the global's size.
  std::vector<Reloc> Relocs;
};

/// A module-level global variable. As in LLVM, the Value itself has pointer
/// type; valueType() is the type of the pointed-to storage.
class GlobalVariable : public Constant {
public:
  GlobalVariable(PointerType *PtrTy, Type *ValueTy, std::string Name,
                 GlobalInitializer Init, bool Constant)
      : softbound::Constant(ValueKind::Global, PtrTy, std::move(Name)),
        ValueTy(ValueTy), Init(std::move(Init)), Const(Constant) {}

  Type *valueType() const { return ValueTy; }
  const GlobalInitializer &initializer() const { return Init; }
  GlobalInitializer &initializer() { return Init; }
  bool isConstant() const { return Const; }

  static bool classof(const Value *V) { return V->kind() == ValueKind::Global; }

private:
  Type *ValueTy;
  GlobalInitializer Init;
  bool Const;
};

} // namespace softbound

#endif // SOFTBOUND_IR_VALUE_H
