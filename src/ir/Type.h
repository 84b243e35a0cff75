//===- ir/Type.h - IR type system -------------------------------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The IR type system: integers, pointers, arrays, named structs (and
/// unions), function types, plus two SoftBound-specific first-class types:
/// `bounds` (a base/bound metadata pair) and `ptrpair` (the {pointer, base,
/// bound} triple returned by transformed pointer-returning functions, §3.3
/// of the paper). Types are interned and owned by a TypeContext.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_IR_TYPE_H
#define SOFTBOUND_IR_TYPE_H

#include "support/Casting.h"

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace softbound {

class TypeContext;

/// Discriminator for the Type hierarchy.
enum class TypeKind {
  Void,
  Int,
  Pointer,
  Array,
  Struct,
  Function,
  Bounds,  ///< First-class base/bound metadata pair (16 bytes, register-only).
  PtrPair, ///< {ptr, base, bound} triple for transformed returns.
};

/// Base class of all IR types. Immutable and interned; compare by pointer.
class Type {
public:
  TypeKind kind() const { return Kind; }

  bool isVoid() const { return Kind == TypeKind::Void; }
  bool isInt() const { return Kind == TypeKind::Int; }
  bool isPointer() const { return Kind == TypeKind::Pointer; }
  bool isArray() const { return Kind == TypeKind::Array; }
  bool isStruct() const { return Kind == TypeKind::Struct; }
  bool isFunction() const { return Kind == TypeKind::Function; }
  bool isBounds() const { return Kind == TypeKind::Bounds; }
  bool isPtrPair() const { return Kind == TypeKind::PtrPair; }
  /// True for types whose values fit a single 64-bit VM register.
  bool isScalar() const { return isInt() || isPointer(); }

  /// Size of one value of this type in simulated memory, in bytes.
  uint64_t sizeInBytes() const;

  /// Natural alignment of this type in simulated memory.
  uint64_t alignment() const;

  /// Human-readable spelling for printing and diagnostics.
  std::string str() const;

  static bool classof(const Type *) { return true; }

  virtual ~Type() = default;

protected:
  explicit Type(TypeKind Kind) : Kind(Kind) {}

private:
  friend class TypeContext;
  TypeKind Kind;
};

/// Fixed-width integer type (i1, i8, i16, i32, i64).
class IntType : public Type {
public:
  unsigned bits() const { return Bits; }

  static bool classof(const Type *T) { return T->kind() == TypeKind::Int; }

private:
  friend class TypeContext;
  explicit IntType(unsigned Bits) : Type(TypeKind::Int), Bits(Bits) {}
  unsigned Bits;
};

/// Pointer to a pointee type. All pointers are 8 bytes.
class PointerType : public Type {
public:
  Type *pointee() const { return Pointee; }

  static bool classof(const Type *T) { return T->kind() == TypeKind::Pointer; }

private:
  friend class TypeContext;
  explicit PointerType(Type *Pointee)
      : Type(TypeKind::Pointer), Pointee(Pointee) {}
  Type *Pointee;
};

/// Fixed-length array type.
class ArrayType : public Type {
public:
  Type *element() const { return Elem; }
  uint64_t count() const { return Count; }

  static bool classof(const Type *T) { return T->kind() == TypeKind::Array; }

private:
  friend class TypeContext;
  ArrayType(Type *Elem, uint64_t Count)
      : Type(TypeKind::Array), Elem(Elem), Count(Count) {}
  Type *Elem;
  uint64_t Count;
};

/// Named struct or union with C-style layout (natural alignment).
/// Created opaque by TypeContext::createStruct and completed via setBody.
class StructType : public Type {
public:
  const std::string &name() const { return Name; }
  bool isOpaque() const { return !HasBody; }
  unsigned numFields() const { return Fields.size(); }
  Type *field(unsigned I) const {
    assert(I < Fields.size() && "field index out of range");
    return Fields[I];
  }
  const std::string &fieldName(unsigned I) const { return FieldNames[I]; }
  uint64_t fieldOffset(unsigned I) const {
    assert(I < Offsets.size() && "field index out of range");
    return Offsets[I];
  }
  /// Returns the index of the named field, or -1 if absent.
  int fieldIndex(const std::string &Name) const;

  /// Completes an opaque struct; computes offsets, size and alignment.
  void setBody(std::vector<Type *> FieldTys, std::vector<std::string> Names,
               bool IsUnion);

  uint64_t structSize() const { return Size; }
  uint64_t structAlign() const { return Align; }

  static bool classof(const Type *T) { return T->kind() == TypeKind::Struct; }

private:
  friend class TypeContext;
  explicit StructType(std::string Name)
      : Type(TypeKind::Struct), Name(std::move(Name)) {}
  std::string Name;
  std::vector<Type *> Fields;
  std::vector<std::string> FieldNames;
  std::vector<uint64_t> Offsets;
  uint64_t Size = 0;
  uint64_t Align = 1;
  bool Union = false;
  bool HasBody = false;
};

/// Function signature type.
class FunctionType : public Type {
public:
  Type *returnType() const { return Ret; }
  unsigned numParams() const { return Params.size(); }
  Type *param(unsigned I) const { return Params[I]; }
  const std::vector<Type *> &params() const { return Params; }
  bool isVarArg() const { return VarArg; }

  static bool classof(const Type *T) { return T->kind() == TypeKind::Function; }

private:
  friend class TypeContext;
  FunctionType(Type *Ret, std::vector<Type *> Params, bool VarArg)
      : Type(TypeKind::Function), Ret(Ret), Params(std::move(Params)),
        VarArg(VarArg) {}
  Type *Ret;
  std::vector<Type *> Params;
  bool VarArg;
};

/// Owns and interns all types of one module. Interning makes type equality a
/// pointer comparison, as in LLVM's LLVMContext.
class TypeContext {
public:
  TypeContext();
  TypeContext(const TypeContext &) = delete;
  TypeContext &operator=(const TypeContext &) = delete;

  Type *voidTy() { return VoidTy; }
  Type *boundsTy() { return BoundsTy; }
  Type *ptrPairTy() { return PtrPairTy; }
  IntType *intTy(unsigned Bits);
  IntType *i1() { return intTy(1); }
  IntType *i8() { return intTy(8); }
  IntType *i16() { return intTy(16); }
  IntType *i32() { return intTy(32); }
  IntType *i64() { return intTy(64); }
  PointerType *ptrTo(Type *Pointee);
  ArrayType *arrayOf(Type *Elem, uint64_t Count);
  FunctionType *funcTy(Type *Ret, std::vector<Type *> Params,
                       bool VarArg = false);

  /// Creates a fresh opaque named struct. Names must be unique per context.
  StructType *createStruct(const std::string &Name);
  /// Returns the named struct, or null if it does not exist.
  StructType *getStruct(const std::string &Name) const;

private:
  std::vector<std::unique_ptr<Type>> Owned;
  Type *VoidTy, *BoundsTy, *PtrPairTy;
  std::map<unsigned, IntType *> IntTypes;
  std::map<Type *, PointerType *> PtrTypes;
  std::map<std::pair<Type *, uint64_t>, ArrayType *> ArrTypes;
  std::map<std::string, StructType *> Structs;
  std::vector<FunctionType *> FuncTypes;

  template <typename T> T *take(T *Ty) {
    Owned.emplace_back(Ty);
    return Ty;
  }
};

/// Size in bytes of a simulated pointer. The evaluation targets 64-bit x86.
inline constexpr uint64_t PointerSize = 8;

} // namespace softbound

#endif // SOFTBOUND_IR_TYPE_H
