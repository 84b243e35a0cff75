//===- ir/Type.cpp - IR type system ---------------------------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Type.h"

#include "support/Compiler.h"

using namespace softbound;

uint64_t Type::sizeInBytes() const {
  switch (Kind) {
  case TypeKind::Void:
    return 0;
  case TypeKind::Int: {
    unsigned Bits = cast<IntType>(this)->bits();
    return Bits <= 8 ? 1 : Bits / 8;
  }
  case TypeKind::Pointer:
    return PointerSize;
  case TypeKind::Array: {
    const auto *AT = cast<ArrayType>(this);
    return AT->element()->sizeInBytes() * AT->count();
  }
  case TypeKind::Struct:
    return cast<StructType>(this)->structSize();
  case TypeKind::Function:
    return 0;
  case TypeKind::Bounds:
    return 16;
  case TypeKind::PtrPair:
    return 24;
  }
  sb_unreachable("covered switch");
}

uint64_t Type::alignment() const {
  switch (Kind) {
  case TypeKind::Void:
  case TypeKind::Function:
    return 1;
  case TypeKind::Int:
    return sizeInBytes();
  case TypeKind::Pointer:
  case TypeKind::Bounds:
  case TypeKind::PtrPair:
    return 8;
  case TypeKind::Array:
    return cast<ArrayType>(this)->element()->alignment();
  case TypeKind::Struct:
    return cast<StructType>(this)->structAlign();
  }
  sb_unreachable("covered switch");
}

std::string Type::str() const {
  switch (Kind) {
  case TypeKind::Void:
    return "void";
  case TypeKind::Int: {
    std::string S = "i";
    return S += std::to_string(cast<IntType>(this)->bits());
  }
  case TypeKind::Pointer:
    return cast<PointerType>(this)->pointee()->str() + "*";
  case TypeKind::Array: {
    const auto *AT = cast<ArrayType>(this);
    std::string S = "[";
    S += std::to_string(AT->count());
    return S += " x " + AT->element()->str() + "]";
  }
  case TypeKind::Struct:
    return "%" + cast<StructType>(this)->name();
  case TypeKind::Function: {
    const auto *FT = cast<FunctionType>(this);
    std::string S = FT->returnType()->str() + " (";
    for (unsigned I = 0; I < FT->numParams(); ++I) {
      if (I)
        S += ", ";
      S += FT->param(I)->str();
    }
    if (FT->isVarArg())
      S += FT->numParams() ? ", ..." : "...";
    return S + ")";
  }
  case TypeKind::Bounds:
    return "bounds";
  case TypeKind::PtrPair:
    return "ptrpair";
  }
  sb_unreachable("covered switch");
}

int StructType::fieldIndex(const std::string &FName) const {
  for (unsigned I = 0; I < FieldNames.size(); ++I)
    if (FieldNames[I] == FName)
      return static_cast<int>(I);
  return -1;
}

static uint64_t alignTo(uint64_t Value, uint64_t Align) {
  return (Value + Align - 1) / Align * Align;
}

void StructType::setBody(std::vector<Type *> FieldTys,
                         std::vector<std::string> Names, bool IsUnion) {
  assert(!HasBody && "struct body set twice");
  assert(FieldTys.size() == Names.size() && "field/name count mismatch");
  Fields = std::move(FieldTys);
  FieldNames = std::move(Names);
  Union = IsUnion;
  HasBody = true;

  Offsets.assign(Fields.size(), 0);
  Size = 0;
  Align = 1;
  for (unsigned I = 0; I < Fields.size(); ++I) {
    Type *FT = Fields[I];
    uint64_t FAlign = FT->alignment();
    if (FAlign > Align)
      Align = FAlign;
    if (Union) {
      Offsets[I] = 0;
      if (FT->sizeInBytes() > Size)
        Size = FT->sizeInBytes();
      continue;
    }
    Size = alignTo(Size, FAlign);
    Offsets[I] = Size;
    Size += FT->sizeInBytes();
  }
  Size = alignTo(Size, Align);
  if (Size == 0)
    Size = 1; // Empty structs still occupy one byte, as in C++.
}

TypeContext::TypeContext() {
  VoidTy = take(new Type(TypeKind::Void));
  BoundsTy = take(new Type(TypeKind::Bounds));
  PtrPairTy = take(new Type(TypeKind::PtrPair));
}

IntType *TypeContext::intTy(unsigned Bits) {
  assert((Bits == 1 || Bits == 8 || Bits == 16 || Bits == 32 || Bits == 64) &&
         "unsupported integer width");
  auto It = IntTypes.find(Bits);
  if (It != IntTypes.end())
    return It->second;
  auto *T = take(new IntType(Bits));
  IntTypes[Bits] = T;
  return T;
}

PointerType *TypeContext::ptrTo(Type *Pointee) {
  auto It = PtrTypes.find(Pointee);
  if (It != PtrTypes.end())
    return It->second;
  auto *T = take(new PointerType(Pointee));
  PtrTypes[Pointee] = T;
  return T;
}

ArrayType *TypeContext::arrayOf(Type *Elem, uint64_t Count) {
  auto Key = std::make_pair(Elem, Count);
  auto It = ArrTypes.find(Key);
  if (It != ArrTypes.end())
    return It->second;
  auto *T = take(new ArrayType(Elem, Count));
  ArrTypes[Key] = T;
  return T;
}

FunctionType *TypeContext::funcTy(Type *Ret, std::vector<Type *> Params,
                                  bool VarArg) {
  for (auto *FT : FuncTypes) {
    if (FT->returnType() != Ret || FT->isVarArg() != VarArg ||
        FT->params() != Params)
      continue;
    return FT;
  }
  auto *T = take(new FunctionType(Ret, std::move(Params), VarArg));
  FuncTypes.push_back(T);
  return T;
}

StructType *TypeContext::createStruct(const std::string &Name) {
  assert(!Structs.count(Name) && "duplicate struct name");
  auto *T = take(new StructType(Name));
  Structs[Name] = T;
  return T;
}

StructType *TypeContext::getStruct(const std::string &Name) const {
  auto It = Structs.find(Name);
  return It == Structs.end() ? nullptr : It->second;
}
