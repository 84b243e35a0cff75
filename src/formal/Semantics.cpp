//===- formal/Semantics.cpp - §4 operational semantics ----------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "formal/Semantics.h"

using namespace softbound;
using namespace softbound::formal;

//===----------------------------------------------------------------------===//
// Constructors
//===----------------------------------------------------------------------===//

std::shared_ptr<FType> softbound::formal::intTy() {
  auto T = std::make_shared<FType>();
  T->K = FType::Int;
  return T;
}

std::shared_ptr<FType> softbound::formal::ptrTy(std::shared_ptr<FType> In) {
  auto T = std::make_shared<FType>();
  T->K = FType::Ptr;
  T->Inner = std::move(In);
  return T;
}

std::shared_ptr<FType> softbound::formal::structTy(
    std::vector<std::pair<std::string, std::shared_ptr<FType>>> Fields) {
  auto T = std::make_shared<FType>();
  T->K = FType::Struct;
  T->Fields = std::move(Fields);
  return T;
}

std::shared_ptr<LHS> softbound::formal::var(const std::string &N) {
  auto L = std::make_shared<LHS>();
  L->K = LHS::Var;
  L->Name = N;
  return L;
}

std::shared_ptr<LHS> softbound::formal::deref(std::shared_ptr<LHS> B) {
  auto L = std::make_shared<LHS>();
  L->K = LHS::Deref;
  L->Base = std::move(B);
  return L;
}

std::shared_ptr<LHS> softbound::formal::dot(std::shared_ptr<LHS> B,
                                            const std::string &F) {
  auto L = std::make_shared<LHS>();
  L->K = LHS::Dot;
  L->Base = std::move(B);
  L->Name = F;
  return L;
}

std::shared_ptr<LHS> softbound::formal::arrow(std::shared_ptr<LHS> B,
                                              const std::string &F) {
  auto L = std::make_shared<LHS>();
  L->K = LHS::Arrow;
  L->Base = std::move(B);
  L->Name = F;
  return L;
}

std::shared_ptr<RHS> softbound::formal::constant(int64_t V) {
  auto R = std::make_shared<RHS>();
  R->K = RHS::Const;
  R->I = V;
  return R;
}

std::shared_ptr<RHS> softbound::formal::add(std::shared_ptr<RHS> A,
                                            std::shared_ptr<RHS> B) {
  auto R = std::make_shared<RHS>();
  R->K = RHS::Add;
  R->A = std::move(A);
  R->B = std::move(B);
  return R;
}

std::shared_ptr<RHS> softbound::formal::lhsExpr(std::shared_ptr<LHS> L) {
  auto R = std::make_shared<RHS>();
  R->K = RHS::Lhs;
  R->L = std::move(L);
  return R;
}

std::shared_ptr<RHS> softbound::formal::addrOf(std::shared_ptr<LHS> L) {
  auto R = std::make_shared<RHS>();
  R->K = RHS::AddrOf;
  R->L = std::move(L);
  return R;
}

std::shared_ptr<RHS> softbound::formal::castTo(std::shared_ptr<FType> T,
                                               std::shared_ptr<RHS> R0) {
  auto R = std::make_shared<RHS>();
  R->K = RHS::Cast;
  R->Ty = std::move(T);
  R->A = std::move(R0);
  return R;
}

std::shared_ptr<RHS> softbound::formal::mallocOf(std::shared_ptr<RHS> N) {
  auto R = std::make_shared<RHS>();
  R->K = RHS::Malloc;
  R->A = std::move(N);
  return R;
}

std::shared_ptr<Cmd> softbound::formal::assign(std::shared_ptr<LHS> L,
                                               std::shared_ptr<RHS> R) {
  auto C = std::make_shared<Cmd>();
  C->K = Cmd::Assign;
  C->L = std::move(L);
  C->R = std::move(R);
  return C;
}

std::shared_ptr<Cmd> softbound::formal::seq(std::shared_ptr<Cmd> A,
                                            std::shared_ptr<Cmd> B) {
  auto C = std::make_shared<Cmd>();
  C->K = Cmd::Seq;
  C->C1 = std::move(A);
  C->C2 = std::move(B);
  return C;
}

//===----------------------------------------------------------------------===//
// Memory primitives (Table 2, with the axioms realized directly)
//===----------------------------------------------------------------------===//

bool softbound::formal::readMem(const Env &E, uint64_t L, MValue &Out) {
  auto It = E.Mem.find(L);
  if (It == E.Mem.end())
    return false; // Access to unallocated memory: read fails.
  Out = It->second.D;
  return true;
}

bool softbound::formal::writeMem(Env &E, uint64_t L, const MValue &D) {
  auto It = E.Mem.find(L);
  if (It == E.Mem.end())
    return false;
  It->second.D = D;
  return true;
}

uint64_t softbound::formal::mallocMem(Env &E, uint64_t Words) {
  if (Words == 0)
    Words = 1;
  if (E.NextAlloc + Words >= E.MaxAddr)
    return 0; // Out of memory.
  uint64_t Base = E.NextAlloc;
  E.NextAlloc += Words;
  // "malloc returns a region that was previously unallocated": fresh cells.
  for (uint64_t I = 0; I < Words; ++I)
    E.Mem[Base + I] = Cell();
  return Base;
}

//===----------------------------------------------------------------------===//
// Typing helpers
//===----------------------------------------------------------------------===//

namespace {

bool sameTy(const FType &A, const FType &B) {
  if (A.K != B.K)
    return false;
  switch (A.K) {
  case FType::Int:
  case FType::Void:
    return true;
  case FType::Ptr:
    return sameTy(*A.Inner, *B.Inner);
  case FType::Struct: {
    if (A.Fields.size() != B.Fields.size())
      return false;
    for (size_t I = 0; I < A.Fields.size(); ++I)
      if (A.Fields[I].first != B.Fields[I].first ||
          !sameTy(*A.Fields[I].second, *B.Fields[I].second))
        return false;
    return true;
  }
  }
  return false;
}

/// Static type of an lhs, or null if ill-typed. Mirrors `S |- lhs : a`.
std::shared_ptr<FType> typeOfLHS(const Env &E, const LHS &L) {
  switch (L.K) {
  case LHS::Var: {
    auto It = E.Stack.find(L.Name);
    return It == E.Stack.end() ? nullptr : It->second.second;
  }
  case LHS::Deref: {
    auto BT = typeOfLHS(E, *L.Base);
    if (!BT || BT->K != FType::Ptr || !BT->Inner->isAtomic())
      return nullptr;
    return BT->Inner;
  }
  case LHS::Dot: {
    auto BT = typeOfLHS(E, *L.Base);
    if (!BT || BT->K != FType::Struct)
      return nullptr;
    for (auto &F : BT->Fields)
      if (F.first == L.Name)
        return F.second;
    return nullptr;
  }
  case LHS::Arrow: {
    auto BT = typeOfLHS(E, *L.Base);
    if (!BT || BT->K != FType::Ptr || BT->Inner->K != FType::Struct)
      return nullptr;
    for (auto &F : BT->Inner->Fields)
      if (F.first == L.Name)
        return F.second;
    return nullptr;
  }
  }
  return nullptr;
}

std::shared_ptr<FType> typeOfRHS(const Env &E, const RHS &R) {
  switch (R.K) {
  case RHS::Const:
  case RHS::SizeOf:
    return intTy();
  case RHS::Add: {
    auto A = typeOfRHS(E, *R.A);
    auto B = typeOfRHS(E, *R.B);
    if (!A || !B)
      return nullptr;
    // int + int, or ptr + int (pointer arithmetic).
    if (A->K == FType::Int && B->K == FType::Int)
      return A;
    if (A->K == FType::Ptr && B->K == FType::Int)
      return A;
    return nullptr;
  }
  case RHS::Lhs:
    return typeOfLHS(E, *R.L);
  case RHS::AddrOf: {
    auto T = typeOfLHS(E, *R.L);
    return T ? ptrTy(T) : nullptr;
  }
  case RHS::Cast: {
    auto T = typeOfRHS(E, *R.A);
    if (!T || !R.Ty || !R.Ty->isAtomic())
      return nullptr;
    return R.Ty; // Arbitrary casts between atomic types are permitted.
  }
  case RHS::Malloc: {
    auto T = typeOfRHS(E, *R.A);
    if (!T || T->K != FType::Int)
      return nullptr;
    return ptrTy(intTy()); // Model: malloc yields int* (cast as needed).
  }
  }
  return nullptr;
}

} // namespace

//===----------------------------------------------------------------------===//
// Evaluation (§4.2)
//===----------------------------------------------------------------------===//

LResult softbound::formal::evalLHS(Env &E, const LHS &L) {
  LResult Out;
  switch (L.K) {
  case LHS::Var: {
    auto It = E.Stack.find(L.Name);
    if (It == E.Stack.end())
      return Out; // Stuck: unknown variable.
    Out.O = Outcome::Ok;
    Out.Addr = It->second.first;
    Out.Ty = It->second.second;
    return Out;
  }
  case LHS::Deref: {
    LResult B = evalLHS(E, *L.Base);
    if (B.O != Outcome::Ok) {
      Out.O = B.O;
      return Out;
    }
    if (!B.Ty || B.Ty->K != FType::Ptr)
      return Out; // Stuck: dereference of non-pointer.
    MValue D;
    if (!readMem(E, B.Addr, D))
      return Out; // Stuck: the underlying location vanished.
    // The two §4.2 rules: check succeeds -> value; fails -> Abort.
    uint64_t V = static_cast<uint64_t>(D.V);
    uint64_t Size = B.Ty->Inner->size();
    // The Coq model works over unbounded naturals; a 64-bit realization
    // must also reject v + size wrapping past 2^64 (found by the property
    // sweep: p = q + (-1) on a null-bounds pointer wraps the check).
    if (!(D.Base <= V && V + Size >= V && V + Size <= D.Bound)) {
      Out.O = Outcome::Abort;
      return Out;
    }
    Out.O = Outcome::Ok;
    Out.Addr = V;
    Out.Ty = B.Ty->Inner;
    return Out;
  }
  case LHS::Dot: {
    LResult B = evalLHS(E, *L.Base);
    if (B.O != Outcome::Ok) {
      Out.O = B.O;
      return Out;
    }
    if (!B.Ty || B.Ty->K != FType::Struct)
      return Out;
    uint64_t Off = 0;
    for (auto &F : B.Ty->Fields) {
      if (F.first == L.Name) {
        Out.O = Outcome::Ok;
        Out.Addr = B.Addr + Off;
        Out.Ty = F.second;
        return Out;
      }
      Off += F.second->size();
    }
    return Out; // Stuck: no such field.
  }
  case LHS::Arrow: {
    // lhs->id == (*lhs).id
    LHS D;
    D.K = LHS::Deref;
    D.Base = L.Base;
    LHS Dotted;
    Dotted.K = LHS::Dot;
    Dotted.Base = std::make_shared<LHS>(D);
    Dotted.Name = L.Name;
    // Deref through a pointer-to-struct needs its own rule because Deref
    // above requires an atomic pointee; inline it here.
    LResult B = evalLHS(E, *L.Base);
    if (B.O != Outcome::Ok) {
      Out.O = B.O;
      return Out;
    }
    if (!B.Ty || B.Ty->K != FType::Ptr || B.Ty->Inner->K != FType::Struct)
      return Out;
    MValue DV;
    if (!readMem(E, B.Addr, DV))
      return Out;
    uint64_t V = static_cast<uint64_t>(DV.V);
    uint64_t Size = B.Ty->Inner->size();
    if (!(DV.Base <= V && V + Size >= V && V + Size <= DV.Bound)) {
      Out.O = Outcome::Abort;
      return Out;
    }
    uint64_t Off = 0;
    for (auto &F : B.Ty->Inner->Fields) {
      if (F.first == L.Name) {
        Out.O = Outcome::Ok;
        Out.Addr = V + Off;
        Out.Ty = F.second;
        return Out;
      }
      Off += F.second->size();
    }
    return Out;
  }
  }
  return Out;
}

RResult softbound::formal::evalRHS(Env &E, const RHS &R) {
  RResult Out;
  switch (R.K) {
  case RHS::Const:
    Out.O = Outcome::Ok;
    Out.V = MValue{R.I, 0, 0}; // Integers carry null metadata.
    Out.Ty = intTy();
    return Out;
  case RHS::SizeOf:
    Out.O = Outcome::Ok;
    Out.V = MValue{static_cast<int64_t>(R.Ty ? R.Ty->size() : 1), 0, 0};
    Out.Ty = intTy();
    return Out;
  case RHS::Add: {
    RResult A = evalRHS(E, *R.A);
    if (A.O != Outcome::Ok)
      return A;
    RResult B = evalRHS(E, *R.B);
    if (B.O != Outcome::Ok)
      return B;
    if (!A.Ty || !B.Ty || B.Ty->K != FType::Int)
      return Out;
    Out.O = Outcome::Ok;
    // Pointer arithmetic propagates the metadata (§3.1).
    Out.V = MValue{A.V.V + B.V.V * static_cast<int64_t>(
                                       A.Ty->K == FType::Ptr
                                           ? A.Ty->Inner->size()
                                           : 1),
                   A.V.Base, A.V.Bound};
    Out.Ty = A.Ty;
    return Out;
  }
  case RHS::Lhs: {
    LResult L = evalLHS(E, *R.L);
    if (L.O != Outcome::Ok) {
      Out.O = L.O;
      return Out;
    }
    if (!L.Ty->isAtomic())
      return Out; // Stuck: reading a whole struct is not in the fragment.
    MValue D;
    if (!readMem(E, L.Addr, D))
      return Out; // Stuck: unallocated — Progress says unreachable.
    Out.O = Outcome::Ok;
    Out.V = D;
    Out.Ty = L.Ty;
    return Out;
  }
  case RHS::AddrOf: {
    LResult L = evalLHS(E, *R.L);
    if (L.O != Outcome::Ok) {
      Out.O = L.O;
      return Out;
    }
    Out.O = Outcome::Ok;
    // &lhs has the bounds of the object it points into (§3.1).
    Out.V = MValue{static_cast<int64_t>(L.Addr), L.Addr,
                   L.Addr + L.Ty->size()};
    Out.Ty = ptrTy(L.Ty);
    return Out;
  }
  case RHS::Cast: {
    RResult A = evalRHS(E, *R.A);
    if (A.O != Outcome::Ok)
      return A;
    Out.O = Outcome::Ok;
    // Casts preserve the value and its metadata; int->ptr yields null
    // bounds (§5.2) unless the integer came from a pointer (the model
    // keeps the conservative rule: metadata survives ptr->ptr only).
    if (R.Ty->K == FType::Ptr && A.Ty->K == FType::Ptr)
      Out.V = A.V;
    else if (R.Ty->K == FType::Ptr)
      Out.V = MValue{A.V.V, 0, 0};
    else
      Out.V = MValue{A.V.V, 0, 0};
    Out.Ty = R.Ty;
    return Out;
  }
  case RHS::Malloc: {
    RResult N = evalRHS(E, *R.A);
    if (N.O != Outcome::Ok)
      return N;
    if (N.V.V <= 0) {
      // Zero/negative requests produce a null pointer with null bounds.
      Out.O = Outcome::Ok;
      Out.V = MValue{0, 0, 0};
      Out.Ty = ptrTy(intTy());
      return Out;
    }
    uint64_t Base = mallocMem(E, static_cast<uint64_t>(N.V.V));
    if (!Base) {
      Out.O = Outcome::OutOfMem;
      return Out;
    }
    Out.O = Outcome::Ok;
    Out.V = MValue{static_cast<int64_t>(Base), Base,
                   Base + static_cast<uint64_t>(N.V.V)};
    Out.Ty = ptrTy(intTy());
    return Out;
  }
  }
  return Out;
}

Outcome softbound::formal::evalCmd(Env &E, const Cmd &C) {
  if (C.K == Cmd::Seq) {
    Outcome O = evalCmd(E, *C.C1);
    if (O != Outcome::Ok)
      return O;
    return evalCmd(E, *C.C2);
  }
  // Assignment: evaluate rhs, then the lhs location, then write.
  RResult R = evalRHS(E, *C.R);
  if (R.O != Outcome::Ok)
    return R.O;
  LResult L = evalLHS(E, *C.L);
  if (L.O != Outcome::Ok)
    return L.O;
  if (!L.Ty->isAtomic())
    return Outcome::Stuck;
  if (!writeMem(E, L.Addr, R.V))
    return Outcome::Stuck; // Unallocated write: Progress-excluded.
  return Outcome::Ok;
}

//===----------------------------------------------------------------------===//
// Well-formedness (§4.3)
//===----------------------------------------------------------------------===//

bool softbound::formal::wfValue(const Env &E, const MValue &D) {
  if (D.Base == 0)
    return true;
  if (!(D.Base <= D.Bound && D.Bound < E.MaxAddr && D.Base >= 1))
    return false;
  for (uint64_t I = D.Base; I < D.Bound; ++I)
    if (!E.allocated(I))
      return false;
  return true;
}

bool softbound::formal::wfMem(const Env &E) {
  for (const auto &[L, C] : E.Mem)
    if (!wfValue(E, C.D))
      return false;
  return true;
}

bool softbound::formal::wfStack(const Env &E) {
  for (const auto &[Name, Slot] : E.Stack) {
    auto &[Addr, Ty] = Slot;
    if (!Ty || !Ty->isAtomic())
      return false;
    if (!E.allocated(Addr))
      return false;
  }
  return true;
}

bool softbound::formal::wfEnv(const Env &E) { return wfStack(E) && wfMem(E); }

bool softbound::formal::wfCmd(const Env &E, const Cmd &C) {
  if (C.K == Cmd::Seq)
    return wfCmd(E, *C.C1) && wfCmd(E, *C.C2);
  auto LT = typeOfLHS(E, *C.L);
  auto RT = typeOfRHS(E, *C.R);
  if (!LT || !RT || !LT->isAtomic())
    return false;
  // Assignments require matching atomic types, except int-constant-to-
  // pointer zeroing is excluded here (the fragment's typing is strict).
  return sameTy(*LT, *RT);
}

//===----------------------------------------------------------------------===//
// Theorem checking
//===----------------------------------------------------------------------===//

TheoremCheck softbound::formal::checkTheorems(Env E, const Cmd &C) {
  TheoremCheck Out;
  if (!wfEnv(E) || !wfCmd(E, C)) {
    // Premises not met; the theorems say nothing. Report vacuous success.
    return Out;
  }

  // Evaluate command-by-command (Seq is the only composition) so that the
  // invariant is re-checked at every intermediate state, which is exactly
  // what Preservation asserts.
  std::vector<const Cmd *> Stack{&C};
  std::vector<const Cmd *> Linear;
  while (!Stack.empty()) {
    const Cmd *Cur = Stack.back();
    Stack.pop_back();
    if (Cur->K == Cmd::Seq) {
      Stack.push_back(Cur->C2.get());
      Stack.push_back(Cur->C1.get());
    } else {
      Linear.push_back(Cur);
    }
  }

  for (const Cmd *Step : Linear) {
    Outcome O = evalCmd(E, *Step);
    Out.Result = O;
    if (O == Outcome::Stuck) {
      Out.ProgressHolds = false; // Progress violated: evaluation stuck.
      return Out;
    }
    if (!wfEnv(E)) {
      Out.PreservationHolds = false;
      return Out;
    }
    if (O != Outcome::Ok)
      return Out; // Abort / OutOfMem: legal terminal outcomes.
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Random program generation
//===----------------------------------------------------------------------===//

Env softbound::formal::makeInitialEnv(RNG & /*R*/) {
  Env E;
  auto AllocVar = [&](const std::string &Name, std::shared_ptr<FType> Ty) {
    uint64_t Addr = mallocMem(E, 1);
    E.Stack[Name] = {Addr, Ty};
  };
  // A few ints, pointers to int, pointer-to-pointer, and a pointer to a
  // named-struct-like record (one unfolding).
  AllocVar("i0", intTy());
  AllocVar("i1", intTy());
  AllocVar("i2", intTy());
  AllocVar("p0", ptrTy(intTy()));
  AllocVar("p1", ptrTy(intTy()));
  AllocVar("pp", ptrTy(ptrTy(intTy())));
  auto Node = structTy({{"val", intTy()}, {"tag", intTy()}});
  AllocVar("ps", ptrTy(Node));
  return E;
}

std::shared_ptr<Cmd> softbound::formal::generateProgram(RNG &R,
                                                        const Env & /*E*/,
                                                        int Size) {
  auto IntVar = [&]() {
    const char *Names[] = {"i0", "i1", "i2"};
    return var(Names[R.below(3)]);
  };
  auto PtrVar = [&]() {
    const char *Names[] = {"p0", "p1"};
    return var(Names[R.below(2)]);
  };

  auto GenIntRhs = [&]() -> std::shared_ptr<RHS> {
    switch (R.below(4)) {
    case 0:
      return constant(R.range(-8, 64));
    case 1:
      return lhsExpr(IntVar());
    case 2:
      return add(lhsExpr(IntVar()), constant(R.range(0, 9)));
    default:
      return lhsExpr(deref(PtrVar()));
    }
  };

  auto GenPtrRhs = [&]() -> std::shared_ptr<RHS> {
    switch (R.below(5)) {
    case 0:
      return mallocOf(constant(R.range(1, 6)));
    case 1:
      return addrOf(IntVar());
    case 2:
      return lhsExpr(PtrVar());
    case 3:
      return add(lhsExpr(PtrVar()), constant(R.range(-2, 6)));
    default:
      // A wild cast chain: ptr -> ptr (metadata preserved).
      return castTo(ptrTy(intTy()), lhsExpr(PtrVar()));
    }
  };

  std::shared_ptr<Cmd> Prog;
  for (int I = 0; I < Size; ++I) {
    std::shared_ptr<Cmd> Step;
    switch (R.below(6)) {
    case 0:
    case 1:
      Step = assign(IntVar(), GenIntRhs());
      break;
    case 2:
    case 3:
      Step = assign(PtrVar(), GenPtrRhs());
      break;
    case 4:
      Step = assign(deref(PtrVar()), GenIntRhs());
      break;
    default:
      Step = assign(var("pp"), addrOf(PtrVar()));
      if (R.chance(1, 2))
        Step = seq(Step, assign(deref(var("pp")), GenPtrRhs()));
      break;
    }
    Prog = Prog ? seq(Prog, Step) : Step;
  }
  return Prog;
}
