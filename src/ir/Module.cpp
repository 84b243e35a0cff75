//===- ir/Module.cpp - top-level IR container -----------------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Module.h"

using namespace softbound;

Function *Module::createFunction(const std::string &Name, FunctionType *FTy,
                                 bool Builtin) {
  assert(!FuncMap.count(Name) && "duplicate function name");
  auto F = std::make_unique<Function>(Ctx.ptrTo(FTy), FTy, Name, this,
                                      Builtin);
  Function *Out = F.get();
  FuncMap[Name] = Out;
  Funcs.push_back(std::move(F));
  return Out;
}

Function *Module::getFunction(const std::string &Name) const {
  auto It = FuncMap.find(Name);
  return It == FuncMap.end() ? nullptr : It->second;
}

Function *Module::entryFunction() const { return resolveEntry("main"); }

Function *Module::resolveEntry(const std::string &Name) const {
  if (Function *F = getFunction(Name))
    return F;
  return getFunction("_sb_" + Name);
}

void Module::recordInterProcContract(
    const std::vector<const Function *> &Internal) {
  InterProcContract = true;
  InterProcUnsafeEntries.insert(Internal.begin(), Internal.end());
}

unsigned Module::assignCheckSites() {
  for (const auto &F : Funcs) {
    if (!F->isDefinition())
      continue;
    // Names already claimed in this function by preserved IDs, so a new
    // site can never collide with one assigned on an earlier walk (a
    // pass may have deleted the instruction that once held an ordinal).
    std::set<std::string> Used;
    for (const auto &BB : F->blocks())
      for (const auto &I : *BB)
        if (I->site() >= 0 && static_cast<size_t>(I->site()) < Sites.size())
          Used.insert(Sites[I->site()].Name);
    unsigned Ordinal = 0;
    for (const auto &BB : F->blocks())
      for (const auto &I : *BB) {
        if (!isSiteKind(I->kind()))
          continue;
        const auto *Chk = dyn_cast<SpatialCheckInst>(I.get());
        if (I->site() >= 0) {
          // Preserved entry; only refresh the guard flag (hoisting can
          // change a check's guardedness without recreating it).
          if (static_cast<size_t>(I->site()) < Sites.size())
            Sites[I->site()].Guarded = Chk && Chk->isGuarded();
          continue;
        }
        std::string Name;
        do
          Name = F->name() + "#" + std::to_string(Ordinal++);
        while (Used.count(Name));
        I->setSite(static_cast<int>(Sites.size()));
        Sites.push_back({std::move(Name), I->kind(), Chk && Chk->isGuarded()});
      }
  }
  return static_cast<unsigned>(Sites.size());
}

void Module::renameFunction(Function *F, const std::string &NewName) {
  assert(!FuncMap.count(NewName) && "rename collides with existing function");
  FuncMap.erase(F->name());
  F->setName(NewName);
  FuncMap[NewName] = F;
}

GlobalVariable *Module::createGlobal(const std::string &Name, Type *ValueTy,
                                     GlobalInitializer Init, bool Constant) {
  assert(!GlobalMap.count(Name) && "duplicate global name");
  Init.Bytes.resize(ValueTy->sizeInBytes(), 0);
  auto G = std::make_unique<GlobalVariable>(Ctx.ptrTo(ValueTy), ValueTy, Name,
                                            std::move(Init), Constant);
  GlobalVariable *Out = G.get();
  GlobalMap[Name] = Out;
  Globals.push_back(std::move(G));
  return Out;
}

GlobalVariable *Module::createStringLiteral(const std::string &Str) {
  GlobalInitializer Init;
  Init.Bytes.assign(Str.begin(), Str.end());
  Init.Bytes.push_back(0);
  Type *Ty = Ctx.arrayOf(Ctx.i8(), Init.Bytes.size());
  return createGlobal(".str" + std::to_string(NextStrId++), Ty,
                      std::move(Init), /*Constant=*/true);
}

ConstantInt *Module::constInt(IntType *Ty, int64_t V) {
  // Normalize to the type's width (sign-extended storage).
  unsigned Bits = Ty->bits();
  if (Bits < 64) {
    uint64_t Mask = (1ULL << Bits) - 1;
    uint64_t U = static_cast<uint64_t>(V) & Mask;
    // Sign extend.
    if (Bits > 1 && (U >> (Bits - 1)) & 1)
      U |= ~Mask;
    V = static_cast<int64_t>(U);
  }
  auto Key = std::make_pair(Ty, V);
  auto It = IntConsts.find(Key);
  if (It != IntConsts.end())
    return It->second.get();
  auto C = std::make_unique<ConstantInt>(Ty, V);
  ConstantInt *Out = C.get();
  IntConsts[Key] = std::move(C);
  return Out;
}

ConstantNull *Module::nullPtr(PointerType *Ty) {
  auto It = NullConsts.find(Ty);
  if (It != NullConsts.end())
    return It->second.get();
  auto C = std::make_unique<ConstantNull>(Ty);
  ConstantNull *Out = C.get();
  NullConsts[Ty] = std::move(C);
  return Out;
}

ConstantUndef *Module::undef(Type *Ty) {
  auto It = UndefConsts.find(Ty);
  if (It != UndefConsts.end())
    return It->second.get();
  auto C = std::make_unique<ConstantUndef>(Ty);
  ConstantUndef *Out = C.get();
  UndefConsts[Ty] = std::move(C);
  return Out;
}
