//===- ir/Module.h - top-level IR container ---------------------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Module: owns the type context, functions, globals, and interned
/// constants of one translation unit.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_IR_MODULE_H
#define SOFTBOUND_IR_MODULE_H

#include "ir/Function.h"

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace softbound {

/// One translation unit of IR.
class Module {
public:
  Module() = default;
  Module(const Module &) = delete;
  Module &operator=(const Module &) = delete;

  TypeContext &ctx() { return Ctx; }

  //===--------------------------------------------------------------------===//
  // Functions
  //===--------------------------------------------------------------------===//

  /// Creates a function with a unique name.
  Function *createFunction(const std::string &Name, FunctionType *FTy,
                           bool Builtin = false);

  /// Returns the named function, or null.
  Function *getFunction(const std::string &Name) const;

  /// The function the VM will enter: "main", or its `_sb_main` renamed
  /// form after the SoftBound transformation. Null when absent (library
  /// modules). Inter-procedural analyses must treat this function as
  /// having an unknown external caller.
  Function *entryFunction() const;

  /// Resolves a user-facing entry name to the function the VM executes:
  /// the name itself, or its "_sb_"-renamed form after the SoftBound
  /// transformation. Null when neither exists. The VM and every driver
  /// check (e.g. the interproc entry contract) must share this one
  /// resolution so they can never disagree about which function runs.
  Function *resolveEntry(const std::string &Name) const;

  /// Renames a function, updating the lookup map (the `_sb_` rewrite).
  void renameFunction(Function *F, const std::string &NewName);

  const std::vector<std::unique_ptr<Function>> &functions() const {
    return Funcs;
  }

  //===--------------------------------------------------------------------===//
  // Globals
  //===--------------------------------------------------------------------===//

  GlobalVariable *createGlobal(const std::string &Name, Type *ValueTy,
                               GlobalInitializer Init, bool Constant = false);

  const std::vector<std::unique_ptr<GlobalVariable>> &globals() const {
    return Globals;
  }

  /// Creates a private constant i8-array global holding \p Str plus NUL.
  GlobalVariable *createStringLiteral(const std::string &Str);

  //===--------------------------------------------------------------------===//
  // Whole-program optimization contract
  //===--------------------------------------------------------------------===//

  /// Records that a whole-program check optimization (checkopt(interproc))
  /// deleted checks from this module under the closed-module assumption,
  /// and that the \p Internal functions — those its call graph proved
  /// reachable only through analyzed direct call sites — are no longer
  /// valid VM entry points: entering one directly with arbitrary
  /// arguments would bypass the caller-side proofs that elided its
  /// checks. Constraints accumulate across calls.
  void recordInterProcContract(const std::vector<const Function *> &Internal);

  /// True when recordInterProcContract has ever been called on this
  /// module.
  bool hasInterProcContract() const { return InterProcContract; }

  /// True when entering \p F from outside the module is compatible with
  /// every recorded whole-program contract (trivially true when none was
  /// recorded). The run driver refuses entries for which this is false.
  bool isSafeEntry(const Function *F) const {
    return InterProcUnsafeEntries.find(F) == InterProcUnsafeEntries.end();
  }

  //===--------------------------------------------------------------------===//
  // Check-site table (telemetry)
  //===--------------------------------------------------------------------===//

  /// One profiling site: a check or metadata instruction with a stable
  /// identity (docs/observability.md).
  struct CheckSite {
    std::string Name; ///< "<function>#<ordinal>", stable across runs.
    ValueKind Kind;   ///< SpatialCheck, FuncPtrCheck, MetaLoad or MetaStore.
    bool Guarded = false; ///< Spatial check carrying a hull-fallback guard.
  };

  /// True for the instruction kinds that carry profiling site IDs.
  static bool isSiteKind(ValueKind K) {
    return K == ValueKind::SpatialCheck || K == ValueKind::FuncPtrCheck ||
           K == ValueKind::MetaLoad || K == ValueKind::MetaStore;
  }

  /// Walks functions, blocks, and instructions in their (deterministic)
  /// order and gives every check/metadata instruction without a site ID
  /// the next dense one, appending its entry to the site table.
  /// Idempotent: existing IDs and their table entries are preserved, so
  /// re-running after a pass only names the new instructions. The
  /// pipeline calls this once at the end of PipelinePlan::build(), after
  /// every pass, so hoisting-created checks are named too. Returns the
  /// table size.
  unsigned assignCheckSites();

  const std::vector<CheckSite> &checkSites() const { return Sites; }

  //===--------------------------------------------------------------------===//
  // Constants (interned)
  //===--------------------------------------------------------------------===//

  ConstantInt *constInt(IntType *Ty, int64_t V);
  ConstantInt *constI64(int64_t V) { return constInt(Ctx.i64(), V); }
  ConstantInt *constI32(int64_t V) { return constInt(Ctx.i32(), V); }
  ConstantInt *constI1(bool B) { return constInt(Ctx.i1(), B ? 1 : 0); }
  ConstantNull *nullPtr(PointerType *Ty);
  ConstantUndef *undef(Type *Ty);

private:
  TypeContext Ctx;
  std::vector<std::unique_ptr<Function>> Funcs;
  std::map<std::string, Function *> FuncMap;
  std::vector<std::unique_ptr<GlobalVariable>> Globals;
  std::map<std::string, GlobalVariable *> GlobalMap;
  std::map<std::pair<IntType *, int64_t>, std::unique_ptr<ConstantInt>>
      IntConsts;
  std::map<PointerType *, std::unique_ptr<ConstantNull>> NullConsts;
  std::map<Type *, std::unique_ptr<ConstantUndef>> UndefConsts;
  unsigned NextStrId = 0;
  bool InterProcContract = false;
  std::set<const Function *> InterProcUnsafeEntries;
  std::vector<CheckSite> Sites;
};

} // namespace softbound

#endif // SOFTBOUND_IR_MODULE_H
