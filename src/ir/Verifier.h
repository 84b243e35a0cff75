//===- ir/Verifier.h - structural IR validation -----------------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural and type-level validation of IR modules. PipelinePlan::build
/// runs it after the frontend and after every pass (the SoftBound
/// transformation included — instrumented modules must stay well typed).
/// Malformed IR gets diagnostics, never a crash: an instruction with a
/// null operand is reported as such and skips the typing rules.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_IR_VERIFIER_H
#define SOFTBOUND_IR_VERIFIER_H

#include <string>
#include <vector>

namespace softbound {

class Module;
class Function;

/// Verifies \p F; appends human-readable problems to \p Errors.
void verifyFunction(const Function &F, std::vector<std::string> &Errors);

/// Verifies the whole module. Returns the list of problems (empty = valid).
std::vector<std::string> verifyModule(const Module &M);

} // namespace softbound

#endif // SOFTBOUND_IR_VERIFIER_H
