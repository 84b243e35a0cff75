//===- support/Compiler.h - compiler abstraction macros ---------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small compiler-portability helpers (unreachable marker, inlining hints).
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_SUPPORT_COMPILER_H
#define SOFTBOUND_SUPPORT_COMPILER_H

#include <cstdio>
#include <cstdlib>

namespace softbound {

/// Reports a fatal internal error and aborts. Used by sb_unreachable.
[[noreturn]] inline void reportUnreachable(const char *Msg, const char *File,
                                           unsigned Line) {
  std::fprintf(stderr, "UNREACHABLE executed at %s:%u: %s\n", File, Line, Msg);
  std::abort();
}

} // namespace softbound

/// Inlining hints for the interpreter loop, whose size otherwise makes
/// the inliner give up on its small hot helpers and pull in its large
/// cold ones.
#define SB_ALWAYS_INLINE [[gnu::always_inline]] inline
#define SB_NOINLINE [[gnu::noinline]]

/// Marks a point in code that must never be reached.
#define sb_unreachable(MSG)                                                    \
  ::softbound::reportUnreachable(MSG, __FILE__, __LINE__)

#endif // SOFTBOUND_SUPPORT_COMPILER_H
