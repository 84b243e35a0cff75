//===- vm/MemoryChecker.h - baseline checker hook ---------------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hook interface the VM drives so that comparison baselines (the Valgrind-
/// style red-zone checker and the Jones–Kelly/Mudflap-style object table)
/// observe allocations and validate accesses of *uninstrumented* programs.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_VM_MEMORYCHECKER_H
#define SOFTBOUND_VM_MEMORYCHECKER_H

#include <cstdint>

namespace softbound {

/// Where an object lives; baselines differ in which regions they track.
enum class ObjectRegion { Heap, Global, Stack };

/// Observes allocation events and validates memory accesses.
class MemoryChecker {
public:
  virtual ~MemoryChecker() = default;

  virtual const char *name() const = 0;

  /// Object lifetime events.
  virtual void onAlloc(ObjectRegion /*Region*/, uint64_t /*Addr*/,
                       uint64_t /*Size*/) {}
  virtual void onFree(ObjectRegion /*Region*/, uint64_t /*Addr*/,
                      uint64_t /*Size*/) {}

  /// Validates one access; false = spatial violation detected.
  virtual bool checkAccess(uint64_t Addr, uint64_t Size, bool IsStore) = 0;

  /// Validates pointer arithmetic deriving To from From (object-table
  /// schemes check derivations; others accept everything).
  virtual bool checkDerive(uint64_t /*From*/, uint64_t /*To*/) { return true; }

  /// Simulated instruction cost charged per validated access.
  virtual uint64_t accessCost() const = 0;

  /// Resets all state between runs.
  virtual void reset() = 0;
};

} // namespace softbound

#endif // SOFTBOUND_VM_MEMORYCHECKER_H
