//===- baselines/ObjectTableChecker.h - Jones-Kelly/Mudflap -----*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The object-table baseline (§2.1): every allocated object (heap, global,
/// stack) is registered in a splay tree; each dereference must land inside
/// some registered object. By construction this cannot see *sub-object*
/// overflows — an access that stays inside the enclosing struct passes —
/// which is exactly the incompleteness the paper's Table 1 records for
/// JKRLDA-style schemes.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_BASELINES_OBJECTTABLECHECKER_H
#define SOFTBOUND_BASELINES_OBJECTTABLECHECKER_H

#include "baselines/SplayTree.h"
#include "vm/MemoryChecker.h"

namespace softbound {

/// Splay-tree object-lookup checker (Mudflap-style dereference checking;
/// optionally Jones–Kelly-style derivation checking).
class ObjectTableChecker : public MemoryChecker {
public:
  /// \p CheckDerivations additionally rejects pointer arithmetic that
  /// leaves the source object (Jones–Kelly). Off by default: it breaks
  /// legal C idioms, which is why later systems check dereferences only.
  explicit ObjectTableChecker(bool CheckDerivations = false)
      : CheckDerivations(CheckDerivations) {}

  const char *name() const override { return "objtable"; }

  void onAlloc(ObjectRegion /*Region*/, uint64_t Addr,
               uint64_t Size) override {
    Objects.insert(Addr, Size ? Size : 1);
  }
  void onFree(ObjectRegion /*Region*/, uint64_t Addr,
              uint64_t /*Size*/) override {
    Objects.erase(Addr);
  }

  bool checkAccess(uint64_t Addr, uint64_t Size, bool /*IsStore*/) override {
    uint64_t Start, ObjSize;
    uint64_t Before = Comparisons;
    if (!Objects.find(Addr, Start, ObjSize, Comparisons)) {
      LastCost = baseCost() + 3 * (Comparisons - Before);
      return false;
    }
    LastCost = baseCost() + 3 * (Comparisons - Before);
    return Addr + Size <= Start + ObjSize;
  }

  bool checkDerive(uint64_t From, uint64_t To) override {
    if (!CheckDerivations)
      return true;
    uint64_t Start, ObjSize;
    if (!Objects.find(From, Start, ObjSize, Comparisons))
      return true; // Unknown source: cannot judge (out-of-bounds object).
    // One-past-the-end is legal C and must be representable.
    return To >= Start && To <= Start + ObjSize;
  }

  uint64_t accessCost() const override { return LastCost; }

  void reset() override {
    Objects.clear();
    Comparisons = 0;
    LastCost = baseCost();
  }

  uint64_t totalComparisons() const { return Comparisons; }
  size_t liveObjects() const { return Objects.size(); }

private:
  /// Fixed per-check overhead before tree traversal (call + range math).
  static uint64_t baseCost() { return 6; }

  IntervalSplayTree Objects;
  bool CheckDerivations;
  uint64_t Comparisons = 0;
  uint64_t LastCost = 6;
};

} // namespace softbound

#endif // SOFTBOUND_BASELINES_OBJECTTABLECHECKER_H
