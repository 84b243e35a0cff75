//===- tests/test_runtime.cpp - metadata facility unit tests ---------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and property tests of the §5.1 metadata facilities: basic
/// lookup/update semantics, range clearing and copying, hash growth and
/// collision accounting, and an equivalence sweep — in every concurrency
/// model — using the shadow space as oracle for the hash table.
///
//===----------------------------------------------------------------------===//

#include "runtime/HashTableMetadata.h"
#include "runtime/ShadowSpaceMetadata.h"
#include "support/RNG.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

using namespace softbound;

namespace {

template <typename T> class FacilityTest : public ::testing::Test {
public:
  T Facility;
};

using Facilities = ::testing::Types<HashTableMetadata, ShadowSpaceMetadata>;
TYPED_TEST_SUITE(FacilityTest, Facilities);

TYPED_TEST(FacilityTest, MissingLookupYieldsNullBounds) {
  Bounds B = this->Facility.lookup(0x2000'0000);
  EXPECT_EQ(B.Base, 0u);
  EXPECT_EQ(B.Bound, 0u);
  EXPECT_TRUE(B.null());
}

TYPED_TEST(FacilityTest, UpdateThenLookup) {
  this->Facility.update(0x2000'0008, 0x1000, 0x1040);
  Bounds B = this->Facility.lookup(0x2000'0008);
  EXPECT_EQ(B.Base, 0x1000u);
  EXPECT_EQ(B.Bound, 0x1040u);
  // A different slot is unaffected.
  EXPECT_EQ(this->Facility.lookup(0x2000'0010).Base, 0u);
}

TYPED_TEST(FacilityTest, OverwriteReplacesBounds) {
  this->Facility.update(0x3000'0000, 1, 2);
  this->Facility.update(0x3000'0000, 10, 20);
  Bounds B = this->Facility.lookup(0x3000'0000);
  EXPECT_EQ(B.Base, 10u);
  EXPECT_EQ(B.Bound, 20u);
}

TYPED_TEST(FacilityTest, ClearRangeDropsCoveredSlots) {
  for (uint64_t A = 0x4000'0000; A < 0x4000'0040; A += 8)
    this->Facility.update(A, A, A + 8);
  uint64_t Cleared = this->Facility.clearRange(0x4000'0010, 0x18);
  EXPECT_EQ(Cleared, 3u);
  EXPECT_NE(this->Facility.lookup(0x4000'0008).Base, 0u)
      << "below the range: intact";
  EXPECT_EQ(this->Facility.lookup(0x4000'0010).Base, 0u)
      << "in range: gone";
  EXPECT_NE(this->Facility.lookup(0x4000'0028).Base, 0u)
      << "above the range: intact";
}

TYPED_TEST(FacilityTest, CopyRangeMirrorsMetadata) {
  this->Facility.update(0x5000'0000, 7, 70);
  this->Facility.update(0x5000'0010, 9, 90);
  // Destination has a stale entry that the copy must overwrite/clear.
  this->Facility.update(0x6000'0008, 5, 50);
  this->Facility.copyRange(0x6000'0000, 0x5000'0000, 0x18);
  EXPECT_EQ(this->Facility.lookup(0x6000'0000).Base, 7u);
  EXPECT_EQ(this->Facility.lookup(0x6000'0008).Base, 0u)
      << "stale destination metadata must not survive";
  Bounds B = this->Facility.lookup(0x6000'0010);
  EXPECT_EQ(B.Base, 9u);
  EXPECT_EQ(B.Bound, 90u);
}

TYPED_TEST(FacilityTest, ZeroLengthRangesAreNoOps) {
  this->Facility.update(0xC000'0000, 7, 70);
  EXPECT_EQ(this->Facility.clearRange(0xC000'0000, 0), 0u);
  EXPECT_EQ(this->Facility.copyRange(0xC000'1000, 0xC000'0000, 0), 0u);
  EXPECT_EQ(this->Facility.lookup(0xC000'0000).Base, 7u)
      << "zero-length clear must not touch the slot";
  EXPECT_EQ(this->Facility.lookup(0xC000'1000).Base, 0u)
      << "zero-length copy must not materialize metadata";
}

TYPED_TEST(FacilityTest, UnalignedClearCoversEveryTouchedSlot) {
  // [Addr, Addr+Size) is interpreted over 8-byte pointer slots: a range
  // starting mid-slot still invalidates that slot (a freed object's first
  // pointer slot must never survive because the free was byte-offset).
  this->Facility.update(0xB000'0000, 5, 50);
  this->Facility.update(0xB000'0008, 6, 60);
  EXPECT_EQ(this->Facility.clearRange(0xB000'0004, 8), 2u)
      << "range [4, 12) touches both slot 0 and slot 8";
  EXPECT_EQ(this->Facility.lookup(0xB000'0000).Base, 0u);
  EXPECT_EQ(this->Facility.lookup(0xB000'0008).Base, 0u);
}

TYPED_TEST(FacilityTest, UnalignedSizeCopyCoversPartialSlot) {
  this->Facility.update(0xD000'0000, 8, 80);
  EXPECT_EQ(this->Facility.copyRange(0xD000'1000, 0xD000'0000, 5), 1u)
      << "a 5-byte copy still moves the metadata of the slot it touches";
  Bounds B = this->Facility.lookup(0xD000'1000);
  EXPECT_EQ(B.Base, 8u);
  EXPECT_EQ(B.Bound, 80u);
}

TYPED_TEST(FacilityTest, OverlappingCopyDstBelowSrcIsMoveLike) {
  // Copies walk the source ascending, so a destination below the source
  // reads each slot before anything overwrites it — memmove semantics.
  this->Facility.update(0xA000'0008, 2, 20);
  this->Facility.update(0xA000'0010, 3, 30);
  EXPECT_EQ(this->Facility.copyRange(0xA000'0000, 0xA000'0008, 0x10), 2u);
  EXPECT_EQ(this->Facility.lookup(0xA000'0000).Base, 2u);
  EXPECT_EQ(this->Facility.lookup(0xA000'0008).Base, 3u);
}

TYPED_TEST(FacilityTest, OverlappingCopyDstAboveSrcPropagatesForward) {
  // The same ascending walk means a destination *inside* the source range
  // re-reads already-copied slots, smearing the first slot forward —
  // exactly like a naive forward memcpy. Both implementations must agree
  // on this (documented) behaviour rather than silently diverge.
  this->Facility.update(0x9000'0000, 1, 10);
  this->Facility.update(0x9000'0008, 2, 20);
  this->Facility.update(0x9000'0010, 3, 30);
  EXPECT_EQ(this->Facility.copyRange(0x9000'0008, 0x9000'0000, 0x18), 3u);
  for (uint64_t A = 0x9000'0000; A <= 0x9000'0018; A += 8) {
    Bounds B = this->Facility.lookup(A);
    EXPECT_EQ(B.Base, 1u) << "slot " << std::hex << A;
    EXPECT_EQ(B.Bound, 10u);
  }
}

TYPED_TEST(FacilityTest, ResetDropsEverything) {
  this->Facility.update(0x7000'0000, 1, 2);
  this->Facility.reset();
  EXPECT_EQ(this->Facility.lookup(0x7000'0000).Base, 0u);
  EXPECT_EQ(this->Facility.stats().Lookups, 1u);
}

TYPED_TEST(FacilityTest, CopyRangeCountsDestinationClears) {
  // A destination slot whose source has no metadata is cleared by the
  // copy, and MetadataStats::Clears counts it for every facility; the
  // clear_* telemetry counts clearRange calls only, so it stays at zero.
  Telemetry Telem;
  this->Facility.attachTelemetry(&Telem, "facility");
  this->Facility.update(0xE000'1000, 5, 50); // Stale destination.
  uint64_t ClearsBefore = this->Facility.stats().Clears;
  EXPECT_EQ(this->Facility.copyRange(0xE000'1000, 0xE000'0000, 8), 0u);
  EXPECT_TRUE(this->Facility.lookup(0xE000'1000).null());
  EXPECT_EQ(this->Facility.stats().Clears - ClearsBefore, 1u);
  // A destination slot that already carried nothing is not a clear.
  EXPECT_EQ(this->Facility.copyRange(0xE000'2000, 0xE000'0000, 8), 0u);
  EXPECT_EQ(this->Facility.stats().Clears - ClearsBefore, 1u);
  this->Facility.flushTelemetry();
  EXPECT_EQ(Telem.counter("facility/clear_calls"), 0u);
  EXPECT_EQ(Telem.counter("facility/clear_entries"), 0u);
  EXPECT_EQ(Telem.counter("facility/copy_calls"), 2u);
}

TYPED_TEST(FacilityTest, CostModelMatchesPaper) {
  // §5.1: hash ≈ 9 instructions per op, shadow ≈ 5.
  if (std::string(this->Facility.name()) == "hashtable") {
    EXPECT_EQ(this->Facility.lookupCost(), 9u);
  } else {
    EXPECT_EQ(this->Facility.lookupCost(), 5u);
  }
}

TYPED_TEST(FacilityTest, DefaultConfigurationIsSingleThread) {
  EXPECT_EQ(this->Facility.shards(), 1u);
  EXPECT_EQ(this->Facility.concurrency(), ConcurrencyModel::SingleThread);
  this->Facility.update(0x2000'0000, 1, 2);
  this->Facility.lookup(0x2000'0000);
  MetadataStats S = this->Facility.stats();
  EXPECT_EQ(S.LockAcquires, 0u) << "SingleThread mode must stay lock-free";
  EXPECT_EQ(S.contentionSimCost(), 0u);
}

TEST(HashTableMetadata, GrowsPastInitialCapacity) {
  HashTableMetadata M(4); // 16 entries.
  for (uint64_t I = 0; I < 1000; ++I)
    M.update(0x1000 + I * 8, I + 1, I + 100);
  for (uint64_t I = 0; I < 1000; ++I) {
    Bounds B = M.lookup(0x1000 + I * 8);
    ASSERT_EQ(B.Base, I + 1);
    ASSERT_EQ(B.Bound, I + 100);
  }
}

TEST(HashTableMetadata, TombstonesDoNotBreakProbing) {
  HashTableMetadata M(4);
  // Insert colliding-ish entries, delete some, reinsert, verify all.
  for (uint64_t I = 0; I < 64; ++I)
    M.update(0x9000 + I * 8, I + 1, I + 2);
  M.clearRange(0x9000, 64 * 8 / 2);
  for (uint64_t I = 0; I < 32; ++I)
    M.update(0x9000 + I * 8, 100 + I, 200 + I);
  for (uint64_t I = 0; I < 64; ++I) {
    Bounds B = M.lookup(0x9000 + I * 8);
    if (I < 32) {
      EXPECT_EQ(B.Base, 100 + I);
    } else {
      EXPECT_EQ(B.Base, I + 1);
    }
  }
}

TEST(FacilityEquivalence, HashMatchesShadowOracle) {
  // Randomized op sequence over four stripes: both facilities must agree
  // on every lookup and range result, in every concurrency model (run
  // single-threaded, so the models differ only in their lock policy).
  for (FacilityOptions Opts :
       {FacilityOptions{ConcurrencyModel::SingleThread, 1},
        FacilityOptions{ConcurrencyModel::Sharded, 4},
        FacilityOptions{ConcurrencyModel::LockFreeRead, 4}}) {
    SCOPED_TRACE(static_cast<int>(Opts.Model));
    HashTableMetadata Hash(6, Opts);
    ShadowSpaceMetadata Shadow(Opts);
    RNG R(20260611);
    auto RandomSlot = [&R] { return 0x2000'0000 + (R.below(1 << 14) << 3); };
    for (int Op = 0; Op < 20000; ++Op) {
      uint64_t Addr = RandomSlot();
      switch (R.below(5)) {
      case 0:
      case 1: {
        uint64_t Base = R.below(1 << 20) + 1;
        uint64_t Bound = Base + R.below(256);
        Hash.update(Addr, Base, Bound);
        Shadow.update(Addr, Base, Bound);
        break;
      }
      case 2: {
        Bounds H = Hash.lookup(Addr);
        Bounds S = Shadow.lookup(Addr);
        ASSERT_EQ(H.Base, S.Base) << "divergence at op " << Op;
        ASSERT_EQ(H.Bound, S.Bound);
        break;
      }
      case 3: {
        uint64_t Src = RandomSlot();
        uint64_t Len = (R.below(8) + 1) * 8;
        ASSERT_EQ(Hash.copyRange(Addr, Src, Len),
                  Shadow.copyRange(Addr, Src, Len))
            << "copy divergence at op " << Op;
        break;
      }
      default: {
        uint64_t Len = (R.below(8) + 1) * 8;
        ASSERT_EQ(Hash.clearRange(Addr, Len), Shadow.clearRange(Addr, Len))
            << "clear divergence at op " << Op;
        break;
      }
      }
    }
    for (uint64_t A = 0x2000'0000; A < 0x2000'0000 + (8 << 14); A += 8)
      ASSERT_EQ(Hash.lookup(A), Shadow.lookup(A)) << "slot " << A;
    EXPECT_EQ(Hash.stats().Clears, Shadow.stats().Clears);
  }
}

} // namespace
