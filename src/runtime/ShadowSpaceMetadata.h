//===- runtime/ShadowSpaceMetadata.h - tag-less shadow space ----*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shadow-space implementation of the metadata facility (§5.1): a region
/// of the (simulated) virtual address space large enough that collisions
/// cannot occur, so entries carry no tag and no tag check is needed — a
/// lookup models ~5 x86 instructions (shift, mask, add, two loads). Pages
/// are materialized on demand, modelling mmap's zero-fill-on-demand.
///
/// Sharding (facility API v2, runtime/StripedFacility.h): shadow pages
/// span exactly one address stripe (2^ShardStripeLog2 bytes), so each
/// shard owns whole pages and a page never splits across stripe locks.
/// The default single-shard, SingleThread configuration behaves exactly
/// like the pre-v2 space.
///
/// Lock-free reads (the LockFreeRead model): pages are published
/// RCU-style — a writer installs a fully-initialized (zero-filled) page
/// node at the head of its bucket chain with a release store, and a
/// reader acquire-loads the head and walks the immutable chain, so a
/// page-miss racing a materialization sees either no page (null bounds)
/// or a complete one, never a torn node. Slot words are relaxed atomics
/// and the per-stripe seqlock (StripeSeqlock) validates the copied
/// {base, bound} pair against concurrent in-place updates.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_RUNTIME_SHADOWSPACEMETADATA_H
#define SOFTBOUND_RUNTIME_SHADOWSPACEMETADATA_H

#include "runtime/StripedFacility.h"

#include <array>
#include <memory>
#include <vector>

namespace softbound {

/// One stripe of the shadow space: its demand-materialized pages.
struct ShadowSpaceStripe {
  /// Slots per shadow page; one page shadows 8 * SlotsPerPage bytes —
  /// exactly one address stripe (static_assert below), so pages never
  /// straddle shards.
  static constexpr uint64_t SlotsPerPage = 4096;
  static_assert(SlotsPerPage * 8 == (uint64_t(1) << ShardStripeLog2),
                "a shadow page must span exactly one shard stripe");

  /// One shadow slot. Relaxed atomics for the same reason as the hash
  /// table's Entry: the LockFreeRead copy may race a writer and the
  /// seqlock discards torn pairs; plain moves on x86/ARM otherwise.
  struct Pair {
    std::atomic<uint64_t> Base{0};
    std::atomic<uint64_t> Bound{0};
  };

  /// One materialized shadow page, linked into its bucket's chain.
  /// Fully initialized (zero-filled slots, PageId, Next) *before* the
  /// release store that publishes it; PageId and Next are immutable
  /// afterwards, so readers walk the chain without synchronization
  /// beyond the acquire on the bucket head.
  struct PageNode {
    PageNode(uint64_t Id, PageNode *N)
        : PageId(Id), Slots(new Pair[SlotsPerPage]), Next(N) {}
    uint64_t PageId;
    std::unique_ptr<Pair[]> Slots;
    PageNode *Next;
  };

  /// Buckets per stripe for the page-pointer table. Pages are found via
  /// a multiplicative mix of the page id, so ids that are congruent
  /// modulo the shard count still spread across buckets.
  static constexpr size_t PageBuckets = 64;

  /// Chain heads; readers acquire-load, writers (under the exclusive
  /// lock) release-store freshly initialized nodes.
  std::array<std::atomic<PageNode *>, PageBuckets> Buckets{};
  /// Ownership of every node ever published. Writer-only; reclaimed at
  /// reset()/destruction (quiescent, per the facility contract).
  std::vector<std::unique_ptr<PageNode>> Nodes;
  uint64_t PageCount = 0;
};

/// Demand-paged, tag-less shadow of the simulated address space; one
/// {base, bound} pair per 8-byte pointer slot.
class ShadowSpaceMetadata
    : public StripedFacility<ShadowSpaceMetadata, ShadowSpaceStripe> {
public:
  explicit ShadowSpaceMetadata(FacilityOptions Options = {})
      : StripedFacility(Options) {}

  const char *name() const override { return "shadowspace"; }
  uint64_t lookupCost() const override { return 5; }
  uint64_t updateCost() const override { return 5; }
  uint64_t memoryBytes() const override;

private:
  friend StripedFacility;
  using Pair = ShadowSpaceStripe::Pair;
  using PageNode = ShadowSpaceStripe::PageNode;

  static size_t bucketOf(uint64_t PageId) {
    return static_cast<size_t>((PageId * 0x9e3779b97f4a7c15ULL) >>
                               (64 - 6)) &
           (ShadowSpaceStripe::PageBuckets - 1);
  }

  // The stripe-core store interface (runtime/StripedFacility.h).
  Pair *find(Stripe &S, uint64_t Addr);
  static bool holds(const Pair &P) { return ld(P.Base) || ld(P.Bound); }
  Pair *materialize(Stripe &S, uint64_t Addr);
  void erase(Stripe &, Pair &P) {
    st(P.Base, 0);
    st(P.Bound, 0);
  }
  void clearStore(Stripe &S);
  void flushStripeGauges(const Stripe &S, const std::string &Prefix);
  void flushGauges();
};

} // namespace softbound

#endif // SOFTBOUND_RUNTIME_SHADOWSPACEMETADATA_H
