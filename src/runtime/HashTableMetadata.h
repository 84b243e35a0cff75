//===- runtime/HashTableMetadata.h - open-hash metadata ---------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hash-table implementation of the metadata facility (§5.1): entries of
/// {tag, base, bound} (24 bytes assuming 64-bit pointers), a shift-and-mask
/// hash of the double-word address, and open addressing. In the common
/// no-collision case a lookup models ~9 x86 instructions: shift, mask,
/// multiply, add, three loads, compare, branch.
///
/// Sharding (facility API v2, runtime/StripedFacility.h): each
/// power-of-two address stripe (MetadataFacility.h ShardStripeLog2) owns
/// an independent sub-table with its own striped reader-writer lock,
/// statistics, and probe histogram.
/// With one shard and the SingleThread model (the default) the
/// probe sequences, collision counts and growth points are identical to
/// the unsharded pre-v2 table.
///
/// Lock-free reads (the LockFreeRead model): entry words are
/// relaxed atomics and every shard's table generation is published
/// through an atomic pointer, so a lookup probes with zero mutex
/// acquisitions and validates its copied entry against the stripe's
/// seqlock (StripeSeqlock) — writers, still under the exclusive
/// ShardLock, bump the sequence around each mutation, and grow() retires
/// the old generation instead of freeing it so a concurrent reader never
/// traverses a dangling table.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_RUNTIME_HASHTABLEMETADATA_H
#define SOFTBOUND_RUNTIME_HASHTABLEMETADATA_H

#include "runtime/StripedFacility.h"

#include <memory>
#include <vector>

namespace softbound {

/// One stripe of the hash table: an independent open-addressing table.
struct HashTableStripe {
  /// One table slot. The words are relaxed atomics so the LockFreeRead
  /// probe can race a writer without host-level undefined behaviour (the
  /// seqlock discards any torn copy); on x86/ARM a relaxed load/store is
  /// a plain move, so the SingleThread path pays nothing for this.
  struct Entry {
    std::atomic<uint64_t> Tag{0}; ///< Slot address; 0 = empty, 1 = tombstone.
    std::atomic<uint64_t> Base{0};
    std::atomic<uint64_t> Bound{0};
  };

  /// One generation of the stripe's table. Grown generations are
  /// immutable-from-then-on and, in the LockFreeRead model, retired
  /// rather than freed (a lock-free reader may still be probing them)
  /// until reset() or destruction.
  struct Table {
    explicit Table(size_t N) : Size(N), Slots(new Entry[N]) {}
    size_t Size;
    std::unique_ptr<Entry[]> Slots;
  };

  explicit HashTableStripe(unsigned Log2Size) {
    Tables.push_back(std::make_unique<Table>(size_t(1) << Log2Size));
    Tab.store(Tables.back().get(), std::memory_order_release);
  }

  /// The live generation; readers acquire-load, writers publish with a
  /// release store. Ownership lives in Tables.
  std::atomic<Table *> Tab{nullptr};
  /// Every generation ever allocated; back() is live. Writer-only.
  std::vector<std::unique_ptr<Table>> Tables;
  size_t Live = 0;
  size_t Used = 0; ///< Live + tombstones.
  /// Probe-length histogram (slots examined per probe), cached from the
  /// attached telemetry sink; null in the disabled mode.
  TelemetryHistogram *ProbeHist = nullptr;
};

/// Open-addressing hash table keyed by pointer-slot address.
class HashTableMetadata
    : public StripedFacility<HashTableMetadata, HashTableStripe> {
public:
  /// \p InitialLog2Size is the log2 of the initial entry count *per shard*.
  /// The paper sizes the table "large enough to keep average utilization
  /// low"; we grow at 50% occupancy.
  explicit HashTableMetadata(unsigned InitialLog2Size = 16,
                             FacilityOptions Options = {})
      : StripedFacility(Options, InitialLog2Size) {}

  const char *name() const override { return "hashtable"; }
  uint64_t lookupCost() const override { return 9; }
  uint64_t updateCost() const override { return 9; }
  uint64_t memoryBytes() const override;
  void attachTelemetry(Telemetry *T, const std::string &Prefix) override;

  /// Table occupancy in [0, 1], aggregated over shards (for the ablation
  /// bench).
  double loadFactor() const;

private:
  friend StripedFacility;
  using Entry = HashTableStripe::Entry;
  using Table = HashTableStripe::Table;
  static constexpr uint64_t EmptyTag = 0;
  static constexpr uint64_t TombstoneTag = 1;

  static size_t hash(uint64_t Addr, size_t TableSize) {
    // Double-word address modulo table size: shift and mask (§5.1), with a
    // multiplicative mix so adjacent slots spread.
    uint64_t H = (Addr >> 3) * 0x9e3779b97f4a7c15ULL;
    return static_cast<size_t>(H & (TableSize - 1));
  }

  /// The one probe: finds the entry for \p Addr in \p S, or (ForInsert)
  /// the insertion slot; counts collisions and records the probe length.
  Entry *probe(Stripe &S, uint64_t Addr, bool ForInsert);
  void grow(Stripe &S);

  // The stripe-core store interface (runtime/StripedFacility.h).
  Entry *find(Stripe &S, uint64_t Addr) {
    return probe(S, Addr, /*ForInsert=*/false);
  }
  /// A found entry carries metadata even when its bounds are null.
  static bool holds(const Entry &) { return true; }
  Entry *materialize(Stripe &S, uint64_t Addr);
  void erase(Stripe &S, Entry &E) {
    st(E.Tag, TombstoneTag);
    st(E.Base, 0);
    st(E.Bound, 0);
    --S.Live;
  }
  void clearStore(Stripe &S);
  void flushStripeGauges(const Stripe &S, const std::string &Prefix);
  void flushGauges();
};

} // namespace softbound

#endif // SOFTBOUND_RUNTIME_HASHTABLEMETADATA_H
