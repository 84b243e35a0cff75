//===- runtime/MetadataFacility.h - disjoint metadata space -----*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The disjoint metadata facility of §3.2/§5.1: maps the *address of a
/// pointer in memory* to the base/bound metadata of the pointer stored
/// there. Two implementations, matching the paper: an open hash table
/// (~9 x86 instructions per lookup) and a tag-less shadow space (~5).
///
/// Facility API v2 (docs/runtime.md): value-returning `Bounds lookup`
/// and an optional concurrency mode — the address space is divided into
/// power-of-two stripes, each owned by one shard, so N VM lanes can share
/// one facility. The default (SingleThread, one shard) takes no locks at
/// all and is bit-for-bit identical to the pre-v2 behaviour the bench
/// gate's baselines were recorded against.
///
/// Both implementations are built on one stripe core
/// (runtime/StripedFacility.h), the single place the concurrency model
/// turns into lock, seqlock and statistics decisions; they supply only
/// their per-stripe data structure.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_RUNTIME_METADATAFACILITY_H
#define SOFTBOUND_RUNTIME_METADATAFACILITY_H

#include <cstdint>
#include <string>

namespace softbound {

class Telemetry;
class TelemetryHistogram;

/// The {base, bound} pair recorded for one pointer slot. (0, 0) is the
/// "null bounds" value that fails every dereference check; it doubles as
/// the miss result, so a lookup never needs an out-param or a found flag.
struct Bounds {
  uint64_t Base = 0;
  uint64_t Bound = 0;

  /// True for the never-recorded / cleared state.
  bool null() const { return Base == 0 && Bound == 0; }

  bool operator==(const Bounds &O) const {
    return Base == O.Base && Bound == O.Bound;
  }
  bool operator!=(const Bounds &O) const { return !(*this == O); }
};

/// How a facility instance synchronizes concurrent callers.
enum class ConcurrencyModel {
  /// No locking anywhere; callers guarantee single-threaded access. This
  /// is the default and the mode every gated baseline runs under.
  SingleThread,
  /// Striped reader-writer locks, one per shard: lookups take a shared
  /// (never mutually excluding) acquisition, updates and range ops an
  /// exclusive one. Required whenever more than one VM lane shares the
  /// facility.
  Sharded,
  /// Sharded write path (updates and range ops still take the stripe's
  /// exclusive ShardLock), but the read path is lock-free: lookups
  /// validate a copied entry against the stripe's seqlock and retry on
  /// a dirty window instead of acquiring any mutex.
  LockFreeRead,
};

/// log2 of the address-range stripe that maps to one shard: 32 KB, one
/// shadow page (ShadowSpaceMetadata::SlotsPerPage slots of 8 bytes), so
/// a stripe never splits a shadow page across shards.
inline constexpr unsigned ShardStripeLog2 = 15;

/// Upper bound on both RunRequest::Lanes and the facility shard count.
/// runSession refuses wider sessions and the benches reject wider flags;
/// facility construction clamps to it. Each lane is one host thread with
/// a 1/N slice of the simulated stack, and each hash shard owns its own
/// table, so an unbounded count exhausts host threads and memory.
inline constexpr unsigned MaxLanesOrShards = 16;
static_assert((MaxLanesOrShards & (MaxLanesOrShards - 1)) == 0,
              "shard counts are powers of two");

/// Simulated-cost prices for facility lock traffic (docs/runtime.md):
/// an uncontended striped-lock acquisition models one atomic op; a
/// contended one models the coherence miss plus re-acquisition. The
/// bench gate prices serialization as
///   uncontended * UncontendedLockCost + contended * ContendedLockCost
/// in the non-gated `contention_*` key group. SingleThread runs take no
/// locks, so this component is exactly zero on every gated baseline.
inline constexpr uint64_t UncontendedLockCost = 1;
inline constexpr uint64_t ContendedLockCost = 40;

/// One seqlock read retry (LockFreeRead model) is priced like a
/// contended lock acquisition: the reader observed a writer's dirty
/// window, which on real hardware is the same coherence miss plus
/// re-read. Clean seqlock reads are free — the sequence load rides the
/// entry's cache line, which is the whole point of the lock-free path.
inline constexpr uint64_t SeqlockRetryCost = ContendedLockCost;

/// Constructor-time facility configuration.
struct FacilityOptions {
  /// Value-initialized: SingleThread, the enum's first enumerator.
  ConcurrencyModel Model{};
  /// Shard count; rounded up to a power of two, minimum 1, clamped to
  /// MaxLanesOrShards. Shard choice is
  /// `(Addr >> ShardStripeLog2) & (Shards - 1)`.
  unsigned Shards = 1;
};

/// Aggregate statistics one facility gathers over a run. In the Sharded
/// model these are summed over shards at read time.
struct MetadataStats {
  uint64_t Lookups = 0;
  uint64_t Updates = 0;
  uint64_t Clears = 0;
  uint64_t Collisions = 0;    ///< Extra probes (hash table only).
  uint64_t LockAcquires = 0;  ///< Striped-lock acquisitions (concurrent modes).
  uint64_t LockContended = 0; ///< Acquisitions that found the lock held.
  uint64_t SeqlockReads = 0;   ///< Lock-free lookups (LockFreeRead only).
  uint64_t SeqlockRetries = 0; ///< Reads re-run after a dirty seqlock window.

  /// The contention component of the simulated cost model (priced with
  /// UncontendedLockCost / ContendedLockCost / SeqlockRetryCost; zero
  /// when SingleThread). Clean seqlock reads carry no price.
  uint64_t contentionSimCost() const {
    return (LockAcquires - LockContended) * UncontendedLockCost +
           LockContended * ContendedLockCost +
           SeqlockRetries * SeqlockRetryCost;
  }
};

/// Abstract interface of the disjoint metadata space.
///
/// Contract:
///  - The mapping is keyed by the location being loaded or stored, not by
///    the value of the pointer (§5.1). Addresses are simulated-VM
///    addresses; pointer slots are 8-byte aligned in all workloads.
///  - `lookup` returns the recorded Bounds by value; the null bounds
///    (0, 0) on a miss. There is no out-param form.
///  - In the Sharded model every single-slot operation is atomic with
///    respect to other callers; range operations (`clearRange`,
///    `copyRange`) are atomic per stripe but not across stripes — a
///    concurrent reader may observe a partially cleared/copied range,
///    which matches what a real multithreaded memcpy/free exposes.
///  - The LockFreeRead model keeps those write-path guarantees (writers
///    still serialize on the stripe's exclusive ShardLock) and makes the
///    same atomicity promise for lock-free lookups: a lookup racing an
///    update returns either the old or the new {base, bound} pair,
///    never a mix — the seqlock retry discards any torn copy.
///  - `reset()` and destruction require quiescence (no concurrent
///    callers): they reclaim the RCU-retired structures lock-free
///    readers may still be traversing otherwise.
///  - Statistics and telemetry never change behaviour or modelled costs.
class MetadataFacility {
public:
  virtual ~MetadataFacility() = default;

  virtual const char *name() const = 0;

  /// Returns the bounds recorded for the pointer stored at \p Addr;
  /// the null bounds — which fail every dereference check — when no
  /// metadata was ever recorded. Sharded model: shared (reader)
  /// acquisition only, so lookups scale across lanes. LockFreeRead
  /// model: zero mutex acquisitions — a seqlock-validated copy.
  virtual Bounds lookup(uint64_t Addr) = 0;

  /// Records bounds for the pointer stored at \p Addr.
  virtual void update(uint64_t Addr, Bounds B) = 0;

  /// Convenience spelling of update() for call sites that carry the pair
  /// as two scalars (the VM's reloc loader, tests).
  void update(uint64_t Addr, uint64_t Base, uint64_t Bound) {
    update(Addr, Bounds{Base, Bound});
  }

  /// Clears metadata for every pointer slot in [Addr, Addr+Size) — used when
  /// memory is freed or a stack frame is deallocated (§5.2 "memory reuse and
  /// stale metadata"). Returns the number of entries cleared.
  virtual uint64_t clearRange(uint64_t Addr, uint64_t Size) = 0;

  /// Copies metadata for every pointer slot from [Src, Src+Size) to
  /// [Dst, Dst+Size) — the metadata half of an instrumented memcpy (§5.2).
  /// Destination slots whose source slot carries no metadata are cleared
  /// (counted in MetadataStats::Clears, not in the return value), so stale
  /// bounds cannot leak into the copied region. Returns the number of
  /// entries copied.
  virtual uint64_t copyRange(uint64_t Dst, uint64_t Src, uint64_t Size) = 0;

  /// Simulated instruction cost of one lookup (paper §5.1: hash ≈ 9, shadow
  /// ≈ 5 x86 instructions).
  virtual uint64_t lookupCost() const = 0;

  /// Simulated instruction cost of one update.
  virtual uint64_t updateCost() const = 0;

  /// Current metadata memory footprint in bytes.
  virtual uint64_t memoryBytes() const = 0;

  /// Drops all metadata and statistics.
  virtual void reset() = 0;

  /// Aggregate statistics, summed over shards.
  virtual MetadataStats stats() const = 0;

  /// Number of address-range shards (1 in the default configuration).
  virtual unsigned shards() const = 0;

  /// The concurrency model this instance was constructed with.
  virtual ConcurrencyModel concurrency() const = 0;

  /// Attaches a telemetry sink; paths are rooted at \p Prefix (the run
  /// driver uses "facility/<name>"). Null detaches. Recording never
  /// changes behaviour or the modelled costs; with no sink attached the
  /// hot paths pay exactly one pointer test (the zero-cost disabled
  /// mode). With more than one shard, per-shard series (probe
  /// histograms, contention counters) live under "<Prefix>/shard<K>".
  /// Implementations override to cache direct histogram pointers.
  virtual void attachTelemetry(Telemetry *T, const std::string &Prefix) {
    Telem = T;
    TelemetryPrefix = Prefix;
  }

  /// Pushes end-of-run gauges (occupancy, memory footprint, contention)
  /// into the attached sink; no-op when none is attached. Must be called
  /// from one thread, after all lanes joined.
  virtual void flushTelemetry() {}

protected:
  Telemetry *Telem = nullptr;
  std::string TelemetryPrefix;
};

} // namespace softbound

#endif // SOFTBOUND_RUNTIME_METADATAFACILITY_H
