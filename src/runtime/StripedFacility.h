//===- runtime/StripedFacility.h - the shared stripe core -------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stripe core both metadata facilities are built on (docs/runtime.md
/// "The stripe core"). The address space is divided into
/// 2^ShardStripeLog2-byte stripes, each owned by one shard; the core owns
/// everything except the per-stripe data structure itself:
///
///  - shard construction, normalization (MaxLanesOrShards) and shardOf;
///  - the ConcurrencyModel -> lock decision on every path — the only place
///    in the runtime that decision is made;
///  - the seqlock read/validate/retry loop of the LockFreeRead model;
///  - per-stripe Lookups/Updates/Clears/Collisions and lock/seqlock
///    tallies, their stats() sum and reset();
///  - stripe-chunked clearRange and copyRange;
///  - the clear_*/copy_*/lock_*/seqlock_* telemetry.
///
/// A facility derives from StripedFacility<Derived, Store> (CRTP). Store is
/// the per-stripe data; Derived supplies these non-virtual members, which
/// the core calls directly — no per-slot virtual call on any path:
///
///   Slot *find(Stripe &S, uint64_t Addr)
///       The slot recorded for Addr, or null. Runs on the lock-free read
///       path, so it must acquire-load anything a writer publishes.
///   static bool holds(const Slot &P)
///       Whether a found slot carries metadata: what clears count and
///       what copyRange copies.
///   Slot *materialize(Stripe &S, uint64_t Addr)
///       find-or-insert; the caller holds S exclusively.
///   void erase(Stripe &S, Slot &P)
///       Drops one slot's metadata; the caller holds S exclusively.
///   void clearStore(Stripe &S)
///       Drops every slot (reset(); quiescent).
///   void flushStripeGauges(const Stripe &S, const std::string &Prefix)
///   void flushGauges()
///       The store's own telemetry gauges, per shard and aggregate.
///
/// Slot is any type with relaxed-atomic `Base` and `Bound` words.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_RUNTIME_STRIPEDFACILITY_H
#define SOFTBOUND_RUNTIME_STRIPEDFACILITY_H

#include "runtime/MetadataFacility.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace softbound {

/// One shard's striped lock plus its contention tallies. A null pointer
/// passed to the guards below means "no lock on this path": the guard
/// degenerates to a single branch, preserving the lock-free fast path
/// the gated baselines were measured on.
struct ShardLock {
  mutable std::shared_mutex Mu;
  mutable std::atomic<uint64_t> Acquires{0};
  mutable std::atomic<uint64_t> Contended{0};
};

/// Reader-side guard: shared acquisition, so concurrent lookups never
/// serialize against each other. Counts the acquisition and whether it
/// found the stripe exclusively held.
class ShardSharedGuard {
public:
  explicit ShardSharedGuard(const ShardLock *L) : L(L) {
    if (!L)
      return;
    L->Acquires.fetch_add(1, std::memory_order_relaxed);
    if (!L->Mu.try_lock_shared()) {
      L->Contended.fetch_add(1, std::memory_order_relaxed);
      L->Mu.lock_shared();
    }
  }
  ~ShardSharedGuard() {
    if (L)
      L->Mu.unlock_shared();
  }
  ShardSharedGuard(const ShardSharedGuard &) = delete;
  ShardSharedGuard &operator=(const ShardSharedGuard &) = delete;

private:
  const ShardLock *L;
};

/// Writer-side guard: exclusive acquisition for updates and range ops.
class ShardExclusiveGuard {
public:
  explicit ShardExclusiveGuard(const ShardLock *L) : L(L) {
    if (!L)
      return;
    L->Acquires.fetch_add(1, std::memory_order_relaxed);
    if (!L->Mu.try_lock()) {
      L->Contended.fetch_add(1, std::memory_order_relaxed);
      L->Mu.lock();
    }
  }
  ~ShardExclusiveGuard() {
    if (L)
      L->Mu.unlock();
  }
  ShardExclusiveGuard(const ShardExclusiveGuard &) = delete;
  ShardExclusiveGuard &operator=(const ShardExclusiveGuard &) = delete;

private:
  const ShardLock *L;
};

/// One stripe's seqlock: the sequence word writers bump around every
/// mutation in the LockFreeRead model, plus the read-side tallies behind
/// the SeqlockReads / SeqlockRetries statistics.
///
/// Protocol (the classic seqlock, with the data itself held in relaxed
/// atomics so racing copies are defined behaviour):
///
///   writer  — already holding the stripe's ShardLock exclusively, so
///             writers never race each other —
///             writeBegin(): Seq += 1 (now odd), release fence;
///             ...mutate (relaxed stores)...;
///             writeEnd():   Seq += 1 (now even, release).
///   reader  S0 = readBegin() (acquire; spins past odd, yielding so a
///             descheduled writer on a single-core host gets the CPU);
///             ...copy (relaxed loads)...;
///             readValidate(S0): acquire fence, re-read Seq; a changed
///             sequence means the copy may be torn — count a retry and
///             re-run the read.
struct StripeSeqlock {
  std::atomic<uint64_t> Seq{0};
  mutable std::atomic<uint64_t> Reads{0};
  mutable std::atomic<uint64_t> Retries{0};

  void writeBegin() {
    Seq.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
  }
  void writeEnd() { Seq.fetch_add(1, std::memory_order_release); }

  /// Starts one counted read attempt sequence; returns an even sequence
  /// value to validate against.
  uint64_t readBegin() const {
    Reads.fetch_add(1, std::memory_order_relaxed);
    return stableSeq();
  }

  /// An even (no write in flight) sequence value. Each odd observation
  /// counts as one retry — the reader is paying for a writer's window.
  uint64_t stableSeq() const {
    for (;;) {
      uint64_t S = Seq.load(std::memory_order_acquire);
      if (!(S & 1))
        return S;
      Retries.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  }

  /// True when a copy taken since sequence \p S0 is consistent; on
  /// failure the retry is counted and the caller re-runs its read.
  bool readValidate(uint64_t S0) const {
    std::atomic_thread_fence(std::memory_order_acquire);
    if (Seq.load(std::memory_order_relaxed) == S0)
      return true;
    Retries.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
};

/// RAII writer window: brackets a mutation with writeBegin/writeEnd when
/// \p SL is non-null (the LockFreeRead model); free otherwise. Callers
/// hold the stripe's ShardLock exclusively for the whole window.
class SeqlockWriteScope {
public:
  explicit SeqlockWriteScope(StripeSeqlock *SL) : SL(SL) {
    if (SL)
      SL->writeBegin();
  }
  ~SeqlockWriteScope() {
    if (SL)
      SL->writeEnd();
  }
  SeqlockWriteScope(const SeqlockWriteScope &) = delete;
  SeqlockWriteScope &operator=(const SeqlockWriteScope &) = delete;

private:
  StripeSeqlock *SL;
};

/// The stripe core; see the file comment for what \p Derived supplies.
template <typename Derived, typename Store>
class StripedFacility : public MetadataFacility {
public:
  using MetadataFacility::update;

  Bounds lookup(uint64_t Addr) final {
    Stripe &S = stripeOf(Addr);
    S.Lookups.fetch_add(1, std::memory_order_relaxed);
    if (Opts.Model == ConcurrencyModel::LockFreeRead) {
      // A seqlock-validated copy: no mutex, and a copy a writer's window
      // overlapped is discarded and re-read. Probe statistics are
      // recorded per attempt — a retried read really re-walks the store.
      uint64_t S0 = S.Seq.readBegin();
      for (;;) {
        Bounds B = boundsOf(self().find(S, Addr));
        if (S.Seq.readValidate(S0))
          return B;
        S0 = S.Seq.stableSeq();
      }
    }
    ShardSharedGuard Guard(Opts.Model == ConcurrencyModel::Sharded ? &S.Lock
                                                                   : nullptr);
    return boundsOf(self().find(S, Addr));
  }

  void update(uint64_t Addr, Bounds B) final {
    Stripe &S = stripeOf(Addr);
    write(S, [&] {
      S.Updates.fetch_add(1, std::memory_order_relaxed);
      auto *P = self().materialize(S, Addr);
      st(P->Base, B.Base);
      st(P->Bound, B.Bound);
    });
  }

  uint64_t clearRange(uint64_t Addr, uint64_t Size) final {
    uint64_t Cleared = 0;
    uint64_t A = Addr & ~7ULL;
    uint64_t End = Addr + Size;
    while (A < End) {
      // [A, ChunkEnd) stays inside one stripe, so one exclusive
      // acquisition covers the whole chunk.
      uint64_t StripeEnd = ((A >> ShardStripeLog2) + 1) << ShardStripeLog2;
      uint64_t ChunkEnd = std::min(End, StripeEnd);
      Stripe &S = stripeOf(A);
      write(S, [&] {
        uint64_t N = 0;
        for (uint64_t Slot = A; Slot < ChunkEnd; Slot += 8)
          N += drop(S, Slot);
        S.Clears.fetch_add(N, std::memory_order_relaxed);
        Cleared += N;
      });
      // Advance to the first 8-aligned slot at or past the chunk end.
      A += ((ChunkEnd - A) + 7) & ~7ULL;
    }
    if (Telem) {
      ClearCalls.fetch_add(1, std::memory_order_relaxed);
      ClearEntries.fetch_add(Cleared, std::memory_order_relaxed);
    }
    return Cleared;
  }

  uint64_t copyRange(uint64_t Dst, uint64_t Src, uint64_t Size) final {
    uint64_t Copied = 0;
    for (uint64_t A = Src & ~7ULL; A < Src + Size; A += 8) {
      uint64_t DA = Dst + (A - Src);
      Bounds B;
      bool Have = false;
      {
        // copyRange is a write-path operation: its source read takes the
        // shared stripe lock in both concurrent models (never the
        // seqlock), so presence-vs-null-bounds semantics stay identical
        // across all three models.
        Stripe &S = stripeOf(A);
        ShardSharedGuard Guard(lockOf(S));
        auto *P = self().find(S, A);
        if (P && Derived::holds(*P)) {
          B = boundsOf(P);
          Have = true;
        }
      }
      if (Have) {
        update(DA, B);
        ++Copied;
        continue;
      }
      // A destination slot whose source has no metadata is cleared, so
      // stale bounds cannot leak into the copied region; the clear counts
      // in MetadataStats::Clears (clear_* telemetry counts clearRange
      // calls only).
      Stripe &D = stripeOf(DA);
      write(D, [&] {
        if (drop(D, DA))
          D.Clears.fetch_add(1, std::memory_order_relaxed);
      });
    }
    if (Telem) {
      CopyCalls.fetch_add(1, std::memory_order_relaxed);
      CopyEntries.fetch_add(Copied, std::memory_order_relaxed);
    }
    return Copied;
  }

  void reset() final {
    // Quiescence required (MetadataFacility contract): the store reclaims
    // structures lock-free readers may otherwise still be traversing.
    for (auto &S : Stripes) {
      ShardExclusiveGuard Guard(lockOf(*S));
      self().clearStore(*S);
      for (auto *C : {&S->Lookups, &S->Updates, &S->Clears, &S->Collisions,
                      &S->Lock.Acquires, &S->Lock.Contended, &S->Seq.Seq,
                      &S->Seq.Reads, &S->Seq.Retries})
        C->store(0, std::memory_order_relaxed);
    }
    for (auto *C : {&ClearCalls, &ClearEntries, &CopyCalls, &CopyEntries})
      C->store(0, std::memory_order_relaxed);
  }

  MetadataStats stats() const final {
    MetadataStats Out;
    for (const auto &S : Stripes) {
      Out.Lookups += ld(S->Lookups);
      Out.Updates += ld(S->Updates);
      Out.Clears += ld(S->Clears);
      Out.Collisions += ld(S->Collisions);
      Out.LockAcquires += ld(S->Lock.Acquires);
      Out.LockContended += ld(S->Lock.Contended);
      Out.SeqlockReads += ld(S->Seq.Reads);
      Out.SeqlockRetries += ld(S->Seq.Retries);
    }
    return Out;
  }

  unsigned shards() const final {
    return static_cast<unsigned>(Stripes.size());
  }
  ConcurrencyModel concurrency() const final { return Opts.Model; }

  void flushTelemetry() final {
    if (!Telem)
      return;
    auto Set = [this](const std::string &P, const char *Key, uint64_t V) {
      Telem->counter(P + "/" + Key) = V;
    };
    // Lock tallies are read before the store's gauges run: those take
    // shared acquisitions of their own (memoryBytes, load factor).
    MetadataStats St = stats();
    Set(TelemetryPrefix, "clear_calls", ld(ClearCalls));
    Set(TelemetryPrefix, "clear_entries", ld(ClearEntries));
    Set(TelemetryPrefix, "copy_calls", ld(CopyCalls));
    Set(TelemetryPrefix, "copy_entries", ld(CopyEntries));
    if (Opts.Model != ConcurrencyModel::SingleThread) {
      Set(TelemetryPrefix, "lock_acquires", St.LockAcquires);
      Set(TelemetryPrefix, "lock_contended", St.LockContended);
      for (size_t K = 0; K < Stripes.size(); ++K) {
        std::string P = TelemetryPrefix + "/shard" + std::to_string(K);
        Set(P, "lock_acquires", ld(Stripes[K]->Lock.Acquires));
        Set(P, "lock_contended", ld(Stripes[K]->Lock.Contended));
        self().flushStripeGauges(*Stripes[K], P);
      }
    }
    if (Opts.Model == ConcurrencyModel::LockFreeRead) {
      Set(TelemetryPrefix, "seqlock_reads", St.SeqlockReads);
      Set(TelemetryPrefix, "seqlock_retries", St.SeqlockRetries);
    }
    self().flushGauges();
  }

protected:
  /// One address-range stripe: the facility's store plus the core's lock,
  /// seqlock and statistics. The counters are relaxed atomics because
  /// lookups (shared acquisitions or lock-free reads) bump them
  /// concurrently.
  struct Stripe : Store {
    using Store::Store;
    ShardLock Lock;
    StripeSeqlock Seq;
    std::atomic<uint64_t> Lookups{0};
    std::atomic<uint64_t> Updates{0};
    std::atomic<uint64_t> Clears{0};
    std::atomic<uint64_t> Collisions{0}; ///< Extra probes, if the store probes.
  };

  /// \p StoreArgs are passed to every stripe's Store constructor.
  template <typename... StoreArgs>
  explicit StripedFacility(FacilityOptions Options,
                           const StoreArgs &...StoreArgsV)
      : Opts(Options) {
    Opts.Shards = normalizeShards(Opts.Shards);
    Stripes.reserve(Opts.Shards);
    for (unsigned K = 0; K < Opts.Shards; ++K)
      Stripes.push_back(std::make_unique<Stripe>(StoreArgsV...));
  }

  /// Normalized shard count: a power of two in [1, MaxLanesOrShards].
  static unsigned normalizeShards(unsigned Requested) {
    unsigned N = 1;
    while (N < Requested && N < MaxLanesOrShards)
      N <<= 1;
    return N;
  }

  /// True in the LockFreeRead model, where readers may still traverse a
  /// structure a writer replaced: stores retire it instead of freeing.
  bool lockFreeReads() const {
    return Opts.Model == ConcurrencyModel::LockFreeRead;
  }

  /// Runs \p Fn on every stripe, each under its shared lock in the
  /// concurrent models (aggregate gauges such as memoryBytes).
  template <typename Fn> void forEachStripe(Fn F) const {
    for (const auto &S : Stripes) {
      ShardSharedGuard Guard(lockOf(*S));
      F(std::as_const(*S));
    }
  }

  /// Relaxed load/store of one slot or counter word.
  static uint64_t ld(const std::atomic<uint64_t> &W) {
    return W.load(std::memory_order_relaxed);
  }
  static void st(std::atomic<uint64_t> &W, uint64_t V) {
    W.store(V, std::memory_order_relaxed);
  }

  std::vector<std::unique_ptr<Stripe>> Stripes;

private:
  Derived &self() { return static_cast<Derived &>(*this); }
  const Derived &self() const { return static_cast<const Derived &>(*this); }

  size_t shardOf(uint64_t Addr) const {
    return static_cast<size_t>((Addr >> ShardStripeLog2) &
                               (Stripes.size() - 1));
  }
  Stripe &stripeOf(uint64_t Addr) { return *Stripes[shardOf(Addr)]; }

  /// The lock every write-path operation takes, or null in SingleThread:
  /// both concurrent models lock writes.
  const ShardLock *lockOf(const Stripe &S) const {
    return Opts.Model == ConcurrencyModel::SingleThread ? nullptr : &S.Lock;
  }

  /// Runs \p Mutate under \p S's exclusive lock and, in the LockFreeRead
  /// model, inside a seqlock write window.
  template <typename Fn> void write(Stripe &S, Fn Mutate) {
    ShardExclusiveGuard Guard(lockOf(S));
    SeqlockWriteScope Writing(lockFreeReads() ? &S.Seq : nullptr);
    Mutate();
  }

  /// Drops \p Addr's metadata if its slot carries any; the caller holds
  /// \p S exclusively. Returns the number of entries dropped (0 or 1).
  uint64_t drop(Stripe &S, uint64_t Addr) {
    auto *P = self().find(S, Addr);
    if (!P || !Derived::holds(*P))
      return 0;
    self().erase(S, *P);
    return 1;
  }

  template <typename Slot> static Bounds boundsOf(const Slot *P) {
    return P ? Bounds{ld(P->Base), ld(P->Bound)} : Bounds{};
  }

  FacilityOptions Opts;
  std::atomic<uint64_t> ClearCalls{0};
  std::atomic<uint64_t> ClearEntries{0};
  std::atomic<uint64_t> CopyCalls{0};
  std::atomic<uint64_t> CopyEntries{0};
};

} // namespace softbound

#endif // SOFTBOUND_RUNTIME_STRIPEDFACILITY_H
