//===- runtime/HashTableMetadata.cpp - open-hash metadata ------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/HashTableMetadata.h"

#include <cassert>

using namespace softbound;

void HashTableMetadata::attachTelemetry(Telemetry *T,
                                        const std::string &Prefix) {
  MetadataFacility::attachTelemetry(T, Prefix);
  for (size_t K = 0; K < Stripes.size(); ++K) {
    std::string ShardPrefix =
        Stripes.size() == 1 ? Prefix : Prefix + "/shard" + std::to_string(K);
    Stripes[K]->ProbeHist =
        T ? &T->histogram(ShardPrefix + "/probe_length") : nullptr;
  }
}

HashTableMetadata::Entry *HashTableMetadata::probe(Stripe &S, uint64_t Addr,
                                                   bool ForInsert) {
  // Tag is the slot address itself; addresses 0 and 1 never hold pointers.
  // The generation pointer is acquire-loaded, so this same probe serves
  // the lock-free read path: a concurrent grow() publishes with a release
  // store and retires (never frees) the generation a reader may be on.
  Table &T = *S.Tab.load(std::memory_order_acquire);
  size_t Idx = hash(Addr, T.Size);
  Entry *FirstTombstone = nullptr;
  for (size_t Probe = 0; Probe < T.Size; ++Probe) {
    Entry &E = T.Slots[(Idx + Probe) & (T.Size - 1)];
    uint64_t Tag = ld(E.Tag);
    if (Tag == Addr || Tag == EmptyTag) {
      if (Probe)
        S.Collisions.fetch_add(Probe, std::memory_order_relaxed);
      if (S.ProbeHist)
        S.ProbeHist->record(Probe + 1);
      if (Tag == Addr)
        return &E;
      return ForInsert ? (FirstTombstone ? FirstTombstone : &E) : nullptr;
    }
    if (Tag == TombstoneTag && !FirstTombstone)
      FirstTombstone = &E;
  }
  if (S.ProbeHist)
    S.ProbeHist->record(T.Size);
  return ForInsert ? FirstTombstone : nullptr;
}

HashTableMetadata::Entry *HashTableMetadata::materialize(Stripe &S,
                                                         uint64_t Addr) {
  if (S.Used * 2 >= S.Tab.load(std::memory_order_relaxed)->Size)
    grow(S);
  Entry *E = probe(S, Addr, /*ForInsert=*/true);
  assert(E && "hash table full despite growth policy");
  if (ld(E->Tag) != Addr) {
    if (ld(E->Tag) == EmptyTag)
      ++S.Used;
    st(E->Tag, Addr);
    ++S.Live;
  }
  return E;
}

void HashTableMetadata::clearStore(Stripe &S) {
  Table *Live = S.Tab.load(std::memory_order_relaxed);
  for (size_t I = 0; I < Live->Size; ++I) {
    st(Live->Slots[I].Tag, 0);
    st(Live->Slots[I].Base, 0);
    st(Live->Slots[I].Bound, 0);
  }
  if (S.Tables.size() > 1) {
    std::unique_ptr<Table> Keep = std::move(S.Tables.back());
    S.Tables.clear();
    S.Tables.push_back(std::move(Keep));
  }
  S.Live = S.Used = 0;
}

void HashTableMetadata::grow(Stripe &S) {
  // Build the next generation off to the side, publish it with a release
  // store, and retire the old one. In the LockFreeRead model a reader
  // may still be probing the retired generation, so it is kept until
  // reset()/destruction (total retained memory is bounded by the live
  // size — generations grow geometrically); the other models free it
  // immediately.
  Table *Old = S.Tab.load(std::memory_order_relaxed);
  auto Next = std::make_unique<Table>(Old->Size * 2);
  S.Live = S.Used = 0;
  S.Tables.push_back(std::move(Next));
  S.Tab.store(S.Tables.back().get(), std::memory_order_release);
  for (size_t I = 0; I < Old->Size; ++I) {
    uint64_t Tag = ld(Old->Slots[I].Tag);
    if (Tag == EmptyTag || Tag == TombstoneTag)
      continue;
    Entry *N = probe(S, Tag, /*ForInsert=*/true);
    st(N->Tag, Tag);
    st(N->Base, ld(Old->Slots[I].Base));
    st(N->Bound, ld(Old->Slots[I].Bound));
    ++S.Live;
    ++S.Used;
  }
  if (!lockFreeReads()) {
    // Only the freshly published generation needs to stay alive.
    std::unique_ptr<Table> Keep = std::move(S.Tables.back());
    S.Tables.clear();
    S.Tables.push_back(std::move(Keep));
  }
}

uint64_t HashTableMetadata::memoryBytes() const {
  uint64_t Bytes = 0;
  forEachStripe([&Bytes](const Stripe &S) {
    Bytes += S.Tab.load(std::memory_order_relaxed)->Size * sizeof(Entry);
  });
  return Bytes;
}

double HashTableMetadata::loadFactor() const {
  uint64_t Live = 0, TableEntries = 0;
  forEachStripe([&](const Stripe &S) {
    Live += S.Live;
    TableEntries += S.Tab.load(std::memory_order_relaxed)->Size;
  });
  return TableEntries ? static_cast<double>(Live) /
                            static_cast<double>(TableEntries)
                      : 0.0;
}

void HashTableMetadata::flushStripeGauges(const Stripe &S,
                                          const std::string &Prefix) {
  Telem->counter(Prefix + "/live_entries") = S.Live;
}

void HashTableMetadata::flushGauges() {
  uint64_t Live = 0, TableEntries = 0;
  for (const auto &S : Stripes) {
    Live += S->Live;
    TableEntries += S->Tab.load(std::memory_order_relaxed)->Size;
  }
  Telem->counter(TelemetryPrefix + "/live_entries") = Live;
  Telem->counter(TelemetryPrefix + "/table_entries") = TableEntries;
  Telem->counter(TelemetryPrefix + "/load_factor_permille") =
      static_cast<uint64_t>(loadFactor() * 1000.0);
  Telem->counter(TelemetryPrefix + "/memory_bytes") = memoryBytes();
  Telem->counter(TelemetryPrefix + "/collisions") = stats().Collisions;
}
