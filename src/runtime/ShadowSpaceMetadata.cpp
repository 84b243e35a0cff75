//===- runtime/ShadowSpaceMetadata.cpp - tag-less shadow space -------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ShadowSpaceMetadata.h"

using namespace softbound;

static constexpr uint64_t SlotsPerPage = ShadowSpaceStripe::SlotsPerPage;

ShadowSpaceMetadata::Pair *ShadowSpaceMetadata::find(Stripe &S,
                                                     uint64_t Addr) {
  uint64_t Slot = Addr >> 3;
  uint64_t PageId = Slot / SlotsPerPage;
  for (PageNode *N =
           S.Buckets[bucketOf(PageId)].load(std::memory_order_acquire);
       N; N = N->Next)
    if (N->PageId == PageId)
      return &N->Slots[Slot % SlotsPerPage];
  return nullptr;
}

ShadowSpaceMetadata::Pair *ShadowSpaceMetadata::materialize(Stripe &S,
                                                            uint64_t Addr) {
  if (Pair *P = find(S, Addr))
    return P;
  uint64_t Slot = Addr >> 3;
  uint64_t PageId = Slot / SlotsPerPage;
  std::atomic<PageNode *> &Head = S.Buckets[bucketOf(PageId)];
  // The node is complete — zero-filled slots, id, next link — before the
  // release store makes it reachable; a racing lock-free reader therefore
  // sees either the old chain (page miss, null bounds: exactly what
  // zero-fill-on-demand would return) or the finished node.
  S.Nodes.push_back(std::make_unique<PageNode>(
      PageId, Head.load(std::memory_order_relaxed)));
  Head.store(S.Nodes.back().get(), std::memory_order_release);
  ++S.PageCount;
  return &S.Nodes.back()->Slots[Slot % SlotsPerPage];
}

void ShadowSpaceMetadata::clearStore(Stripe &S) {
  for (auto &Head : S.Buckets)
    Head.store(nullptr, std::memory_order_relaxed);
  S.Nodes.clear();
  S.PageCount = 0;
}

uint64_t ShadowSpaceMetadata::memoryBytes() const {
  uint64_t Bytes = 0;
  forEachStripe([&Bytes](const Stripe &S) {
    Bytes += S.PageCount * SlotsPerPage * sizeof(Pair);
  });
  return Bytes;
}

void ShadowSpaceMetadata::flushStripeGauges(const Stripe &S,
                                            const std::string &Prefix) {
  Telem->counter(Prefix + "/pages_materialized") = S.PageCount;
}

void ShadowSpaceMetadata::flushGauges() {
  uint64_t Pages = 0;
  for (const auto &S : Stripes)
    Pages += S->PageCount;
  Telem->counter(TelemetryPrefix + "/pages_materialized") = Pages;
  Telem->counter(TelemetryPrefix + "/memory_bytes") = memoryBytes();
}
