//===- vm/SimMemory.cpp - simulated address space ---------------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/SimMemory.h"

#include <cassert>
#include <cstring>
#include <new>

#include <sys/mman.h>

using namespace softbound;
using namespace softbound::simlayout;

SimMemory::Segment::Segment(uint64_t Size) : Size(Size) {
  if (Size == 0)
    return;
  // MAP_NORESERVE: the segment sizes are upper bounds, not commitments;
  // only touched pages ever get backing store.
  void *P = mmap(nullptr, Size, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (P == MAP_FAILED)
    throw std::bad_alloc();
  Base = static_cast<uint8_t *>(P);
}

SimMemory::Segment::~Segment() {
  if (Base)
    munmap(Base, Size);
}

SimMemory::SimMemory(uint64_t GlobalSize, uint64_t HeapSize,
                     uint64_t StackSize)
    : Globals(GlobalSize), Heap(HeapSize), Stack(StackSize),
      StackTopAddr(StackBase + StackSize) {
  assert(GlobalSize <= HeapBase - GlobalBase &&
         HeapSize <= StackBase - HeapBase && "segments must stay disjoint");
}

void SimMemory::copyOutRelaxed(uint8_t *Dst, const uint8_t *Src, uint64_t N) {
  for (uint64_t I = 0; I < N; ++I)
    Dst[I] = __atomic_load_n(Src + I, __ATOMIC_RELAXED);
}

void SimMemory::copyInRelaxed(uint8_t *Dst, const uint8_t *Src, uint64_t N) {
  for (uint64_t I = 0; I < N; ++I)
    __atomic_store_n(Dst + I, Src[I], __ATOMIC_RELAXED);
}

bool SimMemory::readBytes(uint64_t Addr, uint64_t N, uint8_t *Out) const {
  const uint8_t *P = resolve(Addr, N);
  if (!P)
    return false;
  if (Concurrent)
    copyOutRelaxed(Out, P, N);
  else
    std::memcpy(Out, P, N);
  return true;
}

bool SimMemory::writeBytes(uint64_t Addr, uint64_t N, const uint8_t *In) {
  uint8_t *P = resolve(Addr, N);
  if (!P)
    return false;
  if (Concurrent)
    copyInRelaxed(P, In, N);
  else
    std::memcpy(P, In, N);
  return true;
}

bool SimMemory::accessible(uint64_t Addr, uint64_t N) const {
  return resolve(Addr, N) != nullptr;
}

bool SimMemory::stringLength(uint64_t Addr, uint64_t Limit,
                             uint64_t &Len) const {
  // Segments neither overlap nor abut: a string ends inside the segment
  // it starts in, or runs off mapped memory.
  uint64_t Avail = 0;
  const uint8_t *P = span(Addr, Avail);
  if (!P)
    return false;
  uint64_t N = Avail < Limit ? Avail : Limit;
  if (Concurrent) {
    for (uint64_t I = 0; I < N; ++I)
      if (__atomic_load_n(P + I, __ATOMIC_RELAXED) == 0) {
        Len = I;
        return true;
      }
    return false;
  }
  const void *Nul = std::memchr(P, 0, N);
  if (!Nul)
    return false;
  Len = static_cast<uint64_t>(static_cast<const uint8_t *>(Nul) - P);
  return true;
}

uint64_t SimMemory::allocateGlobal(uint64_t Size, uint64_t Align) {
  std::lock_guard<std::mutex> L(HeapMu);
  uint64_t Start = (GlobalUsed + Align - 1) / Align * Align;
  if (Start + Size > Globals.size())
    return 0;
  GlobalUsed = Start + Size;
  return GlobalBase + Start;
}

uint64_t SimMemory::heapAlloc(uint64_t Size, uint64_t RedzonePad) {
  std::lock_guard<std::mutex> L(HeapMu);
  if (Size == 0)
    Size = 1;
  uint64_t Need = (Size + RedzonePad + 15) & ~15ULL;

  // First fit in the free list.
  for (auto It = FreeList.begin(); It != FreeList.end(); ++It) {
    if (It->second < Need)
      continue;
    uint64_t Addr = It->first;
    uint64_t Remain = It->second - Need;
    FreeList.erase(It);
    if (Remain >= 16)
      FreeList[Addr + Need] = Remain;
    Allocs[Addr] = Size;
    HeapLive += Size;
    return Addr;
  }

  // Bump allocation.
  uint64_t Addr = HeapBump;
  if (Addr + Need > HeapBase + Heap.size())
    return 0;
  HeapBump += Need;
  if (HeapBump - HeapBase > HeapHigh)
    HeapHigh = HeapBump - HeapBase;
  Allocs[Addr] = Size;
  HeapLive += Size;
  return Addr;
}

uint64_t SimMemory::heapFree(uint64_t Addr) {
  std::lock_guard<std::mutex> L(HeapMu);
  auto It = Allocs.find(Addr);
  if (It == Allocs.end())
    return UINT64_MAX;
  uint64_t Size = It->second;
  uint64_t Padded = (Size + 15) & ~15ULL;
  Allocs.erase(It);
  HeapLive -= Size;
  FreeList[Addr] = Padded;
  return Size;
}

uint64_t SimMemory::heapBlockSize(uint64_t Addr) const {
  std::lock_guard<std::mutex> L(HeapMu);
  auto It = Allocs.find(Addr);
  return It == Allocs.end() ? 0 : It->second;
}

std::pair<uint64_t, uint64_t>
SimMemory::heapBlockContaining(uint64_t Addr) const {
  std::lock_guard<std::mutex> L(HeapMu);
  auto It = Allocs.upper_bound(Addr);
  if (It == Allocs.begin())
    return {0, 0};
  --It;
  if (Addr >= It->first && Addr < It->first + It->second)
    return {It->first, It->second};
  return {0, 0};
}

void SimMemory::zeroRange(uint64_t Addr, uint64_t Size) {
  uint8_t *P = resolve(Addr, Size);
  if (!P)
    return;
  if (Concurrent) {
    for (uint64_t I = 0; I < Size; ++I)
      __atomic_store_n(P + I, uint8_t(0), __ATOMIC_RELAXED);
  } else {
    std::memset(P, 0, Size);
  }
}
