//===- vm/SimMemory.h - simulated address space -----------------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated 64-bit address space programs execute in: a function
/// segment (code addresses), a global/data segment, a heap with a first-fit
/// free-list allocator, and a downward-growing stack. Return addresses,
/// saved frame pointers and jmp_bufs live as ordinary words in this space,
/// which is what makes the Wilander attack suite (§6.2) expressible.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_VM_SIMMEMORY_H
#define SOFTBOUND_VM_SIMMEMORY_H

#include <cstdint>
#include <map>
#include <mutex>

namespace softbound {

/// Segment base addresses. The layout mirrors a classic process image; the
/// null page is never mapped so null dereferences fault.
namespace simlayout {
inline constexpr uint64_t FuncBase = 0x0000'0010'0000ULL;
inline constexpr uint64_t FuncStride = 16; ///< Address distance of functions.
inline constexpr uint64_t GlobalBase = 0x0000'1000'0000ULL;
inline constexpr uint64_t HeapBase = 0x0000'2000'0000ULL;
inline constexpr uint64_t StackBase = 0x0000'7000'0000ULL;
/// Segment sizes of every VM's SimMemory: 4 MB of globals, a 64 MB heap
/// and a 2 MB stack.
inline constexpr uint64_t GlobalSize = 4ULL << 20;
inline constexpr uint64_t HeapSize = 64ULL << 20;
inline constexpr uint64_t StackSize = 2ULL << 20;
} // namespace simlayout

/// Byte-addressable simulated memory with segment bounds checking.
/// read/write return false on access outside mapped segments — the VM turns
/// that into a simulated segmentation fault.
///
/// Each segment is a demand-zero host mapping: construction reserves
/// address space only, and the host kernel zero-fills a page the first
/// time it is touched, so a session pays for the pages it uses rather
/// than for the segment sizes. Bytes never written read as 0.
class SimMemory {
public:
  /// Throws std::bad_alloc when a segment cannot be mapped.
  SimMemory(uint64_t GlobalSize, uint64_t HeapSize, uint64_t StackSize);

  //===--------------------------------------------------------------------===//
  // Raw access
  //===--------------------------------------------------------------------===//

  /// Reads \p Size (1/2/4/8) bytes at \p Addr, zero-extended into \p Out.
  bool read(uint64_t Addr, unsigned Size, uint64_t &Out) const;

  /// Writes the low \p Size bytes of \p Val at \p Addr.
  bool write(uint64_t Addr, unsigned Size, uint64_t Val);

  bool readBytes(uint64_t Addr, uint64_t N, uint8_t *Out) const;
  bool writeBytes(uint64_t Addr, uint64_t N, const uint8_t *In);

  /// True if [Addr, Addr+N) lies entirely inside one mapped segment.
  bool accessible(uint64_t Addr, uint64_t N) const;

  /// Sets \p Len to the length of the NUL-terminated string at \p Addr.
  /// False when no NUL lies within the first \p Limit bytes, or the
  /// bytes before one run off mapped memory.
  bool stringLength(uint64_t Addr, uint64_t Limit, uint64_t &Len) const;

  //===--------------------------------------------------------------------===//
  // Globals
  //===--------------------------------------------------------------------===//

  /// Reserves \p Size bytes (aligned) in the global segment; returns the
  /// address, or 0 when the segment is exhausted.
  uint64_t allocateGlobal(uint64_t Size, uint64_t Align);

  //===--------------------------------------------------------------------===//
  // Heap (first-fit free list, 16-byte aligned, no headers so that
  // consecutive allocations are adjacent — heap overflow attacks depend on
  // deterministic adjacency)
  //===--------------------------------------------------------------------===//

  /// Allocates \p Size bytes (plus \p RedzonePad bytes of unusable padding
  /// after the block, for the red-zone baseline). Returns 0 on OOM.
  uint64_t heapAlloc(uint64_t Size, uint64_t RedzonePad = 0);

  /// Frees a heap block. Returns the block size, or UINT64_MAX for an
  /// invalid free.
  uint64_t heapFree(uint64_t Addr);

  /// Returns the size of the live allocation starting at \p Addr, or 0.
  uint64_t heapBlockSize(uint64_t Addr) const;

  /// Returns the live allocation containing \p Addr as {start, size}, or
  /// {0, 0} when the address is not inside any live block.
  std::pair<uint64_t, uint64_t> heapBlockContaining(uint64_t Addr) const;

  uint64_t heapBytesLive() const {
    std::lock_guard<std::mutex> L(HeapMu);
    return HeapLive;
  }
  uint64_t heapHighWater() const {
    std::lock_guard<std::mutex> L(HeapMu);
    return HeapHigh;
  }

  //===--------------------------------------------------------------------===//
  // Stack
  //===--------------------------------------------------------------------===//

  uint64_t stackTop() const { return StackTopAddr; }
  uint64_t stackLimit() const { return simlayout::StackBase; }

  /// Zeroes a byte range (used when reusing stack memory).
  void zeroRange(uint64_t Addr, uint64_t Size);

  //===--------------------------------------------------------------------===//
  // Concurrency (multi-lane VM sessions)
  //===--------------------------------------------------------------------===//

  /// Multi-lane mode: byte accesses go through relaxed host atomics so
  /// that racing simulated accesses from concurrent lanes have defined
  /// host behavior (a race stays the simulated program's bug, but never
  /// becomes host UB or a TSan report against the VM). The heap
  /// allocator always serializes behind a mutex regardless of this flag.
  /// Single-lane runs leave this off and keep the plain memcpy path.
  void setConcurrent(bool On) { Concurrent = On; }
  bool concurrent() const { return Concurrent; }

private:
  /// One segment's backing store: an anonymous private mapping, unmapped
  /// on destruction. A zero-size segment maps nothing.
  class Segment {
  public:
    explicit Segment(uint64_t Size);
    ~Segment();
    Segment(const Segment &) = delete;
    Segment &operator=(const Segment &) = delete;

    uint8_t *data() const { return Base; }
    uint64_t size() const { return Size; }

  private:
    uint8_t *Base = nullptr;
    uint64_t Size = 0;
  };

  const uint8_t *resolve(uint64_t Addr, uint64_t N) const;
  /// The host bytes at \p Addr and the mapped bytes from there to the
  /// end of its segment (\p Avail), or null when \p Addr is unmapped.
  const uint8_t *span(uint64_t Addr, uint64_t &Avail) const;
  uint8_t *resolve(uint64_t Addr, uint64_t N) {
    return const_cast<uint8_t *>(
        static_cast<const SimMemory *>(this)->resolve(Addr, N));
  }

  Segment Globals;
  Segment Heap;
  Segment Stack;
  uint64_t GlobalUsed = 0;
  uint64_t StackTopAddr;

  // Heap allocator state.
  std::map<uint64_t, uint64_t> Allocs;   ///< start -> size (live blocks).
  std::map<uint64_t, uint64_t> FreeList; ///< start -> size (freed blocks).
  uint64_t HeapBump = simlayout::HeapBase;
  uint64_t HeapLive = 0;
  uint64_t HeapHigh = 0;

  bool Concurrent = false;
  mutable std::mutex HeapMu; ///< Guards the allocator maps and counters.
};

} // namespace softbound

#endif // SOFTBOUND_VM_SIMMEMORY_H
