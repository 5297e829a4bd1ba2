//===- mm/Object.h - Heap object model -------------------------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every heap object is a one-word header followed by 64-bit slots:
///
///   bit  0      : forwarded   (header is `newAddr | 1` when set)
///   bits 1-2    : kind        (Record / Array / RawArray / Ref)
///   bit  3      : mutable     (reads through it are entanglement-checked)
///   bit  4      : pinned      (local GC must not move the object)
///   bit  5      : in-place GC mark (transient within one collection)
///   bits 8-15   : unpin depth (valid while pinned; see em/)
///   bits 16-47  : length in slots
///   bits 48-63  : pointer bitmap for Record (slot I is a pointer iff bit I)
///
/// Pinning and the unpin depth are the paper's central mechanism: a pinned
/// object is an *entanglement candidate* that concurrent tasks may hold; it
/// must stay in place until the task tree joins back to its unpin depth,
/// at which point the entanglement is provably dead.
///
/// Slot values: pointers are 8-byte-aligned Object addresses; anything with
/// a low bit set (or null) is a non-pointer immediate. This allows the GC
/// to scan uniformly-tagged slots (used by the PML virtual machine) as well
/// as bitmap-described record fields.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_MM_OBJECT_H
#define MPL_MM_OBJECT_H

#include "support/Assert.h"

#include <atomic>
#include <cstdint>

namespace mpl {

using Slot = uint64_t;

enum class ObjKind : uint8_t {
  Record = 0,   ///< Fixed shape; pointer bitmap in the header.
  Array = 1,    ///< All slots are (tag-checked) pointers or immediates.
  RawArray = 2, ///< No pointers; payload is opaque bytes.
  Ref = 3,      ///< A single mutable cell.
};

/// A heap object. Instances live only inside chunks; this class is a view
/// over the header word plus the trailing payload slots.
class Object {
public:
  static constexpr uint64_t FwdBit = 1ull << 0;
  static constexpr uint64_t KindShift = 1;
  static constexpr uint64_t KindMask = 0x3ull << KindShift;
  static constexpr uint64_t MutableBit = 1ull << 3;
  static constexpr uint64_t PinnedBit = 1ull << 4;
  static constexpr uint64_t MarkBit = 1ull << 5;
  static constexpr uint64_t UnpinShift = 8;
  static constexpr uint64_t UnpinMask = 0xffull << UnpinShift;
  static constexpr uint64_t LenShift = 16;
  static constexpr uint64_t LenMask = 0xffffffffull << LenShift;
  static constexpr uint64_t MapShift = 48;

  static constexpr uint32_t MaxLength = 0xffffffffu;
  static constexpr uint32_t MaxRecordFields = 16;

  static uint64_t makeHeader(ObjKind K, bool Mutable, uint32_t Length,
                             uint16_t PtrMap) {
    return (static_cast<uint64_t>(K) << KindShift) |
           (Mutable ? MutableBit : 0) |
           (static_cast<uint64_t>(Length) << LenShift) |
           (static_cast<uint64_t>(PtrMap) << MapShift);
  }

  /// Initializes the header of a freshly allocated (unpublished) object.
  void initHeader(uint64_t H) { Header.store(H, std::memory_order_relaxed); }

  uint64_t header() const { return Header.load(std::memory_order_acquire); }

  bool isForwarded() const { return header() & FwdBit; }

  Object *forwardee() const {
    uint64_t H = header();
    MPL_DASSERT(H & FwdBit, "forwardee of non-forwarded object");
    return reinterpret_cast<Object *>(H & ~FwdBit);
  }

  /// Installs a forwarding pointer to \p To (GC-internal; the owning
  /// collector holds the heap locks, so a plain store suffices).
  void forwardTo(Object *To) {
    Header.store(reinterpret_cast<uint64_t>(To) | FwdBit,
                 std::memory_order_release);
  }

  ObjKind kind() const {
    return static_cast<ObjKind>((header() & KindMask) >> KindShift);
  }
  bool isMutable() const { return header() & MutableBit; }
  bool isPinned() const { return header() & PinnedBit; }
  bool isMarked() const { return header() & MarkBit; }
  uint32_t length() const {
    return static_cast<uint32_t>((header() & LenMask) >> LenShift);
  }
  uint16_t ptrMap() const { return static_cast<uint16_t>(header() >> MapShift); }
  uint32_t unpinDepth() const {
    return static_cast<uint32_t>((header() & UnpinMask) >> UnpinShift);
  }

  /// True when the object is pinned at an unpin depth of at most \p Depth,
  /// read from one header load: pinMin(Depth) would change nothing. The
  /// barriers use it as a lock-free pre-check (see em::writeBarrierSlow).
  bool pinnedAtMost(uint32_t Depth) const {
    uint64_t H = header();
    return (H & PinnedBit) &&
           static_cast<uint32_t>((H & UnpinMask) >> UnpinShift) <= Depth;
  }

  /// Pins at depth \p Depth, or deepens an existing pin to the *minimum*
  /// depth (an object stays pinned as long as any entanglement that can
  /// reach it is alive). Returns true when the object was newly pinned.
  /// Callers must hold the owning heap's pin lock (see Heap::PinLock).
  bool pinMin(uint32_t Depth) {
    uint64_t H = header();
    MPL_DASSERT(!(H & FwdBit), "pinning a forwarded object");
    if (H & PinnedBit) {
      uint32_t Old = static_cast<uint32_t>((H & UnpinMask) >> UnpinShift);
      if (Depth < Old)
        Header.store((H & ~UnpinMask) |
                         (static_cast<uint64_t>(Depth) << UnpinShift),
                     std::memory_order_release);
      return false;
    }
    Header.store((H & ~UnpinMask) | PinnedBit |
                     (static_cast<uint64_t>(Depth) << UnpinShift),
                 std::memory_order_release);
    return true;
  }

  /// Clears the pin (used when a join reaches the unpin depth).
  void unpin() {
    uint64_t H = header();
    Header.store(H & ~(PinnedBit | UnpinMask), std::memory_order_release);
  }

  void setMark() {
    Header.store(header() | MarkBit, std::memory_order_relaxed);
  }
  void clearMark() {
    Header.store(header() & ~MarkBit, std::memory_order_relaxed);
  }

  /// Payload access. Slot I of the object.
  Slot *slots() { return reinterpret_cast<Slot *>(this + 1); }
  const Slot *slots() const { return reinterpret_cast<const Slot *>(this + 1); }

  Slot getSlot(uint32_t I) const {
    MPL_DASSERT(I < length(), "slot index out of range");
    return slots()[I];
  }
  void setSlot(uint32_t I, Slot V) {
    MPL_DASSERT(I < length(), "slot index out of range");
    slots()[I] = V;
  }

  /// Atomic slot access for mutable cells shared across tasks.
  Slot loadSlotAcquire(uint32_t I) const {
    // atomic_ref<const T> is C++23; the cast is safe for an atomic load.
    return std::atomic_ref<Slot>(const_cast<Slot &>(slots()[I]))
        .load(std::memory_order_acquire);
  }
  void storeSlotRelease(uint32_t I, Slot V) {
    std::atomic_ref<Slot>(slots()[I]).store(V, std::memory_order_release);
  }

  /// Object footprint in bytes (header + payload).
  size_t sizeBytes() const {
    return sizeof(Object) + static_cast<size_t>(length()) * sizeof(Slot);
  }
  static size_t sizeBytesFor(uint32_t Length) {
    return sizeof(Object) + static_cast<size_t>(Length) * sizeof(Slot);
  }

  /// True when slot I holds a traceable pointer given this object's kind.
  /// Immediates (tagged ints, null) are filtered by the pointer test.
  bool slotHoldsPointer(uint32_t I) const {
    switch (kind()) {
    case ObjKind::RawArray:
      return false;
    case ObjKind::Record:
      return (ptrMap() >> I) & 1;
    case ObjKind::Array:
    case ObjKind::Ref:
      return true;
    }
    MPL_UNREACHABLE("covered switch");
  }

  /// Interprets slot value \p V as an object pointer if it looks like one.
  /// Slot values produced by the runtime keep pointers 8-aligned and
  /// non-null; tagged immediates always have a low bit set.
  static Object *asPointer(Slot V) {
    if (V == 0 || (V & 7) != 0)
      return nullptr;
    return reinterpret_cast<Object *>(V);
  }

  static Slot fromPointer(const Object *O) {
    return reinterpret_cast<Slot>(O);
  }

private:
  std::atomic<uint64_t> Header{0};
};

static_assert(sizeof(Object) == 8, "object header must be one word");

} // namespace mpl

#endif // MPL_MM_OBJECT_H
