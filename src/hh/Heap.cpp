//===- hh/Heap.cpp - Hierarchical heaps -----------------------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "hh/Heap.h"

#include "chaos/ChaosSchedule.h"
#include "obs/Profile.h"
#include "obs/Trace.h"
#include "support/Assert.h"
#include "support/EmCounters.h"
#include "support/Stats.h"

using namespace mpl;

namespace {
Stat HeapsCreated("hh.heaps.created");
Stat JoinsPerformed("hh.joins");
} // namespace

void Heap::pushChunk(Chunk *C) {
  C->Owner.store(this, std::memory_order_release);
  C->Next = Chunks;
  Chunks = C;
  Current = C;
  ChunkBytesGauge.fetch_add(static_cast<int64_t>(C->TotalBytes),
                            std::memory_order_relaxed);
}

void *Heap::allocate(size_t Bytes) {
  Bytes = (Bytes + 7) & ~static_cast<size_t>(7);
  BytesAllocated += static_cast<int64_t>(Bytes);
  if (Current)
    if (void *P = Current->tryAllocate(Bytes))
      return P;
  // Slow path: oversized objects get a dedicated chunk; otherwise start a
  // fresh bump chunk.
  if (Bytes > Chunk::SizeBytes / 2) {
    Chunk *C = ChunkPool::get().acquireLarge(Bytes);
    // Keep the allocation chunk: insert the large chunk *behind* it so
    // subsequent small allocations still hit the bump chunk.
    C->Owner.store(this, std::memory_order_release);
    if (Current) {
      C->Next = Current->Next;
      Current->Next = C;
    } else {
      C->Next = Chunks;
      Chunks = C;
    }
    ChunkBytesGauge.fetch_add(static_cast<int64_t>(C->TotalBytes),
                              std::memory_order_relaxed);
    void *P = C->tryAllocate(Bytes);
    MPL_CHECK(P, "large chunk cannot fit its object");
    return P;
  }
  pushChunk(ChunkPool::get().acquire());
  void *P = Current->tryAllocate(Bytes);
  MPL_CHECK(P, "fresh chunk cannot fit a small object");
  return P;
}

Object *Heap::allocateObject(ObjKind K, bool Mutable, uint32_t Length,
                             uint16_t PtrMap) {
  MPL_DASSERT(K != ObjKind::Record || Length <= Object::MaxRecordFields,
              "record has too many fields for the pointer bitmap");
  void *Mem = allocate(Object::sizeBytesFor(Length));
  Object *O = new (Mem) Object();
  O->initHeader(Object::makeHeader(K, Mutable, Length, PtrMap));
  return O;
}

bool Heap::isAncestorOf(const Heap *A, const Heap *B) {
  MPL_DASSERT(A && B, "ancestor query on null heap");
  while (B && B->Depth > A->Depth)
    B = B->Parent;
  return B == A;
}

// offsetof on a non-standard-layout type is conditionally supported; GCC and
// Clang both define it for this shape (no virtual bases, ordinary members).
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
#endif
size_t Heap::parentOffset() {
  // Parent and Depth share a cache line with no field written after
  // construction (see the declaration).
  constexpr size_t Line = offsetof(Heap, Parent) / 64;
  static_assert(alignof(Heap) == 64 && offsetof(Heap, Depth) / 64 == Line);
#define MPL_OFF_PARENT_LINE(F)                                                 \
  static_assert(offsetof(Heap, F) / 64 != Line &&                              \
                    (offsetof(Heap, F) + sizeof(F) - 1) / 64 != Line,          \
                #F " shares a cache line with Heap::Parent");
  MPL_OFF_PARENT_LINE(PinLock)
  MPL_OFF_PARENT_LINE(Pinned)
  MPL_OFF_PARENT_LINE(Chunks)
  MPL_OFF_PARENT_LINE(Current)
  MPL_OFF_PARENT_LINE(BytesAllocated)
  MPL_OFF_PARENT_LINE(InCollection)
  MPL_OFF_PARENT_LINE(ChunkBytesGauge)
  MPL_OFF_PARENT_LINE(PinnedObjsGauge)
  MPL_OFF_PARENT_LINE(PinnedBytesGauge)
  MPL_OFF_PARENT_LINE(Dead)
  MPL_OFF_PARENT_LINE(ActiveForks)
#undef MPL_OFF_PARENT_LINE
  return offsetof(Heap, Parent);
}
size_t Heap::depthOffset() { return offsetof(Heap, Depth); }
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif

uint32_t Heap::lcaDepth(const Heap *A, const Heap *B) {
  while (A->Depth > B->Depth)
    A = A->Parent;
  while (B->Depth > A->Depth)
    B = B->Parent;
  while (A != B) {
    MPL_DASSERT(A->Parent && B->Parent, "heaps in different hierarchies");
    A = A->Parent;
    B = B->Parent;
  }
  return A->Depth;
}

bool Heap::addPinned(Object *O, uint32_t UnpinDepth, obs::ProfileSite *Site) {
  std::lock_guard<std::mutex> G(PinLock);
  if (!O->pinMin(UnpinDepth))
    return false;
  Pinned.push_back(O);
  int64_t Size = static_cast<int64_t>(O->sizeBytes());
  PinnedObjsGauge.fetch_add(1, std::memory_order_relaxed);
  PinnedBytesGauge.fetch_add(Size, std::memory_order_relaxed);
  em::Counts.PinnedObjects.inc();
  em::Counts.PinnedBytes.add(Size);
  obs::emit(obs::Ev::Pin, O->sizeBytes(), UnpinDepth);
  obs::profilePin(Site, O, Size, UnpinDepth);
  return true;
}

size_t Heap::footprintBytes() const {
  size_t Total = 0;
  for (const Chunk *C = Chunks; C; C = C->Next)
    Total += C->TotalBytes;
  return Total;
}

void Heap::releaseAllChunks() {
  Chunk *C = Chunks;
  while (C) {
    Chunk *Next = C->Next;
    if (C->Large)
      ChunkPool::get().releaseLarge(C);
    else
      ChunkPool::get().release(C);
    C = Next;
  }
  Chunks = nullptr;
  Current = nullptr;
  ChunkBytesGauge.store(0, std::memory_order_relaxed);
}

HeapManager::~HeapManager() {
  for (Heap *H : AllHeaps) {
    if (!H->isDead())
      H->releaseAllChunks();
    delete H;
  }
}

Heap *HeapManager::createRoot() {
  Heap *H = new Heap(nullptr, 0);
  HeapsCreated.inc();
  std::lock_guard<std::mutex> G(Lock);
  AllHeaps.push_back(H);
  return H;
}

Heap *HeapManager::forkChild(Heap *Parent) {
  MPL_CHECK(Parent->Depth + 1 < 255, "task tree too deep for unpin depths");
  Heap *H = new Heap(Parent, Parent->Depth + 1);
  HeapsCreated.inc();
  std::lock_guard<std::mutex> G(Lock);
  AllHeaps.push_back(H);
  return H;
}

int64_t HeapManager::join(Heap *Parent, Heap *Child) {
  MPL_CHECK(Child->Parent == Parent, "join of a non-child heap");
  MPL_CHECK(Child->activeForks() == 0, "joining a heap with live forks");
  JoinsPerformed.inc();
  obs::emit(obs::Ev::HeapJoinBegin, Child->Depth);

  // Schedule fuzzing: stretch the window between a join being decided and
  // the pin locks being taken — barriers may still be resolving Heap::of
  // against the child.
  chaos::preemptPoint(chaos::Point::JoinMerge);

  // Lock order: shallower heap first (matches the local collector).
  std::scoped_lock G(Parent->PinLock, Child->PinLock);

  // Re-home every chunk, then splice the list into the parent. The parent
  // keeps its own allocation chunk; the child's partially-used chunks
  // become retired parent chunks.
  int64_t Unpinned = 0;
  // Completely unused chunks go straight back to the pool; the rest are
  // re-homed and spliced into the parent.
  Chunk *Keep = nullptr;
  Chunk *C = Child->Chunks;
  while (C) {
    Chunk *Next = C->Next;
    if (C->usedBytes() == 0 && !C->Large) {
      ChunkPool::get().release(C);
    } else {
      C->Owner.store(Parent, std::memory_order_release);
      C->Next = Keep;
      Keep = C;
      Parent->ChunkBytesGauge.fetch_add(static_cast<int64_t>(C->TotalBytes),
                                        std::memory_order_relaxed);
    }
    C = Next;
  }
  if (Keep) {
    Chunk *Last = Keep;
    while (Last->Next)
      Last = Last->Next;
    Last->Next = Parent->Chunks;
    Parent->Chunks = Keep;
    if (!Parent->Current)
      Parent->Current = Keep;
  }
  Child->Chunks = nullptr;
  Child->Current = nullptr;
  Child->ChunkBytesGauge.store(0, std::memory_order_relaxed);
  Parent->BytesAllocated += Child->BytesAllocated;

  // The paper's join rule: entanglement with unpin depth >= the merged
  // depth is dead once the object lives at that depth; unpin those objects
  // so ordinary local collection can move (and eventually reclaim) them.
  int64_t UnpinnedBytes = 0;
  bool HadPins = !Child->Pinned.empty();
  for (Object *O : Child->Pinned) {
    if (!O->isPinned())
      continue; // Already unpinned by an earlier join (duplicate entry).
    int64_t Size = static_cast<int64_t>(O->sizeBytes());
    if (O->unpinDepth() >= Parent->Depth &&
        !chaos::faultFires(chaos::Fault::SkipUnpin)) {
      obs::emit(obs::Ev::Unpin, O->sizeBytes());
      obs::profileUnpin(O, Size, Child->Depth);
      O->unpin();
      ++Unpinned;
      UnpinnedBytes += Size;
    } else {
      // Entanglement still (possibly) live at the parent's depth — or a
      // test-only SkipUnpin fault leaking the release on purpose.
      Parent->Pinned.push_back(O);
      Parent->PinnedObjsGauge.fetch_add(1, std::memory_order_relaxed);
      Parent->PinnedBytesGauge.fetch_add(Size, std::memory_order_relaxed);
    }
  }
  Child->Pinned.clear();
  Child->PinnedObjsGauge.store(0, std::memory_order_relaxed);
  Child->PinnedBytesGauge.store(0, std::memory_order_relaxed);
  if (Unpinned != 0) {
    em::Counts.UnpinnedObjects.add(Unpinned);
    em::Counts.UnpinnedBytes.add(UnpinnedBytes);
  }
  // Attribute the join's entanglement-release work — only joins that had
  // pinned entries to process, so disentangled runs keep an empty profile.
  if (HadPins)
    obs::profileEvent(MPL_SITE("hh.join.unpin"), UnpinnedBytes, Child->Depth);

  Child->Dead.store(true, std::memory_order_release);
  obs::emit(obs::Ev::HeapJoinEnd, static_cast<uint64_t>(Unpinned));
  return Unpinned;
}

size_t HeapManager::heapCount() const {
  std::lock_guard<std::mutex> G(Lock);
  return AllHeaps.size();
}

std::vector<Heap *> HeapManager::snapshotHeaps() const {
  std::lock_guard<std::mutex> G(Lock);
  return AllHeaps;
}
