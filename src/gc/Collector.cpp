//===- gc/Collector.cpp - Local copying collection ------------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "gc/Collector.h"

#include "chaos/ChaosSchedule.h"
#include "mm/MemoryGovernor.h"
#include "obs/Profile.h"
#include "obs/Trace.h"
#include "support/Histogram.h"
#include "support/Stats.h"
#include "support/Timer.h"

using namespace mpl;

namespace {
Stat NumCollections("gc.collections");
Stat TotalBytesCopied("gc.bytes.copied");
Stat TotalBytesInPlace("gc.bytes.inplace");
Stat TotalBytesReclaimed("gc.bytes.reclaimed");
Stat TotalPauseNs("gc.pause.ns");
Stat MaxPauseNs("gc.pause.max.ns");
Histogram GcPauseHist("gc.pause.hist.ns");
} // namespace

/// Per-collection working state.
struct Collector::ChainState {
  std::vector<Heap *> Chain;          ///< Leaf-to-top, all InCollection.
  std::vector<Chunk *> OldChunks;     ///< From-space chunks, all heaps.
  std::vector<Object *> InPlace;      ///< Marked in-place survivors.
  std::vector<Object *> ScanQueue;    ///< Copied-but-unscanned objects.
  GcOutcome Out;
};

static bool inChain(const Object *O) {
  Heap *H = Heap::of(O);
  return H && H->InCollection;
}

/// Phase A: mark the pinned closures of every chain heap in place.
/// Anything reachable from a pinned object must not move (a concurrent
/// task may traverse it barrier-free through immutable fields).
void Collector::markInPlaceClosure(ChainState &CS) {
  std::vector<Object *> Work;
  for (Heap *H : CS.Chain)
    for (Object *P : H->Pinned) {
      MPL_DASSERT(P->isPinned(), "stale entry in pinned set");
      if (P->isMarked())
        continue;
      P->setMark();
      CS.InPlace.push_back(P);
      Work.push_back(P);
    }

  while (!Work.empty()) {
    Object *O = Work.back();
    Work.pop_back();
    if (O->kind() == ObjKind::RawArray)
      continue;
    uint32_t Len = O->length();
    for (uint32_t I = 0; I < Len; ++I) {
      if (!O->slotHoldsPointer(I))
        continue;
      Object *Q = Object::asPointer(O->getSlot(I));
      if (!Q || !inChain(Q) || Q->isMarked())
        continue;
      Q->setMark();
      CS.InPlace.push_back(Q);
      Work.push_back(Q);
    }
  }

  for (Object *O : CS.InPlace) {
    Chunk::chunkOf(O)->PinnedCount++;
    CS.Out.BytesInPlace += static_cast<int64_t>(O->sizeBytes());
    CS.Out.ObjectsInPlace++;
  }
}

Object *Collector::copyObject(ChainState &CS, Object *O) {
  Heap *H = Heap::of(O);
  size_t Bytes = O->sizeBytes();
  void *Mem = H->allocate(Bytes);
  __builtin_memcpy(Mem, static_cast<const void *>(O), Bytes);
  Object *New = reinterpret_cast<Object *>(Mem);
  O->forwardTo(New);
  CS.Out.BytesCopied += static_cast<int64_t>(Bytes);
  CS.Out.ObjectsCopied++;
  CS.ScanQueue.push_back(New);
  return New;
}

/// Resolves one slot value: forwards moved objects, copies unvisited chain
/// objects, and leaves pinned / in-place / out-of-chain objects alone.
Slot Collector::traceSlot(ChainState &CS, Slot V) {
  Object *O = Object::asPointer(V);
  if (!O)
    return V;
  if (O->isForwarded())
    return Object::fromPointer(O->forwardee());
  if (!inChain(O))
    return V;
  if (O->isMarked() || O->isPinned())
    return V; // In-place survivor: address is stable by construction.
  return Object::fromPointer(copyObject(CS, O));
}

GcOutcome Collector::collectChain(Heap *Leaf, ShadowStack &Roots) {
  Timer Pause;
  ChainState CS;

  // A copying collection cannot unwind mid-evacuation (chain pin locks are
  // held, from-space is detached), so to-space acquisitions must bypass
  // the governor's hard limit and never recurse into emergency GC.
  MemoryGovernor::ScopedGcExempt Exempt;

  // Schedule fuzzing: stretch the window between the collection being
  // decided and the chain locks being taken — remote pins may land here.
  chaos::preemptPoint(chaos::Point::GcStart);

  // Discover the private chain: leaf upward while heaps are unshared.
  for (Heap *H = Leaf; H && H->activeForks() == 0; H = H->parent())
    CS.Chain.push_back(H);
  if (CS.Chain.empty())
    return CS.Out;
  obs::emit(obs::Ev::GcBegin, CS.Chain.size());

  // Lock shallowest-first (the global heap-lock order), flip heaps into
  // collection mode, and detach from-space.
  for (auto It = CS.Chain.rbegin(); It != CS.Chain.rend(); ++It)
    (*It)->PinLock.lock();
  for (Heap *H : CS.Chain) {
    H->InCollection = true;
    for (Chunk *C = H->Chunks; C; C = C->Next) {
      C->PinnedCount = 0;
      CS.OldChunks.push_back(C);
    }
    H->Chunks = nullptr;
    H->Current = nullptr;
    H->ChunkBytesGauge.store(0, std::memory_order_relaxed);
  }

  // Phase A: pinned closures stay in place.
  obs::emit(obs::Ev::GcMarkBegin);
  int64_t MarkStartNs = Pause.elapsedNs();
  markInPlaceClosure(CS);
  int64_t MarkEndNs = Pause.elapsedNs();
  obs::emit(obs::Ev::GcMarkEnd, static_cast<uint64_t>(CS.Out.ObjectsInPlace));

  // Phase B: evacuate everything reachable from the mutator roots. Slots
  // whose target did not move (out-of-chain, marked, or pinned objects)
  // must not be stored back: unchanged slots are exactly the ones a
  // concurrent task may be reading (shared ancestor roots, pinned
  // survivors), and a same-value blind store is still a data race.
  obs::emit(obs::Ev::GcEvacBegin);
  Roots.forEachRoot([&](Slot *S) {
    Slot V = *S;
    Slot NV = traceSlot(CS, V);
    if (NV != V)
      *S = NV;
  });
  while (!CS.ScanQueue.empty()) {
    Object *O = CS.ScanQueue.back();
    CS.ScanQueue.pop_back();
    if (O->kind() == ObjKind::RawArray)
      continue;
    uint32_t Len = O->length();
    for (uint32_t I = 0; I < Len; ++I)
      if (O->slotHoldsPointer(I)) {
        Slot V = O->getSlot(I);
        Slot NV = traceSlot(CS, V);
        if (NV != V)
          O->setSlot(I, NV);
      }
  }
  int64_t EvacEndNs = Pause.elapsedNs();
  obs::emit(obs::Ev::GcEvacEnd, static_cast<uint64_t>(CS.Out.BytesCopied));

  // Phase C: reclaim from-space chunks with no in-place survivors; retire
  // the rest (they stay resident — the space cost of entanglement).
  obs::emit(obs::Ev::GcReclaimBegin);
  for (Chunk *C : CS.OldChunks) {
    if (C->PinnedCount == 0) {
      CS.Out.BytesReclaimed += static_cast<int64_t>(C->TotalBytes);
      if (C->Large)
        ChunkPool::get().releaseLarge(C);
      else
        ChunkPool::get().release(C);
      continue;
    }
    // Retired chunk: keep it on its heap, closed for allocation.
    Heap *H = C->Owner.load(std::memory_order_relaxed);
    C->Frontier = C->Limit;
    C->Next = H->Chunks;
    H->Chunks = C;
    H->ChunkBytesGauge.fetch_add(static_cast<int64_t>(C->TotalBytes),
                                 std::memory_order_relaxed);
  }
  obs::emit(obs::Ev::GcReclaimEnd, static_cast<uint64_t>(CS.Out.BytesReclaimed));

  // Clear transient marks; pinned bits persist until their unpin join.
  for (Object *O : CS.InPlace)
    O->clearMark();

  for (Heap *H : CS.Chain) {
    H->BytesAllocated = 0;
    H->InCollection = false;
  }
  for (Heap *H : CS.Chain)
    H->PinLock.unlock();

  CS.Out.HeapsCollected = static_cast<int64_t>(CS.Chain.size());
  CS.Out.PauseNs = Pause.elapsedNs();
  obs::emit(obs::Ev::GcEnd, static_cast<uint64_t>(CS.Out.BytesCopied),
            static_cast<uint64_t>(CS.Out.BytesReclaimed));
  GcPauseHist.record(CS.Out.PauseNs);
  // Site-attribute only collections that paid an entanglement cost (some
  // pinned closure survived in place): a disentangled run's collections
  // keep the profile empty, so the profile isolates exactly the GC work
  // entanglement induced (in-place marking, evacuation around pinned
  // survivors, retired-chunk accounting).
  if (CS.Out.ObjectsInPlace > 0 && obs::profileEnabled()) {
    uint32_t D = Leaf->depth();
    obs::profileEvent(MPL_SITE("gc.mark.inplace"), CS.Out.BytesInPlace, D,
                      MarkEndNs - MarkStartNs);
    obs::profileEvent(MPL_SITE("gc.evac"), CS.Out.BytesCopied, D,
                      EvacEndNs - MarkEndNs);
    obs::profileEvent(MPL_SITE("gc.reclaim"), CS.Out.BytesReclaimed, D,
                      CS.Out.PauseNs - EvacEndNs);
  }
  NumCollections.inc();
  TotalBytesCopied.add(CS.Out.BytesCopied);
  TotalBytesInPlace.add(CS.Out.BytesInPlace);
  TotalBytesReclaimed.add(CS.Out.BytesReclaimed);
  TotalPauseNs.add(CS.Out.PauseNs);
  MaxPauseNs.noteMax(CS.Out.PauseNs);
  return CS.Out;
}
