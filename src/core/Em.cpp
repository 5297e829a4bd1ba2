//===- core/Em.cpp - Entanglement management barriers ---------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Em.h"

#include "chaos/ChaosSchedule.h"
#include "obs/Profile.h"
#include "obs/Span.h"
#include "obs/Trace.h"
#include "support/Assert.h"
#include "support/Stats.h"

#include <algorithm>
#include <cstdio>
#include <mutex>

using namespace mpl;

namespace mpl {
namespace em {

std::atomic<Mode> CurrentMode{Mode::Manage};

namespace {
Stat StatDetectRejections("em.detect.rejections");

const char *objKindName(ObjKind K) {
  switch (K) {
  case ObjKind::Record:
    return "record";
  case ObjKind::Array:
    return "array";
  case ObjKind::RawArray:
    return "raw_array";
  case ObjKind::Ref:
    return "ref";
  }
  return "?";
}

std::string describeEntanglement(EntanglementError::Site S,
                                 uint32_t ReaderDepth, uint32_t PointeeDepth,
                                 ObjKind Kind) {
  char Buf[192];
  if (S == EntanglementError::Site::Write)
    std::snprintf(Buf, sizeof(Buf),
                  "entanglement created by write (Detect mode): cross-pointer "
                  "to a %s at depth %u from holder at depth %u",
                  objKindName(Kind), PointeeDepth, ReaderDepth);
  else
    std::snprintf(Buf, sizeof(Buf),
                  "entanglement detected (Detect mode models MPL before this "
                  "paper, which rejects entangled executions): read of a %s "
                  "at depth %u by reader at depth %u",
                  objKindName(Kind), PointeeDepth, ReaderDepth);
  return Buf;
}
} // namespace

EntanglementError::EntanglementError(Site S, uint32_t ReaderDepth,
                                     uint32_t PointeeDepth, ObjKind K)
    : std::runtime_error(
          describeEntanglement(S, ReaderDepth, PointeeDepth, K)),
      Where(S), Reader(ReaderDepth), Pointee(PointeeDepth), Kind(K) {}

void setMode(Mode M) { CurrentMode.store(M, std::memory_order_relaxed); }

void writeBarrierSlow(Object *X, Heap *HX, Object *P) {
  obs::emit(obs::Ev::WriteBarrierSlow);
  // Schedule fuzzing: stretch the window between the depth comparison and
  // the pin, where a concurrent join could re-home P's chunk.
  chaos::preemptPoint(chaos::Point::WriteBarrier);
  Heap *HP = Heap::of(P);
  uint32_t PinDepth = UINT32_MAX;
  obs::ProfileSite *PinSite = nullptr;

  if (HX != HP) {
    if (Heap::isAncestorOf(HX, HP)) {
      // Down-pointer: X is shallower, so tasks concurrent with P's
      // allocator may read P through X.
      PinDepth = HX->depth();
      Counts.DownPointerPins.inc();
      PinSite = &MPL_SITE("em.pin.down");
    } else if (!Heap::isAncestorOf(HP, HX)) {
      // Cross-pointer between concurrent heaps: X itself was obtained via
      // entanglement; P becomes reachable from that entangled region.
      PinDepth = Heap::lcaDepth(HX, HP);
      Counts.CrossPointerPins.inc();
      PinSite = &MPL_SITE("em.pin.cross");
    }
    // Up-pointer (HP ancestor of HX): always disentangled, nothing to do —
    // unless X is pinned, handled below.
  }

  if (X->isPinned()) {
    // X is already visible to concurrent tasks; anything stored into it is
    // published to them and must survive, in place, at least as long as X.
    // Attribute the pin to the holder class when the holder's depth is the
    // binding constraint (or when no pointer class fired at all).
    if (X->unpinDepth() < PinDepth)
      PinSite = &MPL_SITE("em.pin.holder");
    PinDepth = std::min(PinDepth, X->unpinDepth());
    Counts.PinnedHolderPins.inc();
  }

  if (PinDepth == UINT32_MAX)
    return;
  if (mode() == Mode::Detect && PinDepth < HP->depth() &&
      !Heap::isAncestorOf(HX, HP)) {
    // Pre-paper MPL permits down-pointers (they are the remembered-set
    // case) but has no mechanism for cross-pointers. Recoverable: the
    // strand unwinds and Runtime::run rethrows.
    StatDetectRejections.inc();
    throw EntanglementError(EntanglementError::Site::Write, HX->depth(),
                            HP->depth(), P->kind());
  }
  if (chaos::faultFires(chaos::Fault::SkipPin))
    return; // Test-only injected bug: publish without pinning.
  // Already pinned at PinDepth or shallower: pinMin would change nothing,
  // so skip the pin lock (re-publishing a shared object is common). Sound
  // without HP->PinLock: pin depths only fall while P stays pinned, so the
  // one racing change is a join unpinning P. That join merges to a depth
  // D <= u (P's unpin depth) <= PinDepth, so it would also release the pin
  // this barrier would have taken; the skip equals the locked path run
  // just before that join, an order the lock allows anyway.
  // readBarrierSlow makes the same check.
  if (P->pinnedAtMost(PinDepth))
    return;
  if (HP->addPinned(P, PinDepth, PinSite))
    obs::spanNotePin();
}

void readBarrierSlow(Heap *Reader, Object *P, Heap *HP) {
  obs::emit(obs::Ev::ReadBarrierSlow);
  // Schedule fuzzing: hold the reader between detection and the deepen so
  // joins/collections can race the pin adjustment.
  chaos::preemptPoint(chaos::Point::ReadBarrier);
  Counts.EntangledReads.inc();
  if (mode() == Mode::Detect) {
    // Recoverable rejection (see EntanglementError): the read barrier has
    // taken no locks yet, so the strand can unwind cleanly.
    StatDetectRejections.inc();
    throw EntanglementError(EntanglementError::Site::Read, Reader->depth(),
                            HP->depth(), P->kind());
  }
  // Manage mode: the object is already pinned (pin-before-publish: the
  // write that made it visible pinned it). Deepen the pin to the LCA of
  // the reader and the object's heap in case the reader escapes higher
  // than the writer anticipated.
  if (!P->isPinned())
    // Pin-before-publish violated: a write barrier lost this object's pin.
    // Count it (the fuzz suite asserts zero) and fall through to the
    // defensive re-pin below so the mutator can still make progress.
    Counts.EntangledReadsUnpinned.inc();
  obs::profileEvent(MPL_SITE("em.read.entangled"),
                    static_cast<int64_t>(P->sizeBytes()), HP->depth());
  // Span ledger: count the entangled read against the executing task and
  // the pml source line whose instruction triggered the barrier.
  obs::spanNoteEmRead();
  uint32_t Lca = Heap::lcaDepth(Reader, HP);
  if (P->pinnedAtMost(Lca))
    return;
  if (HP->addPinned(P, Lca, &MPL_SITE("em.pin.read")))
    obs::spanNotePin();
}

bool pinContCapture(Object *P, Heap *CaptureHeap) {
  if (mode() != Mode::Manage)
    return false;
  uint32_t Depth = CaptureHeap->depth();
  if (Depth == 0)
    return false; // A depth-0 pin would outlive every join; GC keeps the
                  // root heap's objects alive through the rooted cont anyway.
  if (Heap::of(P) != CaptureHeap)
    return false; // Ancestor-heap objects: ordinary barriers cover them.
  // False when already pinned (entanglement or an earlier capture).
  return CaptureHeap->addPinned(P, Depth, &MPL_SITE("em.cont.capture"));
}

bool unpinContResume(Object *P, uint32_t CaptureDepth) {
  if (mode() != Mode::Manage)
    return false;
  Heap *HP = Heap::of(P);
  std::lock_guard<std::mutex> G(HP->PinLock);
  if (!P->isPinned() || P->unpinDepth() != CaptureDepth)
    return false; // Released by a join already, or deepened by a barrier —
                  // entanglement owns the pin now; the join rule releases it.
  // Mirror the join rule's release bookkeeping (hh/Heap.cpp), plus the
  // per-heap gauge decrements a join does wholesale.
  int64_t Size = static_cast<int64_t>(P->sizeBytes());
  Counts.UnpinnedObjects.inc();
  Counts.UnpinnedBytes.add(Size);
  obs::emit(obs::Ev::Unpin, P->sizeBytes());
  obs::profileUnpin(P, Size, CaptureDepth);
  HP->PinnedObjsGauge.fetch_sub(1, std::memory_order_relaxed);
  HP->PinnedBytesGauge.fetch_sub(Size, std::memory_order_relaxed);
  P->unpin();
  // The stale Pinned-vector entry is tolerated: joins and the invariant
  // checker both skip entries whose object is no longer pinned.
  return true;
}

void noteContCaptured(int64_t Bytes, uint32_t Depth) {
  Counts.ContCaptured.inc();
  obs::emit(obs::Ev::ContCapture, static_cast<uint64_t>(Bytes), Depth);
}

void noteContResumed(int64_t Bytes, uint32_t Depth) {
  Counts.ContResumed.inc();
  obs::emit(obs::Ev::ContResume, static_cast<uint64_t>(Bytes), Depth);
}

} // namespace em
} // namespace mpl
