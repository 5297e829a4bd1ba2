//===- core/Em.h - Entanglement management barriers ------------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's core mechanism: read and write barriers that (1) detect
/// entanglement at the granularity of individual objects, and (2) manage it
/// by *pinning* objects before they can become visible to concurrent tasks
/// ("pin before publish").
///
/// Write barrier (on every mutable pointer store `X.f := P`):
///  - down-pointer (heap(X) strictly shallower ancestor of heap(P)): any
///    task that can see X may later read P, so P is pinned with unpin depth
///    = depth(heap(X));
///  - cross-pointer (heaps concurrent): P is pinned at the LCA depth;
///  - store into an already-pinned X: X itself is visible to concurrent
///    tasks, so P inherits X's exposure and is pinned at X's unpin depth.
/// Pins are *sticky*: even if the field is overwritten, P stays pinned (and
/// therefore retained, in place) until a join reaches its unpin depth —
/// that retention is precisely the paper's space cost of entanglement.
///
/// Read barrier (on every mutable pointer load yielding P): if heap(P) is
/// not an ancestor of the reader's heap, the read is *entangled*. In
/// Detect mode (modeling MPL before this paper, ICFP 2022) this is a fatal
/// error; in Manage mode it is counted and P's unpin depth is lowered to
/// the LCA if needed. Disentangled programs pay exactly one ancestor check
/// per mutable pointer load and never take a lock — the "shielding" the
/// paper claims, measured by bench_fig_ablation.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_CORE_EM_H
#define MPL_CORE_EM_H

#include "hh/Heap.h"
#include "mm/Object.h"
#include "support/EmCounters.h"

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace mpl {
namespace em {

/// Entanglement policy for the whole runtime.
enum class Mode : uint8_t {
  Off,    ///< No barriers. Sound only for disentangled programs (ablation).
  Detect, ///< Detect entanglement and fail (pre-paper MPL behaviour).
  Manage, ///< Full entanglement management (the paper; default).
};

/// Recoverable Detect-mode failure: pre-paper MPL rejects entangled
/// executions, and this runtime models that rejection as a structured
/// error instead of a process abort. Thrown by the barrier slow paths,
/// propagated through the rt::par joins, and rethrown by Runtime::run —
/// so Detect mode is usable as a CI gate for disentanglement.
class EntanglementError : public std::runtime_error {
public:
  /// Which barrier rejected the execution.
  enum class Site : uint8_t {
    Read, ///< Entangled read: pointee's heap not an ancestor of the reader.
    Write ///< Cross-pointer write: no pre-paper mechanism can handle it.
  };

  EntanglementError(Site S, uint32_t ReaderDepth, uint32_t PointeeDepth,
                    ObjKind Kind);

  Site site() const { return Where; }
  /// Depth of the heap doing the access (reader / holder heap).
  uint32_t readerDepth() const { return Reader; }
  /// Depth of the heap owning the entangled object.
  uint32_t pointeeDepth() const { return Pointee; }
  /// Kind of the entangled object.
  ObjKind objectKind() const { return Kind; }

private:
  Site Where;
  uint32_t Reader;
  uint32_t Pointee;
  ObjKind Kind;
};

/// Current mode; relaxed-read on the barrier fast path.
extern std::atomic<Mode> CurrentMode;

inline Mode mode() { return CurrentMode.load(std::memory_order_relaxed); }
void setMode(Mode M);

// Counters / CounterSnapshot (and the global `Counts`) live in
// support/EmCounters.h so the join rule in hh/ can account unpins into the
// same registry Stats the barriers pin into.

/// One invariant-checker run: empty Violations means every cross-checked
/// runtime invariant held.
struct InvariantReport {
  std::vector<std::string> Violations;
  bool ok() const { return Violations.empty(); }
  /// All violations joined into one printable block.
  std::string str() const;
};

/// Cross-checks the runtime's entanglement and heap invariants:
///  - every live pinned object's unpin depth is <= the depth of the heap
///    holding it (a pin survives exactly until its join);
///  - the PinnedBytes/UnpinnedBytes counters balance the live pinned sets
///    byte for byte;
///  - dead (joined) heaps own no chunks and no pinned entries;
///  - ActiveForks values are sane and chunk ownership is consistent;
///  - counters are monotone (pins >= unpins, nothing negative).
///
/// With \p ExpectFullyJoined, additionally requires that no live pin
/// remains anywhere — true exactly when the task tree has joined back to
/// the root (every unpin depth has been reached), e.g. between top-level
/// phases. This is what catches a join that "forgets" to release.
///
/// Takes each heap's PinLock one at a time; call it at quiescent points
/// (between top-level phases, after joins) — not from inside a barrier.
InvariantReport verifyInvariants(HeapManager &HM,
                                 bool ExpectFullyJoined = false);

/// Convenience overload for the current Runtime's heaps (aborts outside a
/// Runtime). Declared here, implemented in Verify.cpp.
InvariantReport verifyInvariants(bool ExpectFullyJoined = false);

/// Slow path of the write barrier; see writeBarrier.
void writeBarrierSlow(Object *X, Heap *HX, Object *P);

/// Must run before storing pointer value \p V into mutable object \p X.
inline void writeBarrier(Object *X, Slot V) {
  if (mode() == Mode::Off)
    return;
  Object *P = Object::asPointer(V);
  if (!P)
    return;
  Heap *HX = Heap::of(X);
  // Fast path: intra-heap store into an unexposed object needs nothing.
  if (HX == Heap::of(P) && !X->isPinned())
    return;
  writeBarrierSlow(X, HX, P);
}

/// Slow path of the read barrier; see readBarrier.
void readBarrierSlow(Heap *Reader, Object *P, Heap *HP);

/// Must run after loading pointer value \p V from a mutable object, with
/// \p Reader the reading task's current heap.
inline void readBarrier(Heap *Reader, Slot V) {
  if (mode() == Mode::Off)
    return;
  Object *P = Object::asPointer(V);
  if (!P)
    return;
  Heap *HP = Heap::of(P);
  if (Heap::isAncestorOf(HP, Reader))
    return; // Disentangled: the common, cheap case.
  readBarrierSlow(Reader, P, HP);
}

//===--------------------------------------------------------------------===//
// First-class continuations (pml effect handlers; DESIGN.md §13).
//
// A suspending strand captures its frame chain into a heap continuation
// object. The handler may drop that continuation, or resume it later —
// possibly from a different worker, inside a par branch forked after the
// capture. Until then the captured objects must survive *in place*: a
// local collection of the capture heap knows nothing about the snapshot
// and would otherwise move or reclaim them.
//===--------------------------------------------------------------------===//

/// Capture side of the continuation pin protocol: pins \p P at the capture
/// heap's own depth (attribution site "em.cont.capture"). Only objects that
/// live in \p CaptureHeap itself need this — ancestor-heap objects are
/// reachable by ancestors regardless and are covered by the ordinary
/// barrier discipline. No-op (returns false) in Detect/Off mode, at depth 0
/// (a depth-0 pin would never reach an unpin depth), or when \p P was
/// already pinned. Returns true exactly when this call newly pinned P, so
/// the capturer can record which pins it owns (and may release on resume).
bool pinContCapture(Object *P, Heap *CaptureHeap);

/// Resume side: releases a pin taken by pinContCapture, in place, without
/// waiting for the join. Only sound when the caller has established that
/// the continuation object itself was never published cross-heap (its pin
/// bit is sticky, so !isPinned() proves that) — then every path to \p P
/// runs through heaps that have the capture heap as ancestor, and the pin
/// is pure retention. Declines (returns false) when P's unpin depth no
/// longer equals \p CaptureDepth: a barrier deepened the pin since capture,
/// so entanglement owns it now and the join rule must release it.
bool unpinContResume(Object *P, uint32_t CaptureDepth);

/// Accounting for one capture / resume event: em.cont.* counters, stats
/// and trace events. \p Bytes is the continuation object's size.
void noteContCaptured(int64_t Bytes, uint32_t Depth);
void noteContResumed(int64_t Bytes, uint32_t Depth);

} // namespace em
} // namespace mpl

#endif // MPL_CORE_EM_H
