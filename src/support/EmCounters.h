//===- support/EmCounters.h - Entanglement cost counters -------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime-wide entanglement cost counters (the paper's cost metrics:
/// entangled reads, pins by kind, pinned/unpinned bytes). They live in the
/// support layer — below em/, hh/ and gc/ — because both the barriers
/// (core/Em.cpp) and the join rule (hh/Heap.cpp) account into them.
///
/// Each counter is a registry Stat (support/Stats.h), so the registry is
/// their only storage: StatRegistry::snapshotAll(), resetAll() and the
/// Prometheus exposition see them like any other Stat. MPL_EM_COUNTERS is
/// the one table of them; the snapshot fields, the Stats, snapshot(),
/// reset() and every JSON/CSV exporter are generated from or iterate it,
/// so adding a counter is one row.
///
/// Tests and the invariant checker use snapshot()/reset() instead of
/// hand-reading the Stats: a snapshot is a plain value type that can be
/// compared, subtracted, and printed without ordering concerns.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_SUPPORT_EMCOUNTERS_H
#define MPL_SUPPORT_EMCOUNTERS_H

#include "support/Stats.h"

#include <cstdint>

namespace mpl {
namespace em {

/// The counter table, in export order: X(Field, Stat name, JSON/CSV key).
/// All counters are cumulative event counts.
///  - EntangledReadsUnpinned: entangled reads that found their target
///    UNPINNED. Pin-before-publish guarantees this never happens in a
///    correct tree: any pointer a concurrent task can load was pinned by
///    the write that published it. Nonzero means a write barrier lost a
///    pin — the fuzz suite's primary detector for barrier regressions.
///  - UnpinnedObjects/UnpinnedBytes: releases by the join rule and by
///    continuation resume.
///  - ContCaptured/ContResumed: effect-handler continuations captured (pml
///    Suspend) / resumed.
#define MPL_EM_COUNTERS(X)                                                     \
  X(EntangledReads, "em.reads.entangled", "entangled_reads")                   \
  X(EntangledReadsUnpinned, "em.reads.unpinned", "entangled_reads_unpinned")   \
  X(DownPointerPins, "em.pins.down", "pins_down")                              \
  X(CrossPointerPins, "em.pins.cross", "pins_cross")                           \
  X(PinnedHolderPins, "em.pins.holder", "pins_holder")                         \
  X(PinnedObjects, "em.pins.objects", "pinned_objects")                        \
  X(PinnedBytes, "em.pinned.bytes", "pinned_bytes")                            \
  X(UnpinnedObjects, "em.unpins", "unpinned_objects")                          \
  X(UnpinnedBytes, "em.unpins.bytes", "unpinned_bytes")                        \
  X(ContCaptured, "em.cont.captured", "cont_captured")                         \
  X(ContResumed, "em.cont.resumed", "cont_resumed")

/// A plain-value copy of the counters at one instant. Live quantities are
/// differences (see livePinnedBytes / livePinnedObjects).
struct CounterSnapshot {
#define MPL_EM_FIELD(Field, StatName, Key) int64_t Field = 0;
  MPL_EM_COUNTERS(MPL_EM_FIELD)
#undef MPL_EM_FIELD

  /// Bytes currently retained in place by live pins. Zero at any quiescent
  /// point where the whole task tree has joined (every pin released).
  int64_t livePinnedBytes() const { return PinnedBytes - UnpinnedBytes; }
  int64_t livePinnedObjects() const { return PinnedObjects - UnpinnedObjects; }
};

/// One row of MPL_EM_COUNTERS as data, for code that loops over it.
struct CounterField {
  int64_t CounterSnapshot::*Field;
  const char *StatName;
  const char *Key;
};

inline constexpr CounterField CounterFields[] = {
#define MPL_EM_ROW(Field, StatName, Key)                                       \
  {&CounterSnapshot::Field, StatName, Key},
    MPL_EM_COUNTERS(MPL_EM_ROW)
#undef MPL_EM_ROW
};

/// Calls \p Emit(Key, Value) for every exported quantity of \p S, in the
/// order the JSON and CSV exporters write them: each counter of the table,
/// with the two live-pin differences right after the unpin totals.
template <typename Fn>
void forEachExported(const CounterSnapshot &S, Fn &&Emit) {
  for (const CounterField &C : CounterFields) {
    Emit(C.Key, S.*C.Field);
    if (C.Field == &CounterSnapshot::UnpinnedBytes) {
      Emit("live_pinned_objects", S.livePinnedObjects());
      Emit("live_pinned_bytes", S.livePinnedBytes());
    }
  }
}

/// The counters themselves: one registry Stat per table row.
struct Counters {
#define MPL_EM_STAT(Field, StatName, Key) Stat Field{StatName};
  MPL_EM_COUNTERS(MPL_EM_STAT)
#undef MPL_EM_STAT

  /// Reads every counter (relaxed; exact at quiescent points).
  CounterSnapshot snapshot() const {
    CounterSnapshot S;
#define MPL_EM_READ(Field, StatName, Key) S.Field = Field.get();
    MPL_EM_COUNTERS(MPL_EM_READ)
#undef MPL_EM_READ
    return S;
  }

  /// Zeroes every counter (between tests / benchmark phases; also done by
  /// StatRegistry::resetAll()).
  void reset() {
#define MPL_EM_ZERO(Field, StatName, Key) Field.set(0);
    MPL_EM_COUNTERS(MPL_EM_ZERO)
#undef MPL_EM_ZERO
  }
};

extern Counters Counts;

} // namespace em
} // namespace mpl

#endif // MPL_SUPPORT_EMCOUNTERS_H
