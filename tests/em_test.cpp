//===- tests/em_test.cpp - Entanglement-management semantics --------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// Tests the barrier semantics case by case against the paper's rules:
// down-pointer writes pin at the holder's depth, cross-pointer writes pin
// at the LCA, stores into pinned holders inherit exposure, entangled reads
// are detected exactly when the pointee's heap is not an ancestor of the
// reader's, pins deepen monotonically, and joins unpin exactly at the
// depth where entanglement dies.
//
// All scenarios run with one worker so the interleavings are exact:
// branch A of every rt::par runs to completion before branch B starts.
//
//===----------------------------------------------------------------------===//

#include "core/Em.h"
#include "core/Handles.h"
#include "core/Ops.h"
#include "core/Runtime.h"
#include "hh/Heap.h"
#include "mm/MemoryGovernor.h"
#include "support/EmCounters.h"
#include "support/Stats.h"
#include "workloads/Kernels.h"

#include <gtest/gtest.h>

#include <mutex>

using namespace mpl;
using namespace mpl::ops;

namespace {
rt::Config cfg1() {
  rt::Config C;
  C.NumWorkers = 1;
  C.Profile = false;
  C.GcMinBytes = 1 << 16;
  return C;
}

int64_t stat(const char *Name) {
  return StatRegistry::get().valueOf(Name);
}
} // namespace

TEST(EmSemantics, UpPointerWritesNeverPin) {
  StatRegistry::get().resetAll();
  rt::Runtime R(cfg1());
  R.run([&] {
    Local Shallow(newRef(boxInt(1))); // Depth 0.
    rt::par(
        [&] {
          // Depth-1 ref stores a pointer to a depth-0 object: up-pointer.
          Local Mine(newRef(Shallow.slot()));
          EXPECT_FALSE(Shallow.get()->isPinned());
          return unit();
        },
        [&] { return unit(); });
  });
  EXPECT_EQ(stat("em.pins.down"), 0);
  EXPECT_EQ(stat("em.pins.cross"), 0);
}

TEST(EmSemantics, IntraHeapWritesNeverPin) {
  StatRegistry::get().resetAll();
  rt::Runtime R(cfg1());
  R.run([&] {
    Local A(newRef(boxInt(1)));
    Local B(newRef(A.slot())); // Same heap.
    refSet(B.get(), A.slot());
    EXPECT_FALSE(A.get()->isPinned());
  });
  EXPECT_EQ(stat("em.pins.down") + stat("em.pins.cross") +
                stat("em.pins.holder"),
            0);
}

TEST(EmSemantics, DownPointerPinDepthIsHolderDepth) {
  rt::Runtime R(cfg1());
  R.run([&] {
    Local Shared0(newRef(boxInt(0))); // Depth 0.
    rt::par(
        [&] {
          rt::par(
              [&] {
                // Depth 2 object published into a depth-0 ref.
                Local Mine(newRef(boxInt(5)));
                refSet(Shared0.get(), Mine.slot());
                EXPECT_TRUE(Mine.get()->isPinned());
                EXPECT_EQ(Mine.get()->unpinDepth(), 0u);
                return unit();
              },
              [&] { return unit(); });
          // After the inner join (to depth 1), still pinned: unpin depth 0
          // has not been reached.
          Object *P = Object::asPointer(refGet(Shared0.get()));
          EXPECT_TRUE(P && P->isPinned());
          return unit();
        },
        [&] { return unit(); });
    // After the outer join (to depth 0): unpinned.
    Object *P = Object::asPointer(refGet(Shared0.get()));
    ASSERT_NE(P, nullptr);
    EXPECT_FALSE(P->isPinned());
    EXPECT_EQ(unboxInt(refGet(P)), 5);
  });
}

TEST(EmSemantics, IntermediateDepthPinReleasesAtItsJoin) {
  StatRegistry::get().resetAll();
  rt::Runtime R(cfg1());
  R.run([&] {
    rt::par(
        [&] {
          Local Shared1(newRef(boxInt(0))); // Depth 1.
          rt::par(
              [&] {
                Local Mine(newRef(boxInt(9))); // Depth 2.
                refSet(Shared1.get(), Mine.slot());
                EXPECT_EQ(Mine.get()->unpinDepth(), 1u);
                return unit();
              },
              [&] { return unit(); });
          // Join merged depth 2 into depth 1 == unpin depth: released.
          Object *P = Object::asPointer(refGet(Shared1.get()));
          EXPECT_TRUE(P && !P->isPinned());
          return unit();
        },
        [&] { return unit(); });
  });
  EXPECT_GT(stat("em.unpins"), 0);
}

TEST(EmSemantics, PinDepthDeepensToMinimum) {
  rt::Runtime R(cfg1());
  R.run([&] {
    Local Shared0(newRef(boxInt(0)));
    rt::par(
        [&] {
          Local Shared1(newRef(boxInt(0))); // Depth 1.
          rt::par(
              [&] {
                Local Mine(newRef(boxInt(7))); // Depth 2.
                // First published at depth 1, then at depth 0: the pin
                // must keep the minimum unpin depth.
                refSet(Shared1.get(), Mine.slot());
                EXPECT_EQ(Mine.get()->unpinDepth(), 1u);
                refSet(Shared0.get(), Mine.slot());
                EXPECT_EQ(Mine.get()->unpinDepth(), 0u);
                // Publishing at depth 1 again must NOT shallow the pin.
                refSet(Shared1.get(), Mine.slot());
                EXPECT_EQ(Mine.get()->unpinDepth(), 0u);
                return unit();
              },
              [&] { return unit(); });
          return unit();
        },
        [&] { return unit(); });
  });
}

namespace {
/// Everything a write-barrier pin can change, for before/after checks.
struct PinState {
  size_t PinnedEntries = 0;
  uint32_t UnpinDepth = 0;
  em::CounterSnapshot Counts;
  int64_t GovernorPinnedBytes = 0;

  static PinState of(Object *O) {
    PinState S;
    Heap *H = Heap::of(O);
    {
      std::lock_guard<std::mutex> G(H->PinLock);
      S.PinnedEntries = H->Pinned.size();
    }
    S.UnpinDepth = O->unpinDepth();
    S.Counts = em::Counts.snapshot();
    S.GovernorPinnedBytes = MemoryGovernor::get().pinnedBytes();
    return S;
  }
};

/// Expects \p After to equal \p Before except for one more down-pointer
/// pin classification and \p WantDepth as the unpin depth.
void expectOnlyDownPinCounted(const PinState &Before, const PinState &After,
                              uint32_t WantDepth) {
  EXPECT_EQ(After.PinnedEntries, Before.PinnedEntries)
      << "no new Pinned-vector entry";
  EXPECT_EQ(After.UnpinDepth, WantDepth);
  EXPECT_EQ(After.GovernorPinnedBytes, Before.GovernorPinnedBytes);
  for (const em::CounterField &F : em::CounterFields) {
    int64_t Want = Before.Counts.*F.Field;
    if (F.Field == &em::CounterSnapshot::DownPointerPins)
      ++Want; // The barrier still classifies the write.
    EXPECT_EQ(After.Counts.*F.Field, Want) << F.StatName;
  }
}
} // namespace

TEST(EmSemantics, RepublishAtDeeperPinDepthChangesNothing) {
  rt::Runtime R(cfg1());
  R.run([&] {
    Local Shared0(newRef(boxInt(0)));
    rt::par(
        [&] {
          Local Shared1(newRef(boxInt(0))); // Depth 1.
          rt::par(
              [&] {
                Local Mine(newRef(boxInt(7))); // Depth 2.
                refSet(Shared0.get(), Mine.slot()); // Pinned at depth 0.
                PinState Before = PinState::of(Mine.get());
                EXPECT_EQ(Before.UnpinDepth, 0u);
                // A down-pointer from depth 1 asks for a pin at depth 1;
                // the pin at depth 0 already covers it.
                refSet(Shared1.get(), Mine.slot());
                expectOnlyDownPinCounted(Before, PinState::of(Mine.get()), 0);
                return unit();
              },
              [&] { return unit(); });
          return unit();
        },
        [&] { return unit(); });
  });
}

TEST(EmSemantics, RepublishThatDeepensThePinTakesTheLockedPath) {
  rt::Runtime R(cfg1());
  R.run([&] {
    Local Shared0(newRef(boxInt(0)));
    rt::par(
        [&] {
          Local Shared1(newRef(boxInt(0))); // Depth 1.
          rt::par(
              [&] {
                Local Mine(newRef(boxInt(7))); // Depth 2.
                refSet(Shared1.get(), Mine.slot()); // Pinned at depth 1.
                PinState Before = PinState::of(Mine.get());
                EXPECT_EQ(Before.UnpinDepth, 1u);
                // Depth 0 is below the current pin: only the locked pinMin
                // in Heap::addPinned can lower it, and it must not add a
                // second entry or count a second pinned object.
                refSet(Shared0.get(), Mine.slot());
                expectOnlyDownPinCounted(Before, PinState::of(Mine.get()), 0);
                return unit();
              },
              [&] { return unit(); });
          return unit();
        },
        [&] { return unit(); });
  });
}

TEST(EmSemantics, StoreIntoPinnedHolderInheritsExposure) {
  StatRegistry::get().resetAll();
  rt::Runtime R(cfg1());
  R.run([&] {
    Local Shared0(newRef(boxInt(0)));
    rt::par(
        [&] {
          // Publish a mutable record, then store a fresh object into it:
          // the fresh object becomes reachable by concurrent readers of
          // the record, so it must inherit the pin.
          Local Rec(newMutRecord(0b1, {boxInt(0)}));
          refSet(Shared0.get(), Rec.slot());
          EXPECT_TRUE(Rec.get()->isPinned());
          Local Fresh(newRef(boxInt(11)));
          recSetMut(Rec.get(), 0, Fresh.slot());
          EXPECT_TRUE(Fresh.get()->isPinned());
          EXPECT_LE(Fresh.get()->unpinDepth(), Rec.get()->unpinDepth());
          return unit();
        },
        [&] { return unit(); });
  });
  EXPECT_GT(stat("em.pins.holder"), 0);
}

TEST(EmSemantics, ReadBarrierFiresOnlyOnEntangledValues) {
  StatRegistry::get().resetAll();
  rt::Runtime R(cfg1());
  R.run([&] {
    Local Shared(newRef(boxInt(0)));
    rt::par(
        [&] {
          // A's own reads of ancestor data: never entangled.
          Slot V = refGet(Shared.get());
          (void)V;
          Local Mine(newRef(boxInt(3)));
          refSet(Shared.get(), Mine.slot());
          // Reading back one's own published object: its heap is the
          // reader's own heap — not entangled.
          Slot Back = refGet(Shared.get());
          (void)Back;
          return unit();
        },
        [&] { return unit(); });
  });
  EXPECT_EQ(stat("em.reads.entangled"), 0)
      << "only cross-task reads are entangled";
}

TEST(EmSemantics, SiblingReadIsEntangledExactlyOnce) {
  StatRegistry::get().resetAll();
  rt::Runtime R(cfg1());
  R.run([&] {
    Local Shared(newRef(boxInt(0)));
    rt::par(
        [&] {
          Local Mine(newRef(boxInt(3)));
          refSet(Shared.get(), Mine.slot());
          return unit();
        },
        [&] {
          Slot V = refGet(Shared.get()); // Entangled (A's object).
          (void)V;
          return unit();
        });
    // After the join the object merged into this heap: reads of it are
    // plain ancestor reads again.
    Slot V = refGet(Shared.get());
    (void)V;
  });
  EXPECT_EQ(stat("em.reads.entangled"), 1);
}

TEST(EmSemantics, ReadBarrierDeepensPinToReaderLca) {
  rt::Runtime R(cfg1());
  R.run([&] {
    Local Shared0(newRef(boxInt(0)));
    rt::par(
        [&] {
          rt::par(
              [&] {
                Local Mine(newRef(boxInt(5)));
                refSet(Shared0.get(), Mine.slot());
                return unit();
              },
              [&] { return unit(); });
          return unit();
        },
        [&] {
          // Reader at depth 1 in the *other* subtree: LCA depth 0. The
          // pin is already at 0 (holder depth); reading keeps it there.
          Object *P = Object::asPointer(refGet(Shared0.get()));
          if (P) {
            EXPECT_TRUE(P->isPinned());
            EXPECT_EQ(P->unpinDepth(), 0u);
          }
          return unit();
        });
  });
}

TEST(EmSemantics, OffModeSkipsAllBookkeeping) {
  StatRegistry::get().resetAll();
  rt::Config C = cfg1();
  C.Mode = em::Mode::Off;
  rt::Runtime R(C);
  R.run([&] {
    Local Shared(newRef(boxInt(0)));
    // Disentangled mutation only (Off is unsound for entanglement).
    for (int I = 0; I < 100; ++I)
      refSet(Shared.get(), boxInt(I));
    rt::par([&] { return refGet(Shared.get()); },
            [&] { return unit(); });
  });
  EXPECT_EQ(stat("em.pins.down") + stat("em.pins.cross") +
                stat("em.reads.entangled"),
            0);
}

TEST(EmSemantics, CrossPointerViaFreshImmutableRecord) {
  // B embeds an entangled pointer into a fresh immutable record and
  // publishes the record; A's object must survive B's GC and the record
  // must stay traversable after both branches' work.
  rt::Runtime R(cfg1());
  int64_t Got = 0;
  R.run([&] {
    Local SharedA(newRef(boxInt(0)));
    Local SharedB(newRef(boxInt(0)));
    rt::par(
        [&] {
          Local Mine(newRef(boxInt(21)));
          refSet(SharedA.get(), Mine.slot());
          return unit();
        },
        [&] {
          Object *FromA = Object::asPointer(refGet(SharedA.get()));
          if (!FromA)
            return unit();
          Local LA(FromA);
          Local Wrap(newRecord(0b1, {LA.slot()}));
          refSet(SharedB.get(), Wrap.slot());
          // Churn + collect in B.
          for (int I = 0; I < 30000; ++I)
            newRecord(0, {boxInt(I)});
          rt::Runtime::current()->maybeCollect(/*Force=*/true);
          return unit();
        });
    Object *Wrap = Object::asPointer(refGet(SharedB.get()));
    ASSERT_NE(Wrap, nullptr);
    Object *Inner = Object::asPointer(recGet(Wrap, 0));
    ASSERT_NE(Inner, nullptr);
    Got = unboxInt(refGet(Inner)) * 2;
  });
  EXPECT_EQ(Got, 42);
}

TEST(EmSemantics, DeepTreePinsReleaseLevelByLevel) {
  // A chain of nested forks publishing at every level; every pin must be
  // gone when the whole tree joins.
  StatRegistry::get().resetAll();
  rt::Runtime R(cfg1());
  R.run([&] {
    Local Shared(newArray(8, boxInt(0)));
    struct Rec {
      static Slot go(Object *SharedArr, int Depth) {
        if (Depth == 8)
          return unit();
        Local LS(SharedArr);
        rt::par(
            [&] {
              Local Mine(newRef(boxInt(Depth)));
              arrSet(LS.get(), static_cast<uint32_t>(Depth), Mine.slot());
              return go(LS.get(), Depth + 1);
            },
            [&] { return unit(); });
        return unit();
      }
    };
    Rec::go(Shared.get(), 0);
    for (uint32_t I = 0; I < 8; ++I) {
      Object *P = Object::asPointer(arrGet(Shared.get(), I));
      ASSERT_NE(P, nullptr) << "level " << I;
      EXPECT_FALSE(P->isPinned()) << "level " << I;
      EXPECT_EQ(unboxInt(refGet(P)), I);
    }
  });
  EXPECT_EQ(stat("em.pins.down"), 8);
  EXPECT_EQ(stat("em.unpins"), 8);
}

TEST(EmSemantics, PinnedBytesBalanceUnpinnedBytes) {
  em::Counts.reset();
  rt::Runtime R(cfg1());
  R.run([&] {
    Local Shared(newArray(64, boxInt(0)));
    rt::par(
        [&] {
          for (uint32_t I = 0; I < 64; ++I) {
            Local Box(newRef(boxInt(I)));
            arrSet(Shared.get(), I, Box.slot());
          }
          return unit();
        },
        [&] { return unit(); });
  });
  em::CounterSnapshot S = em::Counts.snapshot();
  EXPECT_GT(S.PinnedBytes, 0);
  EXPECT_EQ(S.PinnedBytes, S.UnpinnedBytes)
      << "every pinned byte must be released by a join";
  EXPECT_EQ(S.livePinnedObjects(), 0);
}

//===----------------------------------------------------------------------===//
// Join-time unpin at every depth
//===----------------------------------------------------------------------===//

namespace {
class JoinUnpinAtDepth : public ::testing::TestWithParam<int> {};

/// Forks a nest \p Depth levels deep; the innermost branch publishes one
/// box per level it passed through into the depth-0 \p Board, so a single
/// run creates pins with unpin depth 0 held across 1..Depth joins.
Slot publishChain(Object *Board, int Level, int Depth) {
  Local LB(Board);
  Local Box(newRef(boxInt(Level)));
  arrSet(LB.get(), static_cast<uint32_t>(Level), Box.slot());
  EXPECT_EQ(Box.get()->unpinDepth(), 0u) << "level " << Level;
  if (Level + 1 < Depth)
    rt::par([&] { return publishChain(LB.get(), Level + 1, Depth); },
            [&] { return unit(); });
  return unit();
}
} // namespace

TEST_P(JoinUnpinAtDepth, AllPinsReleasedByFinalJoin) {
  const int Depth = GetParam();
  em::Counts.reset();
  rt::Runtime R(cfg1());
  R.run([&] {
    Local Board(newArray(static_cast<uint32_t>(Depth), boxInt(0)));
    rt::par([&] { return publishChain(Board.get(), 0, Depth); },
            [&] { return unit(); });
    // Mid-run invariant pass: the tree has fully joined back to the root
    // task, so every pin (unpin depth 0) must have been released.
    em::InvariantReport Rep = em::verifyInvariants(/*ExpectFullyJoined=*/true);
    EXPECT_TRUE(Rep.ok()) << Rep.str();
    for (int L = 0; L < Depth; ++L) {
      Object *Box =
          Object::asPointer(arrGet(Board.get(), static_cast<uint32_t>(L)));
      ASSERT_NE(Box, nullptr) << "level " << L;
      EXPECT_FALSE(Box->isPinned()) << "level " << L;
      EXPECT_EQ(unboxInt(refGet(Box)), L);
    }
  });
  em::CounterSnapshot S = em::Counts.snapshot();
  EXPECT_EQ(S.PinnedObjects, Depth);
  EXPECT_EQ(S.UnpinnedObjects, Depth)
      << "one release per published level, all at the final join";
  EXPECT_EQ(S.livePinnedObjects(), 0);
  EXPECT_EQ(S.livePinnedBytes(), 0)
      << "PinnedBytes must return to zero after the final join";
}

INSTANTIATE_TEST_SUITE_P(Depths, JoinUnpinAtDepth, ::testing::Range(1, 7),
                         [](const ::testing::TestParamInfo<int> &I) {
                           return "Depth" + std::to_string(I.param);
                         });

//===----------------------------------------------------------------------===//
// Detect mode: pre-paper MPL rejects entangled executions
//===----------------------------------------------------------------------===//

namespace {
rt::Config cfgDetect() {
  rt::Config C = cfg1();
  C.Mode = em::Mode::Detect;
  return C;
}
} // namespace

TEST(EmDetectMode, EntangledReadThrowsRecoverably) {
  rt::Runtime R(cfgDetect());
  bool Caught = false;
  try {
    R.run([&] {
      Local Shared(newRef(boxInt(0)));
      rt::par(
          [&] {
            Local Mine(newRef(boxInt(3)));
            refSet(Shared.get(), Mine.slot());
            return unit();
          },
          [&] {
            // Sibling read of A's object: entangled -> Detect rejects.
            return refGet(Shared.get());
          });
    });
  } catch (const em::EntanglementError &E) {
    Caught = true;
    EXPECT_EQ(E.site(), em::EntanglementError::Site::Read);
    EXPECT_EQ(E.readerDepth(), 1u);
    EXPECT_EQ(E.pointeeDepth(), 1u);
    EXPECT_EQ(E.objectKind(), ObjKind::Ref);
    EXPECT_NE(std::string(E.what()).find("entanglement detected"),
              std::string::npos)
        << E.what();
  }
  EXPECT_TRUE(Caught) << "entangled read must reject in Detect mode";

  // The rejection is recoverable: the same Runtime runs a clean program.
  int64_t Got = 0;
  R.run([&] {
    Local Box(newRef(boxInt(11)));
    Got = unboxInt(refGet(Box.get()));
  });
  EXPECT_EQ(Got, 11);
}

TEST(EmDetectMode, CrossPointerWriteThrowsRecoverably) {
  rt::Runtime R(cfgDetect());
  bool Caught = false;
  try {
    R.run([&] {
      // Leak A's object to B through a C++-side channel: no runtime
      // read is involved, so the write barrier is the first (and only)
      // place the entanglement can be caught.
      Object *Leak = nullptr;
      rt::par(
          [&] {
            Local Mine(newRef(boxInt(5)));
            Leak = Mine.get();
            return unit();
          },
          [&] {
            Local B(newRef(boxInt(0)));
            Local LA(Leak);
            refSet(B.get(), LA.slot()); // Cross-pointer write.
            return unit();
          });
    });
  } catch (const em::EntanglementError &E) {
    Caught = true;
    EXPECT_EQ(E.site(), em::EntanglementError::Site::Write);
    EXPECT_EQ(E.objectKind(), ObjKind::Ref);
    EXPECT_NE(std::string(E.what()).find("entanglement created by write"),
              std::string::npos)
        << E.what();
  }
  EXPECT_TRUE(Caught) << "cross-pointer write must reject in Detect mode";
}

TEST(EmDetectMode, DisentangledProgramsRun) {
  // Detect mode permits down-pointers (the remembered-set case) and any
  // program whose concurrent tasks never observe each other's data.
  em::Counts.reset();
  rt::Runtime R(cfgDetect());
  int64_t Fib = 0;
  R.run([&] {
    Local Shared(newArray(4, boxInt(0)));
    rt::par(
        [&] {
          // Down-pointer publish, never read by the concurrent sibling.
          Local Mine(newRef(boxInt(17)));
          arrSet(Shared.get(), 0, Mine.slot());
          return unit();
        },
        [&] { return unit(); });
    // Read after the join: disentangled, allowed.
    Object *P = Object::asPointer(arrGet(Shared.get(), 0));
    ASSERT_NE(P, nullptr);
    EXPECT_EQ(unboxInt(refGet(P)), 17);
    Fib = wl::fib(18);
  });
  EXPECT_EQ(Fib, 2584);
  em::CounterSnapshot S = em::Counts.snapshot();
  EXPECT_GT(S.DownPointerPins, 0);
  EXPECT_EQ(S.EntangledReads, 0);
}

//===----------------------------------------------------------------------===//
// Off mode: the ablation must stay sound on disentangled programs
//===----------------------------------------------------------------------===//

TEST(EmOffMode, DisentangledKernelsMatchManageMode) {
  // Off disables every barrier, so it is only sound for disentangled
  // programs — on those it must compute the same answers as Manage with
  // zero entanglement bookkeeping.
  auto runKernels = [](em::Mode M) {
    rt::Config C = cfg1();
    C.Mode = M;
    rt::Runtime R(C);
    std::pair<int64_t, bool> Out{0, false};
    R.run([&] {
      Out.first = wl::fib(20);
      Local In(wl::randomInts(4000, 1 << 30, 42));
      Local Sorted(wl::mergesortInts(In.get()));
      Out.second = wl::isSortedInts(Sorted.get());
    });
    return Out;
  };

  em::Counts.reset();
  auto Off = runKernels(em::Mode::Off);
  em::CounterSnapshot OffCounts = em::Counts.snapshot();
  auto Manage = runKernels(em::Mode::Manage);

  EXPECT_EQ(Off.first, Manage.first);
  EXPECT_TRUE(Off.second);
  EXPECT_TRUE(Manage.second);
  EXPECT_EQ(OffCounts.PinnedObjects, 0)
      << "Off mode must run no barrier bookkeeping at all";
  EXPECT_EQ(OffCounts.EntangledReads, 0);
  EXPECT_EQ(OffCounts.DownPointerPins + OffCounts.CrossPointerPins +
                OffCounts.PinnedHolderPins,
            0);
}

//===----------------------------------------------------------------------===//
// Cost-model validation (the paper's Section 4 bounds, empirically)
//===----------------------------------------------------------------------===//

namespace {
class EmCostModel : public ::testing::TestWithParam<int64_t> {};
} // namespace

TEST_P(EmCostModel, PinnedBytesLinearInEntangledObjects) {
  // The space cost of entanglement is bounded by the entangled data: K
  // published boxes must pin exactly K objects and K * sizeof(box) bytes,
  // independent of how much *disentangled* allocation happens around them.
  const int64_t K = GetParam();
  StatRegistry::get().resetAll();
  rt::Runtime R(cfg1());
  R.run([&] {
    Local Board(newArray(static_cast<uint32_t>(K), 0));
    rt::par(
        [&] {
          for (int64_t I = 0; I < K; ++I) {
            Local Box(newRef(boxInt(I)));
            arrSet(Board.get(), static_cast<uint32_t>(I), Box.slot());
            // Disentangled churn between publishes must not add pins.
            for (int J = 0; J < 20; ++J)
              newRecord(0, {boxInt(J)});
          }
          return unit();
        },
        [&] { return unit(); });
  });
  const int64_t BoxBytes = 16; // Ref: 8B header + 1 slot.
  EXPECT_EQ(stat("em.pins.objects"), K);
  EXPECT_EQ(stat("em.pinned.bytes"), K * BoxBytes);
  EXPECT_EQ(stat("em.unpins"), K);
  EXPECT_EQ(stat("em.unpins.bytes"), K * BoxBytes);
}

TEST_P(EmCostModel, EntangledReadsCountExactly) {
  // The time cost of detection is one event per entangled load: reading a
  // sibling's box N times must count exactly N entangled reads.
  const int64_t N = GetParam();
  StatRegistry::get().resetAll();
  rt::Runtime R(cfg1());
  R.run([&] {
    Local Shared(newRef(boxInt(0)));
    rt::par(
        [&] {
          Local Box(newRef(boxInt(7)));
          refSet(Shared.get(), Box.slot());
          return unit();
        },
        [&] {
          int64_t Acc = 0;
          for (int64_t I = 0; I < N; ++I) {
            Object *P = Object::asPointer(refGet(Shared.get()));
            if (P)
              Acc += unboxInt(refGet(P));
          }
          return boxInt(Acc);
        });
  });
  // Each iteration performs two barriered loads: the shared ref (pointer
  // into a concurrent heap -> entangled) and the box's own cell (also in
  // the concurrent heap, but holding an immediate -> not entangled).
  EXPECT_EQ(stat("em.reads.entangled"), N);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EmCostModel,
                         ::testing::Values(1, 4, 16, 64, 256, 1024),
                         [](const ::testing::TestParamInfo<int64_t> &I) {
                           return "K" + std::to_string(I.param);
                         });
