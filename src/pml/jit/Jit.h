//===- pml/jit/Jit.h - Tiered template JIT for the pml VM ------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiered x86-64 template JIT for hot pml functions (DESIGN.md §17).
/// Execution starts in the interpreter; every frame push counts a callee
/// that is still cold, and once a function's call count crosses the tier
/// threshold the dispatcher compiles it — one native template per bytecode
/// op, stitched together with the interpreter's exact semantics:
///
///  - tagged-integer arithmetic, comparisons, jumps, locals and array
///    indexing run inline;
///  - the entanglement *fast paths* run inline too: the read barrier's
///    depth-guided heap-ancestry walk and the write barrier's same-heap/
///    unpinned test are emitted into the template, and only their slow
///    paths tail into the existing em:: machinery — so all three barrier
///    modes (Off/Detect/Manage) behave bit-identically to the interpreter,
///    counters included;
///  - anything that allocates, traps, switches frames or performs effects
///    calls an out-of-line helper (jit::VmJit, implemented in Vm.cpp) that
///    runs the same pml::Vm op body the interpreter's switch calls, on the
///    synced VM state.
///
/// The design is deopt-free at function granularity: a compiled function
/// has a native entry for *every* bytecode ip (templates are self-contained
/// at op boundaries), so the dispatcher can enter at any resume point and
/// any exit simply falls back to the dispatcher with the VM state
/// consistent. Functions that fail to compile are marked and stay
/// interpreted forever; there is no on-stack replacement and no state
/// reconstruction.
///
/// Safety invariants the templates maintain:
///  - vm->Sp is synced before every helper call and reloaded after, so a
///    collection triggered by an allocating helper sees the rooted value
///    stack exactly as the interpreter would;
///  - no Slot value is cached in a register across an allocating helper;
///  - exceptions (Detect-mode EntanglementError, deadline expiry, OOM)
///    never unwind through a native frame: helpers catch into
///    Vm::PendingExc and the dispatcher rethrows from its own C++ frame;
///  - a per-function poll countdown (one dec per op, same 256 cadence as
///    the interpreter) keeps deadline checks and trap exits timely in
///    allocation-free loops.
///
/// Gating: MPL_JIT=1 arms the tier (default off), MPL_JIT_THRESHOLD sets
/// the call count that triggers compilation (default 64, min 1). Tests and
/// benches use setEnabled()/setCompileThreshold(). Under ThreadSanitizer
/// the JIT is force-disabled with a one-line notice: generated code is
/// uninstrumented, so tsan would report false races against instrumented
/// accesses. Span-armed runs (obs::spansEnabled) pin execution to the
/// interpreter so pml source-line attribution stays exact.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_PML_JIT_JIT_H
#define MPL_PML_JIT_JIT_H

#include "pml/jit/JitRuntime.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace mpl {

class Heap;

namespace pml {
class Vm;
struct Program;
} // namespace pml

namespace jit {

/// Helper status protocol: a native template calls a VmJit helper with
/// vm->Sp synced; StOk means "reload Sp and continue in native code",
/// anything else means "exit to the dispatcher" (frame switch, trap, or a
/// pending exception).
constexpr uint64_t StOk = 0;
constexpr uint64_t StExit = 1;

/// One compiled function: immutable RX code plus the per-bytecode-ip entry
/// table that makes every resume point enterable.
struct CompiledFn {
  const uint8_t *Code = nullptr; ///< Prologue entry (owned by the CodePool).
  size_t CodeSize = 0;
  std::vector<uint32_t> NativeOff; ///< NativeOff[ip] = template offset.

  /// Runs the function: the prologue loads the VM registers and jumps to
  /// the template for \p Ip. Returns when the code exits to the dispatcher.
  uint64_t invoke(pml::Vm *V, size_t Ip, Heap *CurHeap, uint64_t Base) const {
    using Entry = uint64_t (*)(pml::Vm *, const void *, Heap *, uint64_t);
    Entry E = reinterpret_cast<Entry>(reinterpret_cast<uintptr_t>(Code));
    return E(V, Code + NativeOff[Ip], CurHeap, Base);
  }
};

/// Tier state of one function. Phase moves Cold -> Compiling -> Compiled
/// (or Cold -> Compiling -> NoCompile when emission/publish fails); the
/// compile claim is a CAS so exactly one strand compiles while the rest
/// keep interpreting.
enum : uint32_t {
  PhaseCold = 0,
  PhaseCompiling = 1,
  PhaseCompiled = 2,
  PhaseNoCompile = 3,
};

/// Line-aligned: a cold function's counter never shares a cache line with a
/// neighbour's Phase/Fn, which every dispatcher entry reads.
struct alignas(64) FnState {
  std::atomic<uint64_t> Calls{0}; ///< Counted only while PhaseCold.
  std::atomic<uint32_t> Phase{PhaseCold};
  std::atomic<CompiledFn *> Fn{nullptr};
};

/// Per-Program JIT state, shared by the root Vm and every ParCall sub-VM
/// (they all hold the same Program). Created by the root Vm before any
/// parallelism exists; the FnState array is fixed-size so concurrent
/// strands index it without locks.
class ProgramJit {
public:
  explicit ProgramJit(size_t NumFns);
  ~ProgramJit();

  ProgramJit(const ProgramJit &) = delete;
  ProgramJit &operator=(const ProgramJit &) = delete;

  FnState &fn(size_t Idx) { return Fns[Idx]; }
  size_t numFns() const { return N; }

  /// Interpreter-side tier accounting: one relaxed add per frame push /
  /// tail call while the callee is PhaseCold. hotOrCompile reads Calls only
  /// in that phase, so once a function is compiling, compiled or refused,
  /// its calls write no shared memory and strands scale freely.
  void countCall(int FnIdx) {
    FnState &S = Fns[static_cast<size_t>(FnIdx)];
    if (S.Phase.load(std::memory_order_relaxed) == PhaseCold)
      S.Calls.fetch_add(1, std::memory_order_relaxed);
  }

  /// Number of functions currently in PhaseCompiled (tier-determinism
  /// checks in the fuzz/property suites).
  size_t compiledCount() const;

  /// The executable pages backing this program's compiled functions.
  CodePool Pool;

  /// Call count that triggers compilation; latched from the process-wide
  /// threshold when the ProgramJit is created.
  uint64_t Threshold;

private:
  std::unique_ptr<FnState[]> Fns;
  size_t N;
  std::mutex CompiledMu;
  std::vector<std::unique_ptr<CompiledFn>> Owned;

  friend const CompiledFn *hotOrCompile(ProgramJit &, const pml::Program &,
                                        int);
};

/// Process-wide gates. enabled() reads MPL_JIT on first use; programmatic
/// setEnabled overrides it (tests, benches). Always false under tsan and
/// on non-x86-64 builds.
bool enabled();
void setEnabled(bool On);

/// True when this build force-disables the JIT under ThreadSanitizer.
bool tsanForcedOff();

/// Compile trigger threshold (MPL_JIT_THRESHOLD, default 64, min 1).
uint64_t compileThreshold();
void setCompileThreshold(uint64_t T);

/// Creates the shared per-program JIT state; null when the JIT is off.
std::shared_ptr<ProgramJit> createProgramJit(const pml::Program &P);

/// Dispatcher-side tier check: returns the compiled code for \p FnIdx when
/// it is (or just became) hot and compiled, null when the function should
/// keep interpreting. Claims and performs compilation when the threshold
/// is crossed; emits the pml.jit.* stats, the jit_compile trace event and
/// the chaos JitPublish point.
const CompiledFn *hotOrCompile(ProgramJit &PJ, const pml::Program &P,
                               int FnIdx);

/// Stats hook for a Vm's dispatcher entries into native code
/// (pml.jit.entries). Each Vm tallies its entries privately and adds them
/// once when it is destroyed, so the stat is exact once the VMs are gone.
void noteEntries(uint64_t N);

/// The out-of-line helpers native code calls, plus the Vm field offsets the
/// templates bake in. Implemented in Vm.cpp (a friend of pml::Vm): each
/// helper is guard() around a call to the pml::Vm op body that the
/// interpreter's switch also calls (mkClosure, parCall, call, ret, handle,
/// doSuspend, ...; helpers given IpAfter first store it into the frame), so
/// each op has one implementation on both tiers.
struct VmJit {
  static size_t spOffset();
  static size_t stackBaseOffset();
  static size_t stackCap();

  // Continue helpers (StOk unless a trap/exception occurred).
  static uint64_t opPushStr(pml::Vm *V, uint64_t StrIdx) noexcept;
  static uint64_t opMkClosure(pml::Vm *V, uint64_t FnIdx,
                              uint64_t NumCaps) noexcept;
  static uint64_t opFixSelf(pml::Vm *V, uint64_t CapIdx) noexcept;
  static uint64_t opMkPair(pml::Vm *V) noexcept;
  static uint64_t opMkRef(pml::Vm *V) noexcept;
  static uint64_t opAlloc(pml::Vm *V) noexcept;
  static uint64_t opParCall(pml::Vm *V) noexcept;
  static uint64_t opPrint(pml::Vm *V) noexcept;
  static uint64_t opPrintInt(pml::Vm *V) noexcept;
  static uint64_t opEqSlow(pml::Vm *V, uint64_t Negate) noexcept;
  static uint64_t opReadBarrier(pml::Vm *V, uint64_t Val,
                                uint64_t Reader) noexcept;
  static uint64_t opWriteBarrier(pml::Vm *V, uint64_t Holder,
                                 uint64_t Val) noexcept;
  static uint64_t poll(pml::Vm *V) noexcept;

  // Exit helpers (always StExit; the dispatcher re-dispatches).
  static uint64_t opCall(pml::Vm *V, uint64_t IpAfter) noexcept;
  static uint64_t opTailCall(pml::Vm *V) noexcept;
  static uint64_t opRet(pml::Vm *V) noexcept;
  static uint64_t opHandle(pml::Vm *V, uint64_t IpAfter, uint64_t TableIdx,
                           uint64_t NumArms) noexcept;
  static uint64_t opSuspend(pml::Vm *V, uint64_t IpAfter,
                            uint64_t EffectId) noexcept;
  static uint64_t opResume(pml::Vm *V, uint64_t IpAfter) noexcept;
  static uint64_t opTrap(pml::Vm *V, uint64_t Code) noexcept;

private:
  /// Runs \p Body, an op body on \p V, for native code: an exception is
  /// caught into Vm::PendingExc and returns StExit; otherwise an exit helper
  /// (\p Exit) returns StExit, a continue helper StOk unless a trap is set.
  template <bool Exit, typename Body>
  static uint64_t guard(pml::Vm *V, Body B) noexcept;
};

/// Trap codes, each indexing the Vm's one table of trap messages
/// (TrapMessages in Vm.cpp). Native code raises the first NumInlineTraps
/// inline, through opTrap; the rest come only from op bodies.
enum : uint32_t {
  TrapDivZero,
  TrapOob,
  TrapMatchFail,
  TrapStackOverflow,
  NumInlineTraps,
  TrapCallDepth = NumInlineTraps,
  TrapNotFunction,
  TrapAllocRange,
  TrapNotCont,
  TrapResumedTwice,
  TrapContTooLarge,
  TrapParNotClosure,
  NumTraps,
};

} // namespace jit
} // namespace mpl

#endif // MPL_PML_JIT_JIT_H
