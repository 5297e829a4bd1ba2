//===- mm/MemoryGovernor.h - Memory-pressure governor ----------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime's memory-pressure governor. Entanglement has a *memory*
/// cost — pinned objects are retained in place until a join reaches their
/// unpin depth — so a production runtime must know when memory is scarce
/// and degrade gracefully instead of aborting on the first failed
/// `aligned_alloc`. The governor watches two accounted gauges:
///
///  - chunk bytes outstanding (ChunkPool residency, already tracked), the
///    quantity the soft/hard limits are enforced against;
///  - live pinned bytes (the entanglement counters' pinned minus unpinned
///    bytes, support/EmCounters.h), the portion of residency that *cannot*
///    be reclaimed early without breaking the pin-before-publish soundness
///    argument — reported for observability and OOM diagnostics.
///
/// Pressure ladder. `MPL_MEM_LIMIT_MB` sets a hard limit on chunk bytes;
/// `MPL_MEM_SOFT_FRAC` (default 0.85) places a soft watermark below it.
/// The level transitions None → Soft → Hard → Critical as residency
/// crosses the watermarks, each transition shrinking the collection-policy
/// allocation budget (allocBudgetScale) so tasks collect more eagerly
/// under pressure. When an allocation would breach the hard limit — or the
/// OS refuses memory outright — the chunk pool runs a staged response
/// instead of aborting:
///
///   1. trim the chunk free list back to the OS (the steady-state cache is
///      also capped at `MPL_CHUNK_CACHE_MB`);
///   2. force a local collection of the calling task's private chain via
///      the emergency-GC hook the Runtime registers;
///   3. bounded retry with exponential backoff (faults and transient
///      spikes resolve; the `mm.alloc.retry.ns` histogram records how
///      long rescued allocations stalled).
///
/// Only when every stage fails does the governor raise a *recoverable*
/// mpl::OutOfMemoryError: the failing strand unwinds (rt::par propagates
/// the error through the joins), Runtime::run rethrows it to the caller,
/// and the process survives. The one exception is an allocation failure
/// inside the collector itself (to-space exhaustion with every retry
/// spent): a copying collection cannot unwind mid-evacuation, so that path
/// remains fatal — the governor therefore exempts collecting threads from
/// the hard limit entirely (GC must be allowed to allocate to make
/// progress; it frees at least as much as it copies).
///
//===----------------------------------------------------------------------===//

#ifndef MPL_MM_MEMORYGOVERNOR_H
#define MPL_MM_MEMORYGOVERNOR_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace mpl {

/// Recoverable allocation failure: every recovery stage (free-list trim,
/// emergency collection, bounded retry) was exhausted. Thrown by the chunk
/// pool, propagated through rt::par joins, and rethrown by Runtime::run.
class OutOfMemoryError : public std::runtime_error {
public:
  OutOfMemoryError(size_t RequestedBytes, int64_t OutstandingBytes,
                   int64_t LimitBytes, int64_t PinnedBytes);

  size_t requestedBytes() const { return Requested; }
  int64_t outstandingBytes() const { return Outstanding; }
  int64_t limitBytes() const { return Limit; }
  /// Live pinned bytes at the time of failure: the part of residency the
  /// runtime could not shed without breaking entanglement soundness.
  int64_t pinnedBytes() const { return Pinned; }

private:
  size_t Requested;
  int64_t Outstanding;
  int64_t Limit;
  int64_t Pinned;
};

/// Memory-pressure level, derived from chunk residency against the limit.
enum class Pressure : uint8_t {
  None = 0,     ///< Below the soft watermark (or no limit configured).
  Soft = 1,     ///< At or above the soft watermark.
  Hard = 2,     ///< At or above the hard limit; recovery stages engaged.
  Critical = 3, ///< Recovery failing; OutOfMemoryError imminent.
};

const char *pressureName(Pressure P);

/// Process-wide memory-pressure governor (one per process, like ChunkPool).
class MemoryGovernor {
public:
  struct Config {
    /// Hard limit on chunk bytes outstanding; 0 disables limit enforcement
    /// (the free-list cache cap still applies).
    int64_t LimitBytes = 0;

    /// Soft watermark as a fraction of LimitBytes.
    double SoftFrac = 0.85;

    /// Steady-state cap on the chunk pool's free-list cache; beyond it,
    /// released chunks go straight back to the OS.
    int64_t ChunkCacheBytes = int64_t(64) << 20;

    /// Total allocation attempts before OutOfMemoryError (>= 1).
    int MaxAllocAttempts = 4;

    /// Base backoff between late retries (doubles per extra attempt).
    int64_t RetryBackoffUs = 50;
  };

  static MemoryGovernor &get();

  /// Replaces the configuration (tests / embedders). Quiescent callers
  /// only; also recomputes the pressure level.
  void configure(const Config &C);

  /// Applies MPL_MEM_LIMIT_MB / MPL_MEM_SOFT_FRAC / MPL_CHUNK_CACHE_MB on
  /// top of the current configuration. Once per process; called by the
  /// first rt::Runtime.
  void initFromEnv();

  Config config() const;

  bool limited() const {
    return LimitBytes.load(std::memory_order_relaxed) > 0;
  }
  /// Steady-state free-list cache cap, consulted by ChunkPool::release.
  int64_t chunkCacheBytes() const {
    return CacheBytes.load(std::memory_order_relaxed);
  }
  Pressure pressure() const {
    return static_cast<Pressure>(Level.load(std::memory_order_relaxed));
  }

  /// Collection-policy multiplier: 1.0 at None, halving per level, so
  /// tasks under pressure exhaust their allocation budget (and therefore
  /// collect) sooner.
  double allocBudgetScale() const;

  /// Live pinned bytes: the entanglement counters' pinned minus unpinned
  /// bytes (em::Counts, counted once by Heap::addPinned and the unpin
  /// paths). Resetting those counters resets this gauge too.
  int64_t pinnedBytes() const;

  /// Registers the emergency-collection hook (rt::Runtime: force a local
  /// collection of the calling task's private chain). Returns an id for
  /// unregisterEmergencyGc. The hook returns true when a collection ran.
  int registerEmergencyGc(std::function<bool()> Fn);
  void unregisterEmergencyGc(int Id);

  //===--------------------------------------------------------------------===//
  // Admission control (the request server's front door, src/net)
  //===--------------------------------------------------------------------===//

  /// What to do with an incoming request given memory pressure and queue
  /// occupancy.
  struct AdmissionDecision {
    bool Admit = true;
    /// When !Admit: how long the client should wait before retrying, the
    /// server's Retry-After hint. Scales with pressure severity.
    int64_t RetryAfterMs = 0;
    /// Pressure level the decision was made at (structured SHED payloads).
    Pressure Level = Pressure::None;
  };

  /// Admission ladder: maps the pressure level to a shrinking fraction of
  /// the request queue the server may fill —
  ///   None: full queue · Soft: 1/2 · Hard: 1/4 · Critical: shed all.
  /// Shedding at the door under pressure is strictly cheaper than admitting
  /// a request whose allocations will stall in the recovery ladder and
  /// likely end in a mid-flight OutOfMemoryError anyway.
  AdmissionDecision adviseAdmission(int64_t QueueDepth, int64_t QueueCap);

  //===--------------------------------------------------------------------===//
  // Chunk-pool protocol (called by ChunkPool::acquire / acquireLarge)
  //===--------------------------------------------------------------------===//

  /// Admission check for a chunk of \p Bytes: updates the pressure level
  /// and returns false when the allocation would breach the hard limit.
  /// Collecting threads (ScopedGcExempt) are always admitted.
  bool admitChunk(size_t Bytes);

  /// Runs recovery stage \p Attempt (0-based): trim, emergency GC, then
  /// backoff + both. Returns false once MaxAllocAttempts is exhausted —
  /// the caller must give up (raiseOom / fatal).
  bool recoverStage(int Attempt, size_t Bytes);

  /// Throws OutOfMemoryError describing the exhausted request.
  [[noreturn]] void raiseOom(size_t Bytes);

  /// Records how long an allocation that needed recovery stalled before
  /// eventually succeeding (the mm.alloc.retry.ns histogram).
  void noteRetrySettled(int64_t StallNs);

  /// Recomputes the pressure level from current residency (chunk releases
  /// and trims lower it).
  void updatePressure();

  /// Marks the current thread as collecting: its chunk acquisitions bypass
  /// the hard limit (to-space must be allocatable for GC to make progress)
  /// and skip the emergency-GC recovery stage (a collector cannot be
  /// reentered on the same thread — its pin locks are held).
  class ScopedGcExempt {
  public:
    ScopedGcExempt();
    ~ScopedGcExempt();
    ScopedGcExempt(const ScopedGcExempt &) = delete;
    ScopedGcExempt &operator=(const ScopedGcExempt &) = delete;
  };
  static bool gcExemptOnThisThread();

private:
  MemoryGovernor() = default;

  void setPressureFrom(int64_t WouldBeOutstanding);
  bool runEmergencyGc();

  // Hot fields are plain atomics so admitChunk never takes a lock.
  std::atomic<int64_t> LimitBytes{0};
  std::atomic<int64_t> SoftBytes{0};
  std::atomic<int64_t> CacheBytes{Config{}.ChunkCacheBytes};
  std::atomic<int> MaxAttempts{Config{}.MaxAllocAttempts};
  std::atomic<int64_t> BackoffUs{Config{}.RetryBackoffUs};
  std::atomic<uint8_t> Level{static_cast<uint8_t>(Pressure::None)};

  mutable std::mutex Mu; ///< Guards SoftFracValue and the hook list.
  double SoftFracValue = Config{}.SoftFrac;
  struct Hook {
    int Id;
    std::function<bool()> Fn;
  };
  std::vector<Hook> GcHooks;
  int NextHookId = 1;

  friend class ChunkPool;
};

} // namespace mpl

#endif // MPL_MM_MEMORYGOVERNOR_H
