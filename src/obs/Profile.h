//===- obs/Profile.h - Site-attributed entanglement profiler ---*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The attribution half of the observability layer. The counters (the em
/// counter Stats of support/EmCounters.h) say *how much* entanglement cost
/// a run and the tracer (obs/Trace.h) says *when*; this profiler says
/// *where*: every pin (down-pointer, cross-pointer, pinned-holder), every
/// entangled read, every join-driven unpin and every GC phase that paid for
/// entanglement is attributed to a static *site* — a named program point
/// registered with the MPL_SITE macro — together with the bytes involved and
/// the heap depth at which the entanglement lived.
///
/// This is an *entanglement* profiler: hooks fire only on the slow paths
/// where entanglement is created, serviced, or released. A disentangled
/// execution therefore produces an empty profile by construction — the
/// measurable form of the paper's shielding claim.
///
/// Design constraints, in order (mirroring obs/Trace.h):
///
///  1. Disabled cost ~ zero: every hook is a relaxed atomic load and a
///     predictable not-taken branch. MPL_PROFILE unset/0 means the barrier
///     fast paths are untouched (results/M1_barriers.txt records this).
///  2. Enabled cost is bounded: the recording thread owns a per-worker
///     shard of plain relaxed atomics (no locks on the event path); only
///     pin-lifetime tracking takes a sharded leaf mutex, and only on the
///     already-lock-protected pin/unpin slow paths.
///  3. Shards are merged at quiescence: rt::Runtime::endRun folds every
///     worker shard into the merged table (workers idle outside run()).
///
/// Pin lifetimes: notePin() records the pin instant keyed by object
/// address; noteUnpin() (the join rule) attributes the elapsed lifetime to
/// the site that created the pin. Entries still live at a quiescent point
/// are *leaked pins* — the fuzz suite's SkipUnpin fault shows up here.
///
/// Heap-tree introspection: snapshotHeapTree() returns a JSON dump of the
/// live heap hierarchy (depth, chunk/pinned bytes, children, governor
/// pressure level). The obs layer depends only on support, so the walker
/// itself is registered by rt::Runtime as a provider callback (the same
/// inversion the metrics gauges use); the function is thread-safe and is
/// called from the MetricsSampler thread (metrics JSON embeds a final
/// snapshot) and by the MemoryGovernor on OutOfMemoryError
/// (MPL_OOM_HEAP_TREE=<path>).
///
/// Gating: MPL_PROFILE=1 arms the profiler; any other non-"0" value is an
/// output path to which the merged profile JSON is flushed on Runtime
/// destruction / process exit (see obs::initFromEnv). Tests and benches
/// use Profiler::get().enable() directly.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_OBS_PROFILE_H
#define MPL_OBS_PROFILE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace mpl {
namespace obs {

/// One static program point costs are attributed to. Construct through
/// MPL_SITE, never directly: sites must have static storage duration (the
/// registry keeps raw pointers and per-site slots for the process
/// lifetime). The registry grows in fixed-size blocks on demand up to
/// Profiler::MaxSites (4096); registrations past the hard cap are counted
/// (Profiler::sitesDropped) but not attributed (index -1).
class ProfileSite {
public:
  /// \p Name defaults to "<basename(File)>:<Line>" when null (the
  /// MPL_SITE() spelling with no argument).
  ProfileSite(const char *File, int Line, const char *Name = nullptr);

  const std::string &name() const { return NameStr; }
  const char *file() const { return File; }
  int line() const { return Line; }
  int index() const { return Index; }

private:
  std::string NameStr;
  const char *File;
  int Line;
  int Index;
};

/// Registers (once, on first execution) and yields the enclosing scope's
/// static profile site. MPL_SITE("name") names it; MPL_SITE() defaults to
/// file:line.
#define MPL_SITE(...)                                                          \
  ([]() -> ::mpl::obs::ProfileSite & {                                         \
    static ::mpl::obs::ProfileSite MplSiteObj{                                 \
        __FILE__, __LINE__ __VA_OPT__(, ) __VA_ARGS__};                        \
    return MplSiteObj;                                                         \
  }())

/// Merged per-site profile data at one instant (Profiler::snapshot).
struct ProfileSiteSnap {
  std::string Name;
  std::string File;
  int Line = 0;
  int64_t Events = 0;
  int64_t Bytes = 0;

  /// Events by heap depth of the entanglement; depths >= DepthBuckets-1
  /// clamp into the last bucket.
  static constexpr int DepthBuckets = 16;
  int64_t Depth[DepthBuckets] = {};

  /// Log2-bucketed durations (ns): pin lifetimes for pin sites, phase
  /// pauses for GC sites. Bucket B as in support/Histogram::bucketOf.
  static constexpr int DurBuckets = 48;
  int64_t Dur[DurBuckets] = {};
  int64_t DurCount = 0;
  int64_t DurSumNs = 0;

  /// Coarse duration quantile (bucket upper bound), as in
  /// Histogram::approxQuantile.
  int64_t durQuantileNs(double Q) const;
};

/// Process-wide profiler: site registry, per-worker shards, live-pin table.
class Profiler {
public:
  /// Site storage grows in blocks of BlockSites cells, allocated on first
  /// touch, so per-thread shards stay small for the common few-dozen-site
  /// case while large programs (codegen'd sites, tests) scale to MaxSites
  /// without a rebuild. Cells never move once allocated — recorded indices
  /// and TLS shard pointers stay valid for the process lifetime.
  static constexpr int BlockSites = 64;
  static constexpr int MaxBlocks = 64;
  static constexpr int MaxSites = BlockSites * MaxBlocks; ///< Hard cap: 4096.

  static Profiler &get();

  /// Arms / disarms every hook. Enable is idempotent; disable leaves the
  /// recorded data in place for snapshot()/jsonDump().
  void enable();
  void disable();
  bool enabled() const;

  /// Drops all recorded data (shards, merged table, live-pin table).
  /// Recording threads must be quiescent (outside Runtime::run).
  void reset();

  /// Folds every worker shard into the merged table. Called by
  /// rt::Runtime::endRun at quiescence; cheap no-op when nothing recorded.
  void mergeThreadShards();

  /// mergeThreadShards() + a copy of every site with recorded events,
  /// sorted by attributed bytes (then events) descending.
  std::vector<ProfileSiteSnap> snapshot();

  /// Pins recorded by notePin and not yet released by noteUnpin.
  int64_t livePinCount() const;
  int64_t livePinBytes() const;

  /// Registered sites / registrations refused at the MaxSites hard cap.
  int siteCount() const;
  int64_t sitesDropped() const {
    return SitesDropped.load(std::memory_order_relaxed);
  }

  /// The merged profile as a schema-versioned JSON document.
  std::string jsonDump();

  /// Output path for env-driven flushes ("" = explicit only).
  const std::string &configuredPath() const { return Path; }
  void setConfiguredPath(std::string P) { Path = std::move(P); }

  // Recording slow paths — call through the obs::profile* inline gates.
  void noteEvent(ProfileSite &S, int64_t Bytes, uint32_t Depth,
                 int64_t DurNs = -1);
  void notePin(ProfileSite *S, const void *Obj, int64_t Bytes, uint32_t Depth);
  void noteUnpin(const void *Obj, int64_t Bytes, uint32_t Depth);

  // Internal: site registration (ProfileSite constructor).
  int registerSite(ProfileSite *S);

private:
  Profiler() = default;

  struct SiteCell {
    std::atomic<int64_t> Events{0};
    std::atomic<int64_t> Bytes{0};
    std::atomic<int64_t> Depth[ProfileSiteSnap::DepthBuckets] = {};
    std::atomic<int64_t> Dur[ProfileSiteSnap::DurBuckets] = {};
    std::atomic<int64_t> DurCount{0};
    std::atomic<int64_t> DurSumNs{0};
  };

  /// Block-growable site-cell storage: MaxBlocks lazily-allocated arrays
  /// of BlockSites cells each. Blocks are published with a release CAS and
  /// read with acquire loads, so any thread that learns a site index can
  /// safely reach its cell; blocks are never freed before the table dies.
  struct CellTable {
    std::atomic<SiteCell *> Blocks[MaxBlocks] = {};

    ~CellTable();
    /// The cell for \p Idx, allocating its block on first touch.
    SiteCell *cell(int Idx);
    /// The cell for \p Idx, or null when its block was never allocated
    /// (no recording ever touched it) — for snapshot/merge/reset walks.
    SiteCell *peek(int Idx) const;
  };

  /// One worker/thread's private accumulator. Relaxed atomics so the
  /// quiescent merge is race-free under TSan without locking the hot path
  /// (the owner is the only writer).
  struct Shard {
    CellTable Cells;
  };

  struct PinRec {
    int32_t SiteIdx = -1;
    int64_t TimeNs = 0;
    int64_t Bytes = 0;
  };

  /// The live-pin table, sharded by object address. Bucket mutexes are
  /// leaves: they nest under the heap PinLocks the pin/unpin paths already
  /// hold and never wrap another lock.
  static constexpr int PinShards = 16;
  struct PinBucket {
    mutable std::mutex Mu;
    std::unordered_map<const void *, PinRec> Live;
  };

  static thread_local Shard *TlsShard;

  Shard *threadShard();
  PinBucket &bucketOf(const void *Obj) {
    return PinTable[(reinterpret_cast<uintptr_t>(Obj) >> 4) % PinShards];
  }
  void mergeShardsLocked();

  mutable std::mutex Mu;
  std::vector<ProfileSite *> Sites;          ///< By index; static lifetime.
  std::vector<std::unique_ptr<Shard>> Shards; ///< All threads, ever.
  CellTable Merged;                           ///< Folded at quiescence.
  std::atomic<int64_t> SitesDropped{0};       ///< Registrations past MaxSites.
  PinBucket PinTable[PinShards];
  std::string Path;
};

namespace detail {
extern std::atomic<uint32_t> ProfileActiveFlag;
} // namespace detail

/// The single branch-predictable check every profiling hook compiles to.
inline bool profileEnabled() {
  return detail::ProfileActiveFlag.load(std::memory_order_relaxed) != 0;
}

/// Attributes one event (optionally with a duration) to \p S.
inline void profileEvent(ProfileSite &S, int64_t Bytes, uint32_t Depth,
                         int64_t DurNs = -1) {
  if (profileEnabled()) [[unlikely]]
    Profiler::get().noteEvent(S, Bytes, Depth, DurNs);
}

/// Records a new pin of \p Obj attributed to \p S (null: the generic
/// "hh.pin" site). Starts the pin-lifetime clock.
inline void profilePin(ProfileSite *S, const void *Obj, int64_t Bytes,
                       uint32_t Depth) {
  if (profileEnabled()) [[unlikely]]
    Profiler::get().notePin(S, Obj, Bytes, Depth);
}

/// Records the release of \p Obj's pin; the elapsed lifetime is attributed
/// to the site that created the pin.
inline void profileUnpin(const void *Obj, int64_t Bytes, uint32_t Depth = 0) {
  if (profileEnabled()) [[unlikely]]
    Profiler::get().noteUnpin(Obj, Bytes, Depth);
}

//===----------------------------------------------------------------------===//
// Heap-tree introspection
//===----------------------------------------------------------------------===//

/// Installs the live-heap-tree walker (rt::Runtime's constructor; pass an
/// empty function to uninstall on destruction). The provider must be
/// callable from any thread.
void setHeapTreeProvider(std::function<std::string()> Provider);

/// JSON dump of the live heap hierarchy via the registered provider.
/// Thread-safe (the provider cannot be uninstalled mid-call); returns a
/// valid empty-tree document when no runtime is alive.
std::string snapshotHeapTree();

} // namespace obs
} // namespace mpl

#endif // MPL_OBS_PROFILE_H
