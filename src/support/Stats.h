//===- support/Stats.h - Named atomic counters -----------------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A registry of named atomic counters. The entanglement-management paper
/// defines cost metrics (entangled reads, pinned objects, pinned bytes,
/// unpin events); the runtime reports them through this registry so tests
/// and benches can assert on them.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_SUPPORT_STATS_H
#define MPL_SUPPORT_STATS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace mpl {

/// A single named statistic. Instances register themselves in StatRegistry
/// on construction and unregister on destruction, so both static-duration
/// counters and dynamically constructed ones (e.g. created from worker
/// threads) are safe.
///
/// The value is split over Shards cache-line-sized cells. add() writes the
/// cell of the calling thread's slot (assigned round-robin on a thread's
/// first add), so workers bumping the same counter — the entanglement
/// barriers count every pin and entangled read — do not bounce one cache
/// line between cores. get() sums the cells: exact at quiescent points, a
/// relaxed approximation otherwise.
/// noteMax() keeps its high-water mark in the first cell alone, so a Stat
/// is used either as a counter or as a high-water mark, not both.
class Stat {
public:
  /// Cells per Stat; more than the workers of a typical box, so concurrent
  /// workers land on distinct cells.
  static constexpr unsigned Shards = 16;

  explicit Stat(const char *Name);
  ~Stat();

  Stat(const Stat &) = delete;
  Stat &operator=(const Stat &) = delete;

  void add(int64_t Delta) {
    Cells[threadSlot()].V.fetch_add(Delta, std::memory_order_relaxed);
  }
  void inc() { add(1); }

  /// Records a high-water mark: keeps the maximum of all observed values.
  void noteMax(int64_t Observed) {
    std::atomic<int64_t> &V = Cells[0].V;
    int64_t Cur = V.load(std::memory_order_relaxed);
    while (Observed > Cur &&
           !V.compare_exchange_weak(Cur, Observed, std::memory_order_relaxed))
      ;
  }

  int64_t get() const {
    int64_t Sum = 0;
    for (const Cell &C : Cells)
      Sum += C.V.load(std::memory_order_relaxed);
    return Sum;
  }
  /// Sets the value (zero in the usual case): the first cell takes \p V and
  /// every other cell is zeroed.
  void set(int64_t V) {
    Cells[0].V.store(V, std::memory_order_relaxed);
    for (unsigned I = 1; I < Shards; ++I)
      Cells[I].V.store(0, std::memory_order_relaxed);
  }
  const char *name() const { return StatName; }

private:
  struct alignas(64) Cell {
    std::atomic<int64_t> V{0};
  };

  /// The calling thread's cell index, assigned on its first add.
  static unsigned threadSlot() {
    if (Slot < 0) [[unlikely]]
      Slot = static_cast<int>(nextSlot());
    return static_cast<unsigned>(Slot);
  }
  static unsigned nextSlot();
  static inline constinit thread_local int Slot = -1;

  Cell Cells[Shards];
  const char *StatName;
};

/// Global registry of all statistics; used to reset between benchmark runs
/// and to dump a report. Thread-safe: registration, unregistration and
/// iteration all take the registry lock (Stats may be constructed from
/// worker threads while another thread reads a report).
class StatRegistry {
public:
  static StatRegistry &get();

  void registerStat(Stat *S);
  void unregisterStat(Stat *S);
  void resetAll();

  /// Returns the current value of the statistic named \p Name, or 0 when no
  /// such statistic exists. Live instances only — retired totals are not
  /// included, so per-component code can probe whether an owner is alive.
  int64_t valueOf(const std::string &Name) const;

  /// One (name, total) pair per distinct name, sorted, under the registry
  /// lock. Totals sum every live instance plus the final values of retired
  /// ones: counters are process-lifetime monotone, so a component tearing
  /// down (e.g. a net::Server unregistering its net.* Stats) must not make
  /// its events vanish from exports flushed later (trace counters block,
  /// Prometheus exposition, MPL_STATS_DUMP at exit).
  std::vector<std::pair<std::string, int64_t>> snapshotAll() const;

  /// Renders "name = value" lines for all non-zero statistics.
  std::string report() const;

private:
  mutable std::mutex Lock;
  std::vector<Stat *> Stats;
  /// Final values of destroyed Stats, keyed by name; folded into
  /// snapshotAll() and cleared by resetAll().
  std::map<std::string, int64_t> Retired;
};

} // namespace mpl

#endif // MPL_SUPPORT_STATS_H
