//===- obs/Metrics.h - Cost-metric time-series sampler ---------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics half of the observability layer: a background thread that
/// periodically snapshots the paper's cost metrics into an in-memory time
/// series. Each sample carries:
///
///  - the full em::CounterSnapshot (entangled reads, pins by kind,
///    cumulative and *live* pinned bytes/objects — the paper's space cost);
///  - every registered gauge. Gauges are callbacks the layers above
///    register (obs depends only on support, so it cannot reach into the
///    scheduler or the chunk pool itself): the scheduler registers one
///    deque-depth gauge per worker, the runtime registers chunk-pool
///    residency and heap count;
///  - a live-heap-tree summary (live heap count + deepest live depth)
///    parsed from obs::snapshotHeapTree(), so the series shows the heap
///    hierarchy growing and collapsing across forks and joins.
///
/// Exported as a JSON document ({"samples": [...], "histograms": [...]})
/// or CSV (one row per sample, union of gauge columns). Gated by
/// MPL_METRICS=<path> (+ MPL_METRICS_INTERVAL_US, default 1000); tests and
/// benches drive sampleOnce()/start() directly.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_OBS_METRICS_H
#define MPL_OBS_METRICS_H

#include "support/EmCounters.h"

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace mpl {
namespace obs {

/// One point of the cost-metric time series.
struct MetricsSample {
  int64_t TimeNs = 0;           ///< Steady-clock timestamp.
  em::CounterSnapshot Em;       ///< All entanglement cost counters.
  /// Registered gauges, sampled in registration order.
  std::vector<std::pair<std::string, int64_t>> Gauges;
  /// Live-heap-tree summary at the sample instant, parsed from
  /// obs::snapshotHeapTree(): how many heaps are live and the deepest
  /// live depth (0 / -1 when no runtime is alive).
  int64_t LiveHeaps = 0;
  int64_t MaxHeapDepth = -1;
  /// Live heaps per depth: DepthHist[d] heaps at depth d (empty when no
  /// runtime is alive). Sums to LiveHeaps; shows the *shape* of the task
  /// tree over time, not just its height — a wide fork fan-out and one
  /// deep spine have the same MaxHeapDepth but very different histograms.
  std::vector<int64_t> DepthHist;
  /// Cumulative finished tasks per heap depth, snapshotted from the span
  /// ledger (SpanLedger::taskDepthHistogram). Where DepthHist is the live
  /// tree *shape* at the sample instant, this is the *throughput* by depth:
  /// per-sample deltas show which tree levels completed work in the
  /// interval. Empty until the span ledger has been armed.
  std::vector<int64_t> TaskDepthHist;
};

/// Appends \p E as one JSON object keyed by the em counter table
/// (em::forEachExported): the metrics series' and the stats frame's "em".
void appendEmJson(std::string &Out, const em::CounterSnapshot &E);

/// Process-wide sampler. Start()/stop() manage the background thread;
/// sampleOnce() records a point synchronously (used by the thread, tests,
/// and end-of-run flushes).
class MetricsSampler {
public:
  static MetricsSampler &get();

  /// Registers a named gauge; returns an id for unregisterGauge. The
  /// callback runs on the sampler thread and must be safe for the object's
  /// lifetime — unregister before destroying what it reads (unregister
  /// blocks out a concurrent sample).
  int registerGauge(std::string Name, std::function<int64_t()> Fn);
  void unregisterGauge(int Id);

  /// Starts the background thread sampling every \p IntervalUs. \p Path is
  /// remembered for env-driven flushes ("" = explicit writes only).
  /// No-op when already running (the path/interval are kept).
  void start(int64_t IntervalUs, std::string Path = "");

  /// Stops and joins the background thread (idempotent).
  void stop();

  bool running() const;

  /// Takes one sample now and appends it to the series.
  MetricsSample sampleOnce();

  /// Runs every registered gauge callback once and returns the (name,
  /// value) pairs, without appending to the series — the exposition
  /// renderer's read path (obs/Exposition.cpp).
  std::vector<std::pair<std::string, int64_t>> gaugeSnapshot() const;

  /// Copy of the series so far.
  std::vector<MetricsSample> series() const;
  size_t sampleCount() const;
  void clearSeries();

  /// Writers. writeAuto dispatches on the extension (.csv → CSV, else
  /// JSON). All return false on I/O failure.
  bool writeJson(const std::string &Path) const;
  bool writeCsv(const std::string &Path) const;
  bool writeAuto(const std::string &Path) const;

  /// The whole series (plus every support/Histogram) as a JSON document.
  std::string jsonDump() const;

  const std::string &configuredPath() const { return Path; }

private:
  void threadMain(int64_t IntervalUs);
  MetricsSample recordSampleLocked();

  mutable std::mutex Mu;
  std::condition_variable Cv;
  std::vector<MetricsSample> Series;
  struct Gauge {
    int Id;
    std::string Name;
    std::function<int64_t()> Fn;
  };
  std::vector<Gauge> Gauges;
  int NextGaugeId = 1;
  std::thread Thread;
  bool Running = false;
  bool StopRequested = false;
  std::string Path;
};

} // namespace obs
} // namespace mpl

#endif // MPL_OBS_METRICS_H
