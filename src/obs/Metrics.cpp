//===- obs/Metrics.cpp - Cost-metric time-series sampler ------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "obs/Exposition.h"
#include "obs/Profile.h"
#include "obs/Span.h"
#include "obs/Trace.h"
#include "support/Histogram.h"
#include "support/Json.h"
#include "support/Timer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

using namespace mpl;
using namespace mpl::obs;

MetricsSampler &MetricsSampler::get() {
  static MetricsSampler Instance;
  return Instance;
}

int MetricsSampler::registerGauge(std::string Name,
                                  std::function<int64_t()> Fn) {
  std::lock_guard<std::mutex> G(Mu);
  int Id = NextGaugeId++;
  Gauges.push_back(Gauge{Id, std::move(Name), std::move(Fn)});
  return Id;
}

void MetricsSampler::unregisterGauge(int Id) {
  // Taking Mu also excludes an in-flight sample: after this returns the
  // callback will never run again, so its captures may be destroyed.
  std::lock_guard<std::mutex> G(Mu);
  Gauges.erase(std::remove_if(Gauges.begin(), Gauges.end(),
                              [Id](const Gauge &Ga) { return Ga.Id == Id; }),
               Gauges.end());
}

void MetricsSampler::start(int64_t IntervalUs, std::string P) {
  std::lock_guard<std::mutex> G(Mu);
  if (!P.empty())
    Path = std::move(P);
  if (Running)
    return;
  Running = true;
  StopRequested = false;
  Thread = std::thread([this, IntervalUs] { threadMain(IntervalUs); });
}

void MetricsSampler::stop() {
  {
    std::lock_guard<std::mutex> G(Mu);
    if (!Running)
      return;
    StopRequested = true;
  }
  Cv.notify_all();
  Thread.join();
  std::lock_guard<std::mutex> G(Mu);
  Running = false;
}

bool MetricsSampler::running() const {
  std::lock_guard<std::mutex> G(Mu);
  return Running;
}

void MetricsSampler::threadMain(int64_t IntervalUs) {
  std::unique_lock<std::mutex> L(Mu);
  while (!StopRequested) {
    Cv.wait_for(L, std::chrono::microseconds(IntervalUs),
                [this] { return StopRequested; });
    if (StopRequested)
      break;
    recordSampleLocked();
    // Service a pending MPL_STATS_DUMP request outside Mu: the exposition
    // renderer re-enters gaugeSnapshot(), which takes Mu.
    L.unlock();
    serviceStatsDump();
    L.lock();
  }
}

MetricsSample MetricsSampler::sampleOnce() {
  std::lock_guard<std::mutex> G(Mu);
  return recordSampleLocked();
}

std::vector<std::pair<std::string, int64_t>>
MetricsSampler::gaugeSnapshot() const {
  std::lock_guard<std::mutex> G(Mu);
  std::vector<std::pair<std::string, int64_t>> Out;
  Out.reserve(Gauges.size());
  for (const Gauge &Ga : Gauges)
    Out.emplace_back(Ga.Name, Ga.Fn());
  return Out;
}

MetricsSample MetricsSampler::recordSampleLocked() {
  MetricsSample S;
  S.TimeNs = nowNs();
  S.Em = em::Counts.snapshot();
  S.Gauges.reserve(Gauges.size() + 1);
  for (const Gauge &Ga : Gauges)
    S.Gauges.emplace_back(Ga.Name, Ga.Fn());
  // Trace-ring overflow is a first-class health signal: a sample series
  // with rising drops means the capture window was too small for the
  // workload (tools/trace_check fails on it unless --allow-drops).
  // Tracer::Mu nests under Mu here; the tracer never takes Mu.
  S.Gauges.emplace_back("obs.trace.dropped",
                        static_cast<int64_t>(Tracer::get().totalDropped()));
  // Heap-tree summary: the walk is gauge loads only; keeping just the
  // parsed summary keeps per-sample storage flat. HeapTreeMu nests under
  // Mu here and nowhere takes Mu, so the order is acyclic.
  json::Value Tree;
  std::string Err;
  if (json::parse(snapshotHeapTree(), Tree, Err)) {
    if (const json::Value *Live = Tree.field("live_heaps"))
      S.LiveHeaps = static_cast<int64_t>(Live->NumV);
    if (const json::Value *Heaps = Tree.field("heaps"))
      if (Heaps->isArray())
        for (const json::Value &H : Heaps->Items)
          if (const json::Value *D = H.field("depth")) {
            int64_t Depth = static_cast<int64_t>(D->NumV);
            S.MaxHeapDepth = std::max(S.MaxHeapDepth, Depth);
            if (Depth >= 0) {
              if (S.DepthHist.size() <= static_cast<size_t>(Depth))
                S.DepthHist.resize(static_cast<size_t>(Depth) + 1, 0);
              ++S.DepthHist[static_cast<size_t>(Depth)];
            }
          }
  }
  // Task-depth throughput from the span ledger (atomic loads only; no lock
  // ordering concern — the ledger's Mu is never involved).
  S.TaskDepthHist = SpanLedger::taskDepthHistogram();
  Series.push_back(S);
  return S;
}

std::vector<MetricsSample> MetricsSampler::series() const {
  std::lock_guard<std::mutex> G(Mu);
  return Series;
}

size_t MetricsSampler::sampleCount() const {
  std::lock_guard<std::mutex> G(Mu);
  return Series.size();
}

void MetricsSampler::clearSeries() {
  std::lock_guard<std::mutex> G(Mu);
  Series.clear();
}

namespace {

bool writeFile(const std::string &Path, const std::string &Data) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  size_t Written = std::fwrite(Data.data(), 1, Data.size(), F);
  std::fclose(F);
  return Written == Data.size();
}

} // namespace

void obs::appendEmJson(std::string &Out, const em::CounterSnapshot &E) {
  const char *Sep = "{\"";
  em::forEachExported(E, [&](const char *Key, int64_t V) {
    Out += Sep;
    Out += Key;
    Out += "\":";
    Out += std::to_string(V);
    Sep = ",\"";
  });
  Out += "}";
}

std::string MetricsSampler::jsonDump() const {
  std::vector<MetricsSample> Snap = series();
  std::string Out;
  Out.reserve(256 + Snap.size() * 256);
  char Buf[128];
  Out += "{\"samples\":[\n";
  bool First = true;
  for (const MetricsSample &S : Snap) {
    if (!First)
      Out += ",\n";
    First = false;
    std::snprintf(Buf, sizeof(Buf), "{\"t_ns\":%lld,\"em\":",
                  static_cast<long long>(S.TimeNs));
    Out += Buf;
    appendEmJson(Out, S.Em);
    Out += ",\"gauges\":{";
    bool FirstG = true;
    for (const auto &[Name, V] : S.Gauges) {
      if (!FirstG)
        Out += ",";
      FirstG = false;
      Out += "\"" + json::escape(Name) + "\":";
      std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(V));
      Out += Buf;
    }
    std::snprintf(Buf, sizeof(Buf),
                  "},\"heaps\":{\"live\":%lld,\"max_depth\":%lld,"
                  "\"depth_hist\":[",
                  static_cast<long long>(S.LiveHeaps),
                  static_cast<long long>(S.MaxHeapDepth));
    Out += Buf;
    for (size_t D = 0; D < S.DepthHist.size(); ++D) {
      if (D)
        Out += ",";
      std::snprintf(Buf, sizeof(Buf), "%lld",
                    static_cast<long long>(S.DepthHist[D]));
      Out += Buf;
    }
    Out += "],\"task_depth_hist\":[";
    for (size_t D = 0; D < S.TaskDepthHist.size(); ++D) {
      if (D)
        Out += ",";
      std::snprintf(Buf, sizeof(Buf), "%lld",
                    static_cast<long long>(S.TaskDepthHist[D]));
      Out += Buf;
    }
    Out += "]}}";
  }
  Out += "\n],\"histograms\":[\n";
  bool FirstH = true;
  HistogramRegistry::get().forEach([&](const Histogram &H) {
    if (!FirstH)
      Out += ",\n";
    FirstH = false;
    Out += "{\"name\":\"" + json::escape(H.name()) + "\",";
    Histogram::Percentiles Pct = H.percentiles();
    std::snprintf(Buf, sizeof(Buf),
                  "\"count\":%lld,\"sum\":%lld,"
                  "\"p50\":%lld,\"p95\":%lld,\"p99\":%lld,\"p999\":%lld,",
                  static_cast<long long>(H.count()),
                  static_cast<long long>(H.sum()),
                  static_cast<long long>(Pct.P50),
                  static_cast<long long>(Pct.P95),
                  static_cast<long long>(Pct.P99),
                  static_cast<long long>(Pct.P999));
    Out += Buf;
    Out += "\"buckets\":[";
    bool FirstB = true;
    for (int B = 0; B < Histogram::NumBuckets; ++B) {
      int64_t C = H.bucketCount(B);
      if (C == 0)
        continue;
      if (!FirstB)
        Out += ",";
      FirstB = false;
      std::snprintf(Buf, sizeof(Buf), "{\"lo\":%lld,\"n\":%lld}",
                    static_cast<long long>(Histogram::bucketLo(B)),
                    static_cast<long long>(C));
      Out += Buf;
    }
    Out += "]}";
  });
  // A final live-heap-tree snapshot (empty when no runtime is alive); the
  // sampler thread may also take these mid-run via obs::snapshotHeapTree.
  Out += "\n],\"heap_tree\":";
  Out += snapshotHeapTree();
  Out += "}\n";
  return Out;
}

bool MetricsSampler::writeJson(const std::string &P) const {
  return writeFile(P, jsonDump());
}

bool MetricsSampler::writeCsv(const std::string &P) const {
  std::vector<MetricsSample> Snap = series();

  // Union of gauge columns, in first-seen order (the gauge set can change
  // mid-run as runtimes come and go).
  std::vector<std::string> GaugeCols;
  for (const MetricsSample &S : Snap)
    for (const auto &[Name, V] : S.Gauges)
      if (std::find(GaugeCols.begin(), GaugeCols.end(), Name) ==
          GaugeCols.end())
        GaugeCols.push_back(Name);

  // Depth-histogram columns: one per depth seen anywhere in the series
  // (short samples pad with zeros), mirroring the gauge-union policy.
  size_t DepthCols = 0;
  size_t TaskDepthCols = 0;
  for (const MetricsSample &S : Snap) {
    DepthCols = std::max(DepthCols, S.DepthHist.size());
    TaskDepthCols = std::max(TaskDepthCols, S.TaskDepthHist.size());
  }

  std::string Out = "t_ns";
  em::forEachExported(em::CounterSnapshot{}, [&](const char *Key, int64_t) {
    Out += ",";
    Out += Key;
  });
  Out += ",live_heaps,max_heap_depth";
  for (size_t D = 0; D < DepthCols; ++D)
    Out += ",heaps_d" + std::to_string(D);
  for (size_t D = 0; D < TaskDepthCols; ++D)
    Out += ",tasks_d" + std::to_string(D);
  for (const std::string &C : GaugeCols)
    Out += "," + C;
  Out += "\n";
  char Buf[64];
  for (const MetricsSample &S : Snap) {
    Out += std::to_string(S.TimeNs);
    em::forEachExported(S.Em, [&](const char *, int64_t V) {
      Out += ",";
      Out += std::to_string(V);
    });
    std::snprintf(Buf, sizeof(Buf), ",%lld,%lld",
                  static_cast<long long>(S.LiveHeaps),
                  static_cast<long long>(S.MaxHeapDepth));
    Out += Buf;
    for (size_t D = 0; D < DepthCols; ++D) {
      int64_t N = D < S.DepthHist.size() ? S.DepthHist[D] : 0;
      std::snprintf(Buf, sizeof(Buf), ",%lld", static_cast<long long>(N));
      Out += Buf;
    }
    for (size_t D = 0; D < TaskDepthCols; ++D) {
      int64_t N = D < S.TaskDepthHist.size() ? S.TaskDepthHist[D] : 0;
      std::snprintf(Buf, sizeof(Buf), ",%lld", static_cast<long long>(N));
      Out += Buf;
    }
    for (const std::string &C : GaugeCols) {
      Out += ",";
      for (const auto &[Name, V] : S.Gauges)
        if (Name == C) {
          std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(V));
          Out += Buf;
          break;
        }
    }
    Out += "\n";
  }

  // Histogram summary block (blank-line separated so the time-series part
  // stays directly loadable); same percentile semantics as the JSON dump.
  Out += "\nhistogram,count,sum,p50,p95,p99,p999\n";
  HistogramRegistry::get().forEach([&](const Histogram &H) {
    int64_t N = H.count();
    if (N == 0)
      return;
    Histogram::Percentiles Pct = H.percentiles();
    char HBuf[256];
    std::snprintf(HBuf, sizeof(HBuf), "%s,%lld,%lld,%lld,%lld,%lld,%lld\n",
                  H.name(), static_cast<long long>(N),
                  static_cast<long long>(H.sum()),
                  static_cast<long long>(Pct.P50),
                  static_cast<long long>(Pct.P95),
                  static_cast<long long>(Pct.P99),
                  static_cast<long long>(Pct.P999));
    Out += HBuf;
  });
  return writeFile(P, Out);
}

bool MetricsSampler::writeAuto(const std::string &P) const {
  if (P.size() >= 4 && P.compare(P.size() - 4, 4, ".csv") == 0)
    return writeCsv(P);
  return writeJson(P);
}
