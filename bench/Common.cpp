//===- bench/Common.cpp - Shared benchmark harness --------------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"

#include "obs/Metrics.h"
#include "obs/Profile.h"
#include "obs/Span.h"
#include "obs/Trace.h"
#include "support/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

using namespace mpl;
using namespace mpl::ops;

namespace mpl {
namespace bench {

namespace {
int64_t scaled(double Scale, int64_t N) {
  return std::max<int64_t>(1024, static_cast<int64_t>(N * Scale));
}
} // namespace

std::vector<SuiteEntry> makeSuite(double Scale) {
  std::vector<SuiteEntry> Suite;

  const int64_t NTab = scaled(Scale, 20'000'000);
  const int64_t NScan = scaled(Scale, 8'000'000);
  const int64_t NSort = scaled(Scale, 2'000'000);
  const int64_t NQSort = scaled(Scale, 1'000'000);
  const int64_t NPrimes = scaled(Scale, 8'000'000);
  const int64_t NText = scaled(Scale, 30'000'000);
  const int64_t NHist = scaled(Scale, 15'000'000);
  const int64_t NGraph = scaled(Scale, 500'000);
  const int64_t NDedup = scaled(Scale, 1'000'000);
  const int64_t NChan = scaled(Scale, 150'000);
  const int64_t NExch = scaled(Scale, 200'000);
  const int64_t FibN = Scale >= 1.0 ? 33 : (Scale >= 0.25 ? 30 : 26);

  Suite.push_back({"fib", false, [=](bool Seq) {
                     return wl::fib(FibN, Seq ? FibN : 18);
                   }});

  Suite.push_back({"tabulate", false, [=](bool Seq) {
                     Local A(wl::tabulate(
                         NTab,
                         [](int64_t I) {
                           return boxInt(static_cast<int64_t>(hash64(
                               static_cast<uint64_t>(I))));
                         },
                         Seq ? NTab : wl::DefaultGrain));
                     return static_cast<int64_t>(arrLen(A.get()));
                   }});

  Suite.push_back({"map-reduce", false, [=](bool Seq) {
                     int64_t Grain = Seq ? NTab : wl::DefaultGrain;
                     Local A(wl::tabulate(
                         NTab, [](int64_t I) { return boxInt(I & 0xff); },
                         Grain));
                     return wl::sumInts(A.get(), Grain);
                   }});

  Suite.push_back({"scan", false, [=](bool Seq) {
                     int64_t Grain = Seq ? NScan : wl::DefaultGrain;
                     Local A(wl::tabulate(
                         NScan, [](int64_t I) { return boxInt(I & 0xf); },
                         Grain));
                     Local S(wl::scanPlus(A.get(), Grain));
                     return unboxInt(recGet(S.get(), 1));
                   }});

  Suite.push_back({"filter", false, [=](bool Seq) {
                     int64_t Grain = Seq ? NScan : wl::DefaultGrain;
                     Local A(wl::tabulate(
                         NScan,
                         [](int64_t I) {
                           return boxInt(static_cast<int64_t>(
                               hash64(static_cast<uint64_t>(I)) & 0xffff));
                         },
                         Grain));
                     Local F(wl::filterInts(
                         A.get(), [](int64_t V) { return V % 3 == 0; },
                         Grain));
                     return static_cast<int64_t>(arrLen(F.get()));
                   }});

  Suite.push_back({"msort", false, [=](bool Seq) {
                     Local A(wl::randomInts(NSort, int64_t(1) << 40, 42));
                     Local S(wl::mergesortInts(A.get(), 4096,
                                               /*Parallel=*/!Seq));
                     MPL_CHECK(wl::isSortedInts(S.get()), "msort broken");
                     return unboxInt(arrGet(S.get(), 0));
                   }});

  Suite.push_back({"quicksort", false, [=](bool Seq) {
                     Local A(wl::randomInts(NQSort, int64_t(1) << 40, 7));
                     Local S(wl::quicksortInts(A.get(), 8192,
                                               /*Parallel=*/!Seq));
                     MPL_CHECK(wl::isSortedInts(S.get()), "qsort broken");
                     return unboxInt(arrGet(S.get(), 0));
                   }});

  Suite.push_back({"nqueens", false, [=](bool Seq) {
                     return wl::nqueens(11, /*Parallel=*/!Seq);
                   }});

  Suite.push_back({"primes", false, [=](bool Seq) {
                     Local P(wl::primesUpTo(NPrimes,
                                            Seq ? NPrimes + 2 : 8192));
                     return static_cast<int64_t>(arrLen(P.get()));
                   }});

  Suite.push_back({"tokens", false, [=](bool Seq) {
                     Local T(wl::randomText(NText, 3));
                     return wl::tokens(T.get(), Seq ? NText : 8192);
                   }});

  Suite.push_back({"histogram", false, [=](bool Seq) {
                     int64_t Grain = Seq ? NHist : wl::DefaultGrain;
                     Local A(wl::randomInts(NHist, 256, 5));
                     Local H(wl::histogram(A.get(), 256, Grain));
                     return unboxInt(arrGet(H.get(), 0));
                   }});

  Suite.push_back({"bfs", false, [=](bool Seq) {
                     Local G(wl::buildRandomGraph(NGraph, 4, 11));
                     Local P(wl::bfs(G.get(), 0,
                                     Seq ? NGraph : 64));
                     return wl::countReached(P.get());
                   }});

  const int64_t NHull = scaled(Scale, 1'000'000);
  Suite.push_back({"quickhull", false, [=](bool Seq) {
                     Local P(wl::randomPoints(NHull, 31));
                     return wl::quickhullCount(P.get(),
                                               Seq ? NHull + 1 : 4096);
                   }});

  // Entangled benchmarks: tasks communicate through effects. These are
  // the programs this paper newly supports.
  Suite.push_back({"dedup-ht", true, [=](bool Seq) {
                     Local K(wl::randomInts(NDedup, NDedup / 4, 23));
                     return wl::dedup(K.get(), Seq ? NDedup : 512);
                   }});

  Suite.push_back({"channel", true, [=](bool Seq) {
                     (void)Seq; // Two tasks by construction.
                     return wl::channelPipeline(NChan);
                   }});

  Suite.push_back({"exchange", true, [=](bool Seq) {
                     (void)Seq;
                     return wl::exchange(NExch);
                   }});

  return Suite;
}

StatSnap StatSnap::read() {
  StatRegistry &Reg = StatRegistry::get();
  StatSnap S;
  S.Em = em::Counts.snapshot();
  S.JitCompiled = Reg.valueOf("pml.jit.compiled");
  S.JitEntries = Reg.valueOf("pml.jit.entries");
  S.JitCodeBytes = Reg.valueOf("pml.jit.code_bytes");
  S.GcCount = Reg.valueOf("gc.collections");
  S.GcMaxPauseNs = Reg.valueOf("gc.pause.max.ns");
  S.GcTotalPauseNs = Reg.valueOf("gc.pause.ns");
  S.GcInPlaceBytes = Reg.valueOf("gc.bytes.inplace");
  S.PeakResidency = Reg.valueOf("mm.bytes.peak");
  return S;
}

namespace {
/// MPL_TRACE_DIR / MPL_METRICS_DIR: after the timed repetitions, run one
/// extra instrumented repetition and write <dir>/<name>.trace.json and/or
/// <dir>/<name>.metrics.json. Kept out of the timed reps so the published
/// numbers are never measured with the tracer armed.
void dumpObservability(const SuiteEntry &Entry, bool Sequential,
                       const rt::Config &Cfg) {
  const char *TraceDir = std::getenv("MPL_TRACE_DIR");
  const char *MetricsDir = std::getenv("MPL_METRICS_DIR");
  if (!TraceDir && !MetricsDir)
    return;
  auto &Tr = obs::Tracer::get();
  auto &Ms = obs::MetricsSampler::get();
  Tr.clear();
  Ms.clearSeries();
  if (TraceDir)
    Tr.enable(obs::TraceOptions{});
  bool StartedSampler = false;
  if (MetricsDir && !Ms.running()) {
    Ms.start(/*IntervalUs=*/1000);
    StartedSampler = true;
  }
  {
    rt::Runtime R(Cfg);
    R.run([&] { (void)Entry.Run(Sequential); });
    // A run shorter than one sampling interval would leave the series
    // empty; take a final sample while the runtime's gauges are live.
    if (MetricsDir)
      Ms.sampleOnce();
  }
  if (StartedSampler)
    Ms.stop();
  if (TraceDir) {
    Tr.disable();
    Tr.writeChromeTrace(std::string(TraceDir) + "/" + Entry.Name +
                        ".trace.json");
    Tr.clear();
  }
  if (MetricsDir)
    Ms.writeJson(std::string(MetricsDir) + "/" + Entry.Name +
                 ".metrics.json");
}
} // namespace

namespace {
/// Per-rep capture so the reported row is one internally consistent rep.
struct RepData {
  double Seconds = 0;
  WorkSpan WS;
  StatSnap Stats;
  std::vector<ProfileSiteRow> Sites;
  int64_t LeakedPins = 0;
  int64_t LeakedBytes = 0;
};

std::vector<ProfileSiteRow> snapshotProfileRows() {
  std::vector<ProfileSiteRow> Rows;
  for (const obs::ProfileSiteSnap &S : obs::Profiler::get().snapshot()) {
    ProfileSiteRow R;
    R.Name = S.Name;
    R.Events = S.Events;
    R.Bytes = S.Bytes;
    R.LifetimeP50Ns = S.durQuantileNs(0.50);
    R.LifetimeP99Ns = S.durQuantileNs(0.99);
    Rows.push_back(std::move(R));
  }
  return Rows;
}
} // namespace

int64_t RunResult::profilePinnedBytes() const {
  int64_t N = 0;
  for (const ProfileSiteRow &S : ProfileSites)
    if (S.Name.rfind("em.pin.", 0) == 0 || S.Name == "hh.pin")
      N += S.Bytes;
  return N;
}

RunResult measure(const SuiteEntry &Entry, bool Sequential, int Workers,
                  em::Mode Mode, bool Profile, int Reps, bool SiteProfile,
                  bool Spans) {
  rt::Config Cfg;
  Cfg.NumWorkers = Workers;
  Cfg.Mode = Mode;
  Cfg.Profile = Profile;
  // Honour an env-armed profiler (MPL_PROFILE) even when the caller did
  // not ask, so any bench binary can be site-profiled ad hoc.
  bool ProfWasEnabled = obs::profileEnabled();
  bool Prof = SiteProfile || ProfWasEnabled;

  std::vector<RepData> Data;
  int64_t Checksum = 0;
  // Rep -1 is an untimed warmup: it populates the chunk pool and faults in
  // the pages, so later configurations are not advantaged by reuse.
  for (int Rep = -1; Rep < Reps; ++Rep) {
    if (Prof) {
      // Reset per rep so the captured profile belongs to exactly one rep
      // (pin bytes can differ across reps under real parallelism).
      obs::Profiler::get().reset();
      obs::Profiler::get().enable();
    }
    rt::Runtime R(Cfg);
    StatRegistry::get().resetAll();
    int64_t RepChecksum = 0;
    Timer T;
    WorkSpan WS = R.run([&] { RepChecksum = Entry.Run(Sequential); });
    double Sec = T.elapsedSec();
    if (Rep < 0)
      continue; // Warmup: discard.
    if (Rep > 0 && Checksum != RepChecksum)
      MPL_CHECK(false, "benchmark checksum varies across repetitions");
    Checksum = RepChecksum;
    RepData D;
    D.Seconds = Sec;
    D.WS = WS;
    D.Stats = StatSnap::read();
    if (Prof) {
      D.Sites = snapshotProfileRows();
      D.LeakedPins = obs::Profiler::get().livePinCount();
      D.LeakedBytes = obs::Profiler::get().livePinBytes();
    }
    Data.push_back(std::move(D));
  }
  if (Prof && !ProfWasEnabled)
    obs::Profiler::get().disable();

  // Lower median: index (N-1)/2 of the sorted times — always a measured
  // rep, so every reported field comes from the same execution.
  std::vector<int> Order(Data.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::sort(Order.begin(), Order.end(), [&](int A, int B) {
    return Data[A].Seconds < Data[B].Seconds;
  });
  const RepData &Med = Data[Order[(Data.size() - 1) / 2]];

  RunResult Out;
  Out.Seconds = Med.Seconds;
  Out.MinSeconds = Data[Order.front()].Seconds;
  Out.WS = Med.WS;
  Out.Stats = Med.Stats;
  Out.Checksum = Checksum;
  Out.ProfileSites = Med.Sites;
  Out.ProfileLeakedPins = Med.LeakedPins;
  Out.ProfileLeakedBytes = Med.LeakedBytes;
  for (const RepData &D : Data)
    Out.RepSeconds.push_back(D.Seconds);
  if (Data.size() > 1) {
    double Mean = 0;
    for (double S : Out.RepSeconds)
      Mean += S;
    Mean /= static_cast<double>(Out.RepSeconds.size());
    double Var = 0;
    for (double S : Out.RepSeconds)
      Var += (S - Mean) * (S - Mean);
    Out.StddevSeconds =
        std::sqrt(Var / static_cast<double>(Out.RepSeconds.size() - 1));
  }

  if (Spans) {
    // One extra untimed rep with the span ledger armed, mirroring the
    // dumpObservability pattern: the ledger's per-task bookkeeping never
    // contaminates the timed reps, and the DAG belongs to exactly one run.
    auto &Ledger = obs::SpanLedger::get();
    bool WasEnabled = Ledger.enabled();
    Ledger.enable();
    {
      rt::Runtime R(Cfg);
      R.run([&] { (void)Entry.Run(Sequential); });
    }
    if (!WasEnabled)
      Ledger.disable();
    obs::SpanRunSummary Sum = Ledger.lastRun();
    Out.Spans.Valid = Sum.Valid;
    Out.Spans.Tasks = Sum.Tasks;
    Out.Spans.Stolen = Sum.Stolen;
    Out.Spans.WorkSec = Sum.LedgerWorkSec;
    Out.Spans.CriticalPathSec = Sum.CriticalPathSec;
    Out.Spans.AgreementPct = Sum.agreementPct();
  }

  dumpObservability(Entry, Sequential, Cfg);
  return Out;
}

std::string methodologyLine(int Reps) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "methodology: lower median of %d timed rep%s "
                "(1 untimed warmup rep discarded); spread as +-stddev, "
                "full per-rep times in -json output",
                Reps, Reps == 1 ? "" : "s");
  return Buf;
}

std::string fmtSecPm(double MedianSec, double StddevSec) {
  std::string S = Table::fmtSec(MedianSec);
  if (StddevSec > 0) {
    char Buf[48];
    std::snprintf(Buf, sizeof(Buf), "+-%.0f%%",
                  100.0 * StddevSec / std::max(MedianSec, 1e-12));
    S += Buf;
  }
  return S;
}

//===----------------------------------------------------------------------===//
// BenchJson
//===----------------------------------------------------------------------===//

BenchJson::BenchJson(std::string BenchId, double Scale, int Reps) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "\"schema\":\"mpl-bench/1\",\"bench\":\"%s\","
                "\"scale\":%g,\"reps\":%d,\"warmup_reps\":1,"
                "\"statistic\":\"median_lower\"",
                json::escape(BenchId).c_str(), Scale, Reps);
  Header = Buf;
}

void BenchJson::addMeta(const std::string &Key, const std::string &Value) {
  Header += ",\"" + json::escape(Key) + "\":\"" + json::escape(Value) + "\"";
}

void BenchJson::addMetaInt(const std::string &Key, int64_t Value) {
  Header += ",\"" + json::escape(Key) + "\":" + std::to_string(Value);
}

namespace {
std::string jsonDouble(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}
} // namespace

void BenchJson::addRow(const std::string &Name, const std::string &Config,
                       bool Entangled, const RunResult &R) {
  std::string S;
  S += "{\"name\":\"" + json::escape(Name) + "\",";
  S += "\"config\":\"" + json::escape(Config) + "\",";
  S += std::string("\"entangled\":") + (Entangled ? "true" : "false") + ",";
  S += "\"time\":{\"median_s\":" + jsonDouble(R.Seconds) +
       ",\"min_s\":" + jsonDouble(R.MinSeconds) +
       ",\"stddev_s\":" + jsonDouble(R.StddevSeconds) + ",\"rep_s\":[";
  for (size_t I = 0; I < R.RepSeconds.size(); ++I) {
    if (I)
      S += ",";
    S += jsonDouble(R.RepSeconds[I]);
  }
  S += "]},";
  S += "\"work_span\":{\"work_s\":" + jsonDouble(R.WS.WorkSec) +
       ",\"span_s\":" + jsonDouble(R.WS.SpanSec) + "},";
  const StatSnap &St = R.Stats;
  // The mpl-bench/1 "em" block (read back by tools/GateLib.cpp).
  const em::CounterSnapshot &E = St.Em;
  S += "\"em\":{\"entangled_reads\":" + std::to_string(E.EntangledReads) +
       ",\"pins_down\":" + std::to_string(E.DownPointerPins) +
       ",\"pins_cross\":" + std::to_string(E.CrossPointerPins) +
       ",\"pins_holder\":" + std::to_string(E.PinnedHolderPins) +
       ",\"pinned_objects\":" + std::to_string(E.PinnedObjects) +
       ",\"pinned_bytes\":" + std::to_string(E.PinnedBytes) +
       ",\"unpins\":" + std::to_string(E.UnpinnedObjects) +
       ",\"cont_captured\":" + std::to_string(E.ContCaptured) +
       ",\"cont_resumed\":" + std::to_string(E.ContResumed) + "},";
  // Additive like "spans": only rows that actually ran the JIT tier carry
  // the block, so existing baselines keep parsing unchanged.
  if (St.JitCompiled > 0)
    S += "\"jit\":{\"compiled\":" + std::to_string(St.JitCompiled) +
         ",\"entries\":" + std::to_string(St.JitEntries) +
         ",\"code_bytes\":" + std::to_string(St.JitCodeBytes) + "},";
  S += "\"gc\":{\"collections\":" + std::to_string(St.GcCount) +
       ",\"max_pause_ns\":" + std::to_string(St.GcMaxPauseNs) +
       ",\"total_pause_ns\":" + std::to_string(St.GcTotalPauseNs) +
       ",\"inplace_bytes\":" + std::to_string(St.GcInPlaceBytes) + "},";
  S += "\"max_residency_bytes\":" + std::to_string(St.PeakResidency) + ",";
  S += "\"checksum\":" + std::to_string(R.Checksum) + ",";
  // Additive: rows measured without Spans carry no block, so existing
  // baselines keep parsing and the gate's join is unaffected.
  if (R.Spans.Valid)
    S += "\"spans\":{\"tasks\":" + std::to_string(R.Spans.Tasks) +
         ",\"stolen\":" + std::to_string(R.Spans.Stolen) +
         ",\"work_s\":" + jsonDouble(R.Spans.WorkSec) +
         ",\"critical_path_s\":" + jsonDouble(R.Spans.CriticalPathSec) +
         ",\"agreement_pct\":" + jsonDouble(R.Spans.AgreementPct) + "},";
  S += "\"profile\":{\"leaked_pins\":" + std::to_string(R.ProfileLeakedPins) +
       ",\"leaked_bytes\":" + std::to_string(R.ProfileLeakedBytes) +
       ",\"pin_bytes_attributed\":" + std::to_string(R.profilePinnedBytes()) +
       ",\"sites\":[";
  for (size_t I = 0; I < R.ProfileSites.size(); ++I) {
    const ProfileSiteRow &P = R.ProfileSites[I];
    if (I)
      S += ",";
    S += "{\"name\":\"" + json::escape(P.Name) + "\",\"events\":" +
         std::to_string(P.Events) + ",\"bytes\":" + std::to_string(P.Bytes) +
         ",\"lifetime_p50_ns\":" + std::to_string(P.LifetimeP50Ns) +
         ",\"lifetime_p99_ns\":" + std::to_string(P.LifetimeP99Ns) + "}";
  }
  S += "]}}";
  Rows.push_back(std::move(S));
}

void BenchJson::addCustomRow(const std::string &Name,
                             const std::string &Config, double MedianSec,
                             const std::string &ExtraJson) {
  std::string S;
  S += "{\"name\":\"" + json::escape(Name) + "\",";
  S += "\"config\":\"" + json::escape(Config) + "\",";
  S += "\"time\":{\"median_s\":" + jsonDouble(MedianSec) + "}";
  if (!ExtraJson.empty())
    S += "," + ExtraJson;
  S += "}";
  Rows.push_back(std::move(S));
}

void BenchJson::addCustomRow(const std::string &Name,
                             const std::string &Config, double MedianSec,
                             const std::vector<double> &RepSeconds,
                             const std::string &ExtraJson) {
  double Mean = 0;
  for (double R : RepSeconds)
    Mean += R;
  Mean /= std::max<size_t>(RepSeconds.size(), 1);
  double Var = 0;
  for (double R : RepSeconds)
    Var += (R - Mean) * (R - Mean);
  double Stddev = RepSeconds.size() > 1
                      ? std::sqrt(Var / static_cast<double>(RepSeconds.size() - 1))
                      : 0;
  std::string S;
  S += "{\"name\":\"" + json::escape(Name) + "\",";
  S += "\"config\":\"" + json::escape(Config) + "\",";
  S += "\"time\":{\"median_s\":" + jsonDouble(MedianSec) +
       ",\"stddev_s\":" + jsonDouble(Stddev) + ",\"rep_s\":[";
  for (size_t I = 0; I < RepSeconds.size(); ++I) {
    if (I)
      S += ",";
    S += jsonDouble(RepSeconds[I]);
  }
  S += "]}";
  if (!ExtraJson.empty())
    S += "," + ExtraJson;
  S += "}";
  Rows.push_back(std::move(S));
}

std::string BenchJson::dump() const {
  std::string S = "{" + Header + ",\"rows\":[\n";
  for (size_t I = 0; I < Rows.size(); ++I) {
    if (I)
      S += ",\n";
    S += Rows[I];
  }
  S += "\n]}\n";
  return S;
}

bool BenchJson::write(const std::string &Path) const {
  std::string S = dump();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "bench: cannot open -json path '%s'\n", Path.c_str());
    return false;
  }
  size_t W = std::fwrite(S.data(), 1, S.size(), F);
  std::fclose(F);
  if (W != S.size()) {
    std::fprintf(stderr, "bench: short write to '%s'\n", Path.c_str());
    return false;
  }
  std::printf("json: wrote %s\n", Path.c_str());
  return true;
}

} // namespace bench
} // namespace mpl
