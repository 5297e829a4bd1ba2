//===- perfbench/Batch.cpp - par-kernels, entangled, and the pass loop ----===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Batch.h"

#include "baseline/Native.h"
#include "core/Runtime.h"
#include "pml/jit/Jit.h"
#include "support/EmCounters.h"
#include "support/Random.h"
#include "support/Stats.h"
#include "workloads/Collections.h"
#include "workloads/Entangled.h"
#include "workloads/Kernels.h"

#include <algorithm>
#include <cstdio>
#include <memory>

using namespace mpl;
using namespace mpl::ops;

namespace pb {

namespace {

struct PassCfg {
  int Workers;
  bool Jit;
};

/// One pass's wall time, and its time net of hypervisor steal: the time
/// the pass would have taken had its vCPUs not been given to other guests
/// (README.md, "Statistics"). At one worker the pass runs on the calling
/// thread alone and never waits, so its process CPU time is that net time.
/// At P workers, all of which spin when idle, the pass loses the steal of
/// its vCPUs shared among P workers: wall time less steal / P.
struct PassTime {
  double Wall = 0;
  double Net = 0;
};

} // namespace

double statOf(const char *Name) {
  return static_cast<double>(StatRegistry::get().valueOf(Name));
}

void counterMetrics(Report &R, const WorkSpan *WS, int P, double Wall) {
  double Forks = statOf("sched.forks"), Steals = statOf("sched.steals");
  R.set("sched.forks", Forks, "count");
  R.set("sched.steals", Steals, "count");
  R.set("sched.steal_ratio", Forks > 0 ? Steals / Forks : 0, "ratio");
  if (WS && Wall > 0)
    R.set("sched.idle_frac", std::max(0.0, 1.0 - WS->WorkSec / (P * Wall)),
          "ratio");
  if (WS && WS->SpanSec > 0)
    R.set("sched.parallelism", WS->WorkSec / WS->SpanSec, "ratio");
  R.set("hh.heaps_created", statOf("hh.heaps.created"), "count");
  R.set("hh.joins", statOf("hh.joins"), "count");

  em::CounterSnapshot E = em::Counts.snapshot();
  R.set("em.reads_entangled", static_cast<double>(E.EntangledReads), "count");
  R.set("em.pins",
        static_cast<double>(E.DownPointerPins + E.CrossPointerPins +
                            E.PinnedHolderPins),
        "count");
  R.set("em.pinned_bytes", static_cast<double>(E.PinnedBytes), "B");
  R.set("em.unpins", static_cast<double>(E.UnpinnedObjects), "count");
  R.set("em.leaked_pins", static_cast<double>(E.livePinnedObjects()), "count");
  R.set("em.cont_captured", static_cast<double>(E.ContCaptured), "count");
  R.set("em.cont_resumed", static_cast<double>(E.ContResumed), "count");

  double Alloc = statOf("mm.chunks.allocated"),
         Reused = statOf("mm.chunks.reused");
  R.set("mm.peak_bytes.pN", statOf("mm.bytes.peak"), "B");
  R.set("mm.chunks_allocated", Alloc, "count");
  R.set("mm.chunk_reuse_ratio",
        Alloc + Reused > 0 ? Reused / (Alloc + Reused) : 0, "ratio");
  double Reclaimed = statOf("gc.bytes.reclaimed");
  double Survived = statOf("gc.bytes.copied") + statOf("gc.bytes.inplace");
  R.set("gc.collections", statOf("gc.collections"), "count");
  R.set("gc.pause_total_s", statOf("gc.pause.ns") * 1e-9, "s");
  R.set("gc.pause_max_ms", statOf("gc.pause.max.ns") * 1e-6, "ms");
  R.set("gc.bytes_copied", statOf("gc.bytes.copied"), "B");
  R.set("gc.reclaim_ratio",
        Reclaimed > 0 ? std::max(0.0, 1.0 - Survived / Reclaimed) : 0,
        "ratio");
}

namespace {

std::vector<double> kindMedians(const std::vector<OpSample> &Ops,
                                size_t NumKinds) {
  std::vector<std::vector<double>> ByKind(NumKinds);
  for (const OpSample &S : Ops)
    ByKind[static_cast<size_t>(S.Kind)].push_back(S.Sec);
  std::vector<double> Med;
  for (auto &V : ByKind)
    Med.push_back(median(V));
  return Med;
}

} // namespace

std::vector<size_t> PassCtx::order(size_t N) const {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  Rng G(OrderSeed);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[G.nextBounded(I)]);
  return Order;
}

void runBatch(const Options &O, Report &R, BatchDef &D) {
  const int P = hostCpus();
  Tracer &Tr = Tracer::get();

  // One set-up: runtime start, seeded input generation and (pml)
  // compilation. It runs before the passes and again at the start of every
  // round, so setup_s is a median over many set-ups. Generation is
  // deterministic, so the references stay valid. The runtime's shutdown
  // is not set-up, and no pass counts it either: joining the workers waits
  // until the hypervisor next runs each of their vCPUs, which on the
  // shared host made set-up times differ threefold between runs.
  std::vector<double> SetupSec;
  auto SetUp = [&] {
    rt::Config RC;
    RC.NumWorkers = P;
    std::unique_ptr<rt::Runtime> Rt; // Destroyed after the span and timing.
    {
      Span S("setup");
      double T0 = nowSec();
      Rt = std::make_unique<rt::Runtime>(RC);
      Rt->run([] {});
      D.Setup(O.Seed);
      SetupSec.push_back(since(T0));
    }
  };
  Tr.setEnabled(O.Trace);
  SetUp();
  Tr.setEnabled(false);
  D.ComputeRefs();

  const PassCfg Cfgs[4] = {{P, false}, {1, false}, {P, true}, {1, true}};
  const int NumCfgs = D.Jit ? 4 : 2;
  uint64_t PassNo = 0;
  auto RunPass = [&](const PassCfg &C, std::vector<OpSample> &Ops,
                     WorkSpan *WSOut, double *PeakOut) {
    if (D.BeforePass)
      D.BeforePass();
    jit::setEnabled(C.Jit);
    if (PeakOut)
      StatRegistry::get().resetAll();
    PassTime T;
    {
      rt::Config RC;
      RC.NumWorkers = C.Workers;
      rt::Runtime Rt(RC);
      PassCtx Ctx{Rt, R, Ops, C.Jit, hash64(O.Seed ^ hash64(++PassNo)),
                  WorkSpan{}};
      double C0 = cpuSec(), S0 = stealSec();
      double T0 = nowSec();
      {
        Span S("pass");
        D.Pass(Ctx);
      }
      T.Wall = since(T0);
      T.Net = C.Workers == 1 ? cpuSec() - C0
                             : T.Wall - (stealSec() - S0) / C.Workers;
      if (WSOut)
        *WSOut = Ctx.WS;
      if (PeakOut)
        *PeakOut = statOf("mm.bytes.peak");
    }
    jit::setEnabled(false);
    R.check(em::Counts.snapshot().livePinnedObjects() == 0,
            "pins leaked by a pass");
    return T;
  };

  // Untimed warm-up round: fills the chunk pool and faults in pages.
  double Start = nowSec();
  {
    std::vector<OpSample> Discard;
    for (int C = 0; C < NumCfgs; ++C)
      RunPass(Cfgs[C], Discard, nullptr, nullptr);
  }

  // Timed rounds, one pass per configuration each. In the traced run every
  // other round records spans, so traced and untraced passes interleave
  // and their ratio is the tracing overhead; the last part of the budget is
  // left to counters and probes.
  double Budget = O.Trace ? 0.5 * O.Seconds : O.Seconds;
  // Net times feed every figure; wall times are only printed.
  std::vector<double> Times[4], WallTimes[4], TracedTimes[4], Peaks;
  std::vector<double> CalibSec;
  std::vector<OpSample> Lat[4];
  for (int Round = 0; Round < 3 || since(Start) < Budget; ++Round) {
    bool Traced = O.Trace && Round % 2 == 1;
    Tr.setEnabled(Traced);
    SetUp();
    for (int C = 0; C < NumCfgs; ++C) {
      std::vector<OpSample> Ops;
      double Peak = 0;
      bool WantPeak = C == 1 && !Traced;
      PassTime T = RunPass(Cfgs[C], Ops, nullptr, WantPeak ? &Peak : nullptr);
      if (Traced) {
        TracedTimes[C].push_back(T.Net);
        continue;
      }
      Times[C].push_back(T.Net);
      WallTimes[C].push_back(T.Wall);
      Lat[C].insert(Lat[C].end(), Ops.begin(), Ops.end());
      if (WantPeak)
        Peaks.push_back(Peak);
    }
    // One host-speed sample per round, while no runtime exists.
    CalibSec.push_back(calibrateHost());
  }
  Tr.setEnabled(false);

  // Every figure is a median over all passes of the run, of pass times
  // net of steal. On the shared host the hypervisor's steal moves whole
  // runs by a fifth and more, and it is most of the pass-to-pass variation
  // (README.md, "Statistics"). The host's speed drifts by up to a third
  // over minutes, so the timed end-to-end metrics are scaled to the
  // reference speed by the run's calibration samples (README.md, "Host
  // speed").
  double Calib = median(CalibSec), Speed = HostRefSec / Calib;
  std::fprintf(stderr,
               "perfbench: host calibration %.3f ms (reference %.3f ms); "
               "timed end-to-end metrics scaled by %.3f\n",
               1e3 * Calib, 1e3 * HostRefSec, Speed);
  double Wall = median(Times[0]), WallP1 = median(Times[1]);
  // Without pml code the JIT switch changes nothing a pass runs, so the
  // JIT-on figures are the same passes.
  double JitWall = D.Jit ? median(Times[2]) : Wall;
  double JitWallP1 = D.Jit ? median(Times[3]) : WallP1;
  std::fprintf(stderr,
               "perfbench: %zu passes at P=%d; speedup wall_p1_s/wall_s = "
               "%.3f (not a metric)\n",
               Times[0].size(), P, Wall > 0 ? WallP1 / Wall : 0);
  static const char *const CfgNames[4] = {"P=nproc", "P=1", "P=nproc jit",
                                          "P=1 jit"};
  for (int C = 0; C < NumCfgs; ++C)
    std::fprintf(stderr,
                 "perfbench: pass %-11s net p10 %.4f p50 %.4f p90 %.4f s, "
                 "wall p10 %.4f p50 %.4f p90 %.4f s\n",
                 CfgNames[C], percentile(Times[C], 0.1),
                 percentile(Times[C], 0.5), percentile(Times[C], 0.9),
                 percentile(WallTimes[C], 0.1), percentile(WallTimes[C], 0.5),
                 percentile(WallTimes[C], 0.9));

  std::vector<double> KindLat[2] = {kindMedians(Lat[0], D.KindNames.size()),
                                    kindMedians(Lat[2], D.KindNames.size())};
  for (size_t K = 0; K < D.KindNames.size(); ++K) {
    std::fprintf(stderr, "perfbench: median %-10s %9.3f ms at P=%d",
                 D.KindNames[K].c_str(), 1e3 * KindLat[0][K], P);
    if (D.Jit)
      std::fprintf(stderr, ", JIT on %9.3f ms", 1e3 * KindLat[1][K]);
    std::fprintf(stderr, "\n");
  }

  if (!O.Trace) {
    R.set("setup_s", Speed * median(SetupSec), "s");
    R.set("wall_s", Speed * Wall, "s");
    R.set("wall_p1_s", Speed * WallP1, "s");
    R.set("jit_wall_s", Speed * JitWall, "s");
    R.set("jit_wall_p1_s", Speed * JitWallP1, "s");
    R.set("peak_residency_mb", median(Peaks) / (1024.0 * 1024.0), "MiB");
    return;
  }

  // Traced run: counters of one untraced pass per tier, then the layer
  // metrics. Counter resets happen at quiescence, between runtimes.
  auto CounterPass = [&](const PassCfg &C, WorkSpan &WS) {
    StatRegistry::get().resetAll();
    em::Counts.reset();
    std::vector<OpSample> Ops;
    return RunPass(C, Ops, &WS, nullptr).Wall;
  };
  WorkSpan WS;
  if (D.Jit) {
    CounterPass(Cfgs[2], WS);
    R.set("jit.compiled", statOf("pml.jit.compiled"), "count");
    R.set("jit.entries", statOf("pml.jit.entries"), "count");
    R.set("jit.bailouts", statOf("pml.jit.bailouts"), "count");
    R.set("jit.code_bytes", statOf("pml.jit.code_bytes"), "B");
    R.set("jit.speedup_p1", JitWallP1 > 0 ? WallP1 / JitWallP1 : 0, "ratio");
    R.set("jit.scaling", JitWall > 0 ? JitWallP1 / JitWall : 0, "ratio");
  }
  double CounterWall = CounterPass(Cfgs[0], WS);
  counterMetrics(R, &WS, P, CounterWall);

  double Plain = 0, Traced = 0;
  for (int C = 0; C < NumCfgs; ++C) {
    Plain += median(Times[C]);
    Traced += median(TracedTimes[C]);
  }
  R.set("trace.overhead_ratio", Plain > 0 ? Traced / Plain : 0, "ratio");
  R.set("trace.calib_ms", 1e3 * Calib, "ms");
  if (D.Layer)
    D.Layer(R, KindLat);
}

//===----------------------------------------------------------------------===//
// Shared kernel helpers
//===----------------------------------------------------------------------===//

namespace {

/// Copies native ints into a fresh managed array (parallel tabulate).
Object *toArray(const std::vector<int64_t> &V) {
  return wl::tabulate(static_cast<int64_t>(V.size()), [&](int64_t I) {
    return boxInt(V[static_cast<size_t>(I)]);
  });
}

/// Order-sensitive fold used as the checksum of integer sequences.
inline uint64_t foldIn(uint64_t H, int64_t V) {
  return H * 1000003u + static_cast<uint64_t>(V);
}

uint64_t foldArray(Object *A) {
  uint64_t H = 0;
  uint32_t N = arrLen(A);
  for (uint32_t I = 0; I < N; ++I)
    H = foldIn(H, unboxInt(arrGet(A, I)));
  return H;
}

uint64_t foldVector(const std::vector<int64_t> &V) {
  uint64_t H = 0;
  for (int64_t X : V)
    H = foldIn(H, X);
  return H;
}

/// Seeded native values: the benchmark's own generator (layer "gen"). It
/// fills \p V in place, so a repeated set-up reuses the buffer instead of
/// faulting in fresh pages.
void genInts(uint64_t Seed, int64_t N, int64_t Range, std::vector<int64_t> &V) {
  V.resize(static_cast<size_t>(N));
  Rng G(Seed);
  for (int64_t &X : V)
    X = static_cast<int64_t>(G.nextBounded(static_cast<uint64_t>(Range)));
}

/// One operation of a native workload: a kernel kind, a size and (for
/// array kernels) its generated input.
struct NativeOp {
  int Kind = 0;
  int64_t N = 0;
  std::vector<int64_t> In;
};

/// Sets \p Ops to \p PerKind operations per kind with sizes spread evenly
/// over [Lo, Hi], in a seeded order. Sizes do not depend on the seed, so
/// every seed does the same amount of work and only the input values and
/// order change. Existing entries keep their input buffers.
void drawOps(uint64_t Seed, int NumKinds, int PerKind,
             const int64_t (*Range)[2], std::vector<NativeOp> &Ops) {
  std::vector<std::pair<int, int64_t>> Drawn;
  for (int K = 0; K < NumKinds; ++K)
    for (int I = 0; I < PerKind; ++I)
      Drawn.push_back(
          {K, Range[K][0] + (Range[K][1] - Range[K][0]) * I / (PerKind - 1)});
  Rng G(Seed);
  for (size_t I = Drawn.size(); I > 1; --I)
    std::swap(Drawn[I - 1], Drawn[G.nextBounded(I)]);
  Ops.resize(Drawn.size());
  for (size_t I = 0; I < Drawn.size(); ++I) {
    Ops[I].Kind = Drawn[I].first;
    Ops[I].N = Drawn[I].second;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// par-kernels: disentangled fork-join kernels from wl::*
//===----------------------------------------------------------------------===//

namespace {

enum { Fib, NQueens, MSort, Scan, Primes, Hist, NumKernels };
const int64_t KernelSizes[NumKernels][2] = {
    {24, 27},          // fib n
    {8, 9},            // nqueens board
    {20000, 80000},    // mergesortInts length
    {100000, 400000},  // tabulate + scanPlus length
    {250000, 1000000}, // primesUpTo bound
    {100000, 400000},  // histogram length
};
const char *const KernelNames[NumKernels] = {"fib",  "nqueens", "msort",
                                             "scan", "primes",  "histogram"};

/// The seeded operations of par-kernels, four sizes of each kernel.
void kernelOps(uint64_t Seed, std::vector<NativeOp> &Ops) {
  drawOps(Seed, NumKernels, 4, KernelSizes, Ops);
  uint64_t InSeed = hash64(Seed ^ 0x1234);
  for (NativeOp &Op : Ops) {
    InSeed = hash64(InSeed);
    if (Op.Kind == MSort)
      genInts(InSeed, Op.N, int64_t(1) << 40, Op.In);
    else if (Op.Kind == Scan)
      genInts(InSeed, Op.N, 16, Op.In);
    else if (Op.Kind == Hist)
      genInts(InSeed, Op.N, 256, Op.In);
  }
}

/// The checksum of one kernel operation from sequential C++ code.
int64_t kernelRef(const NativeOp &Op) {
  switch (Op.Kind) {
  case Fib:
    return nat::fib(Op.N);
  case NQueens:
    return nat::nqueens(static_cast<int>(Op.N));
  case MSort: {
    std::vector<int64_t> S = Op.In;
    std::sort(S.begin(), S.end());
    return static_cast<int64_t>(foldVector(S));
  }
  case Scan: {
    std::vector<int64_t> Sums;
    int64_t Acc = 0;
    for (int64_t V : Op.In) {
      Sums.push_back(Acc);
      Acc += V;
    }
    return static_cast<int64_t>(foldIn(foldVector(Sums), Acc));
  }
  case Primes:
    return nat::primesCount(Op.N);
  default:
    return static_cast<int64_t>(foldVector(nat::histogram(Op.In, 256)));
  }
}

/// Runs one kernel operation on the runtime; call inside Runtime::run.
int64_t runKernel(const NativeOp &Op) {
  switch (Op.Kind) {
  case Fib:
    return wl::fib(Op.N);
  case NQueens:
    return wl::nqueens(static_cast<int>(Op.N));
  case MSort: {
    Local A(toArray(Op.In));
    Local S(wl::mergesortInts(A.get()));
    return static_cast<int64_t>(foldArray(S.get()));
  }
  case Scan: {
    Local A(toArray(Op.In));
    Local S(wl::scanPlus(A.get()));
    Object *Sums = Object::asPointer(recGet(S.get(), 0));
    return static_cast<int64_t>(
        foldIn(foldArray(Sums), unboxInt(recGet(S.get(), 1))));
  }
  case Primes: {
    Local Ps(wl::primesUpTo(Op.N));
    return arrLen(Ps.get());
  }
  default: {
    Local A(toArray(Op.In));
    Local H(wl::histogram(A.get(), 256));
    return static_cast<int64_t>(foldArray(H.get()));
  }
  }
}

std::string kernelWhat(const NativeOp &Op) {
  return std::string(KernelNames[Op.Kind]) + " n=" + std::to_string(Op.N) +
         " checksum mismatch";
}

} // namespace

void runParKernels(const Options &O, Report &R) {
  std::vector<NativeOp> Ops;
  std::vector<int64_t> Refs;

  BatchDef D;
  D.KindNames.assign(KernelNames, KernelNames + NumKernels);
  D.Setup = [&](uint64_t Seed) {
    Span S("gen");
    kernelOps(Seed, Ops);
  };
  D.ComputeRefs = [&] {
    for (const NativeOp &Op : Ops)
      Refs.push_back(R.expect(kernelRef(Op)));
  };
  D.Pass = [&](PassCtx &C) {
    for (size_t I : C.order(Ops.size())) {
      int64_t Got = 0;
      C.op(Ops[I].Kind, [&] { Got = runKernel(Ops[I]); });
      C.R.check(Got == Refs[I], "par-kernels " + kernelWhat(Ops[I]));
    }
  };
  runBatch(O, R, D);
}

void runMixedRun(const Options &O, Report &R) {
  // The crash depends on the order of the kernels and, at P > 1, on the
  // schedule, so eight seeded orders are run at each width.
  std::vector<NativeOp> Ops;
  for (uint64_t Seed = O.Seed; Seed < O.Seed + 8; ++Seed) {
    kernelOps(Seed, Ops);
    std::vector<int64_t> Refs;
    for (const NativeOp &Op : Ops)
      Refs.push_back(R.expect(kernelRef(Op)));
    for (int P : {1, hostCpus()}) {
      std::fprintf(stderr, "perfbench: mixed-run: seed %llu, %zu kernels in "
                           "one Runtime::run at P=%d\n",
                   static_cast<unsigned long long>(Seed), Ops.size(), P);
      rt::Config RC;
      RC.NumWorkers = P;
      rt::Runtime Rt(RC);
      Rt.run([&] {
        for (size_t I = 0; I < Ops.size(); ++I)
          R.check(runKernel(Ops[I]) == Refs[I],
                  "mixed-run " + kernelWhat(Ops[I]));
      });
    }
    R.check(em::Counts.snapshot().livePinnedObjects() == 0,
            "pins leaked by a mixed run");
  }
}

//===----------------------------------------------------------------------===//
// entangled: tasks communicate through shared mutable objects
//===----------------------------------------------------------------------===//

void runEntangled(const Options &O, Report &R) {
  enum { Dedup, Channel, Exchange, NumKinds };
  static const int64_t Sizes[NumKinds][2] = {
      {10000, 40000}, // dedup keys
      {2000, 8000},   // channelPipeline items
      {2000, 8000},   // exchange items
  };
  static const char *const Names[NumKinds] = {"dedup", "channel", "exchange"};
  std::vector<NativeOp> Ops;
  std::vector<int64_t> Refs;

  BatchDef D;
  D.KindNames.assign(Names, Names + NumKinds);
  D.Setup = [&](uint64_t Seed) {
    Span S("gen");
    drawOps(Seed, NumKinds, 6, Sizes, Ops);
    uint64_t InSeed = hash64(Seed ^ 0x5678);
    for (NativeOp &Op : Ops) {
      InSeed = hash64(InSeed);
      if (Op.Kind == Dedup)
        genInts(InSeed, Op.N, Op.N / 4, Op.In);
    }
  };
  D.ComputeRefs = [&] {
    for (const NativeOp &Op : Ops)
      Refs.push_back(R.expect(Op.Kind == Dedup     ? nat::dedupIdiomatic(Op.In)
                              : Op.Kind == Channel ? Op.N * (Op.N - 1) / 2
                                                   : Op.N));
  };
  D.Pass = [&](PassCtx &C) {
    for (size_t I : C.order(Ops.size())) {
      const NativeOp &Op = Ops[I];
      int64_t Got = 0;
      C.op(Op.Kind, [&] {
        if (Op.Kind == Dedup) {
          Local A(toArray(Op.In));
          Got = wl::dedup(A.get());
        } else if (Op.Kind == Channel) {
          Got = wl::channelPipeline(Op.N);
        } else {
          Got = wl::exchange(Op.N);
        }
      });
      C.R.check(Got == Refs[I], std::string("entangled ") + Names[Op.Kind] +
                                   " n=" + std::to_string(Op.N) +
                                   " checksum mismatch");
    }
  };
  runBatch(O, R, D);
}

} // namespace pb
