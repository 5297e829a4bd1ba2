//===- bench/bench_micro_barriers.cpp - Barrier micro-costs ----------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// Google-benchmark microbenchmarks for the entanglement barriers: the cost
// of a disentangled mutable load/store under Off / Detect / Manage. These
// are the per-operation numbers behind figure F2 — the paper's claim is
// that the managed read barrier is a single predictable ancestor check on
// disentangled data.
//
// The second benchmark argument arms the obs tracer (src/obs/Trace.h) for
// the measured loop: `manage` vs `manage+trace` is the per-op cost of the
// tracing hooks (disabled: one relaxed load + predictable branch; enabled:
// a 32-byte ring-buffer store). The third argument arms the memory
// governor (src/mm/MemoryGovernor.h) with a generous limit: `manage` vs
// `manage+gov` is the per-op cost of limit admission on the chunk
// acquisition path — zero for the barrier loops (they never acquire) and
// a per-chunk, not per-object, accounting charge for the allocation loop.
// The fourth argument arms the entanglement profiler (src/obs/Profile.h):
// `manage` vs `manage+prof` is the per-op cost of the profiler's armed
// check on the barrier paths — these loops are disentangled, so the slow
// paths never fire and the price is the relaxed flag load alone.
// Recorded in results/M1_barriers.txt.
//
// BM_ContendedPinAndRead is the contended row: one `par` leaf per worker
// publishes fresh boxes into a shared depth-0 array (a down-pointer pin
// each) and then reads every box its siblings have published so far (an
// entangled read each, since no sibling heap has joined yet). Its argument
// is the worker count, 1 and nproc; it reports ns per pin and ns per
// entangled read, each timed inside the leaves over that phase alone, so
// P = nproc against P = 1 is what sharing the barrier path costs.
//
// Accepts `-json <path>` (translated to google-benchmark's
// --benchmark_out=<path> in JSON format) so CI can archive the numbers.
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"
#include "mm/MemoryGovernor.h"
#include "obs/Profile.h"
#include "obs/Trace.h"
#include "support/Timer.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace mpl;
using namespace mpl::ops;

namespace {

em::Mode modeOf(int64_t I) {
  switch (I) {
  case 0:
    return em::Mode::Off;
  case 1:
    return em::Mode::Detect;
  default:
    return em::Mode::Manage;
  }
}

const char *modeName(int64_t I) {
  return I == 0 ? "off" : (I == 1 ? "detect" : "manage");
}

/// RAII for the tracer + governor + profiler configuration of one benchmark
/// run; labels the state "<mode>", "<mode>+trace", "<mode>+gov" or
/// "<mode>+prof". The governed runs use a limit far above the benchmark's
/// residency, so they price the admission bookkeeping itself, never the
/// recovery ladder.
class TracerConfig {
public:
  TracerConfig(benchmark::State &State)
      : Traced(State.range(1) != 0), Governed(State.range(2) != 0),
        Profiled(State.range(3) != 0),
        SavedGov(MemoryGovernor::get().config()) {
    if (Traced) {
      obs::Tracer::get().clear();
      obs::Tracer::get().enable(obs::TraceOptions{});
    }
    if (Profiled) {
      obs::Profiler::get().reset();
      obs::Profiler::get().enable();
    }
    MemoryGovernor::Config G = SavedGov;
    G.LimitBytes = Governed ? (int64_t(4) << 30) : 0;
    MemoryGovernor::get().configure(G);
    State.SetLabel(std::string(modeName(State.range(0))) +
                   (Traced ? "+trace" : "") + (Governed ? "+gov" : "") +
                   (Profiled ? "+prof" : ""));
  }
  ~TracerConfig() {
    MemoryGovernor::get().configure(SavedGov);
    if (Profiled) {
      obs::Profiler::get().disable();
      obs::Profiler::get().reset();
    }
    if (Traced) {
      obs::Tracer::get().disable();
      obs::Tracer::get().clear();
    }
  }

private:
  bool Traced;
  bool Governed;
  bool Profiled;
  MemoryGovernor::Config SavedGov;
};

void BM_RefGetDisentangled(benchmark::State &State) {
  TracerConfig TC(State);
  rt::Config Cfg;
  Cfg.NumWorkers = 1;
  Cfg.Profile = false;
  Cfg.Mode = modeOf(State.range(0));
  rt::Runtime R(Cfg);
  R.run([&] {
    Local Box(newRef(boxInt(7)));
    Local Cell(newRef(Box.slot())); // Pointer-valued ref: barrier fires.
    for (auto _ : State) {
      Slot V = refGet(Cell.get());
      benchmark::DoNotOptimize(V);
    }
  });
}

void BM_RefSetDisentangled(benchmark::State &State) {
  TracerConfig TC(State);
  rt::Config Cfg;
  Cfg.NumWorkers = 1;
  Cfg.Profile = false;
  Cfg.Mode = modeOf(State.range(0));
  rt::Runtime R(Cfg);
  R.run([&] {
    Local Box(newRef(boxInt(7)));
    Local Cell(newRef(boxInt(0)));
    for (auto _ : State) {
      refSet(Cell.get(), Box.slot());
      benchmark::ClobberMemory();
    }
  });
}

void BM_ArrayGetInt(benchmark::State &State) {
  TracerConfig TC(State);
  rt::Config Cfg;
  Cfg.NumWorkers = 1;
  Cfg.Profile = false;
  Cfg.Mode = modeOf(State.range(0));
  rt::Runtime R(Cfg);
  R.run([&] {
    Local Arr(newArray(1024, boxInt(3)));
    uint32_t I = 0;
    for (auto _ : State) {
      Slot V = arrGet(Arr.get(), I);
      benchmark::DoNotOptimize(V);
      I = (I + 1) & 1023;
    }
  });
}

void BM_ImmutableRecordGet(benchmark::State &State) {
  // Immutable loads are barrier-free in every mode — the shielded path.
  TracerConfig TC(State);
  rt::Config Cfg;
  Cfg.NumWorkers = 1;
  Cfg.Profile = false;
  Cfg.Mode = modeOf(State.range(0));
  rt::Runtime R(Cfg);
  R.run([&] {
    Local Rec(newRecord(0, {boxInt(1), boxInt(2)}));
    for (auto _ : State) {
      Slot V = recGet(Rec.get(), 0);
      benchmark::DoNotOptimize(V);
    }
  });
}

void BM_Allocation(benchmark::State &State) {
  TracerConfig TC(State);
  rt::Config Cfg;
  Cfg.NumWorkers = 1;
  Cfg.Profile = false;
  Cfg.Mode = modeOf(State.range(0));
  rt::Runtime R(Cfg);
  R.run([&] {
    for (auto _ : State) {
      Object *O = newRecord(0, {boxInt(1), boxInt(2)});
      benchmark::DoNotOptimize(O);
    }
  });
}

void BM_ContendedPinAndRead(benchmark::State &State) {
  const int Workers = static_cast<int>(State.range(0));
  constexpr uint32_t BoxesPerLeaf = 256;
  const uint32_t Leaves = std::max(1u, std::thread::hardware_concurrency());
  rt::Config Cfg;
  Cfg.NumWorkers = Workers;
  Cfg.Profile = false;
  rt::Runtime R(Cfg);
  std::vector<int64_t> PinNs(Leaves), ReadNs(Leaves), Reads(Leaves);
  int64_t Pins = 0, TotalPinNs = 0, TotalReads = 0, TotalReadNs = 0;
  for (auto _ : State) {
    R.run([&] {
      Local Shared(newArray(Leaves * BoxesPerLeaf, boxInt(0)));
      rt::parFor(0, Leaves, 1, [&](int64_t Leaf) {
        const uint32_t Mine = static_cast<uint32_t>(Leaf) * BoxesPerLeaf;
        Timer T;
        for (uint32_t J = 0; J < BoxesPerLeaf; ++J) {
          Local Box(newRef(boxInt(J)));
          arrSet(Shared.get(), Mine + J, Box.slot());
        }
        PinNs[Leaf] = T.elapsedNs();
        // Pick the sibling slots that already hold a box without a barrier,
        // then time the barriered reads of exactly those.
        std::vector<uint32_t> Published;
        for (uint32_t I = 0; I < Leaves * BoxesPerLeaf; ++I)
          if ((I < Mine || I >= Mine + BoxesPerLeaf) &&
              Object::asPointer(Shared.get()->getSlot(I)))
            Published.push_back(I);
        T.reset();
        for (uint32_t I : Published)
          benchmark::DoNotOptimize(arrGet(Shared.get(), I));
        ReadNs[Leaf] = T.elapsedNs();
        Reads[Leaf] = static_cast<int64_t>(Published.size());
      });
    });
    for (uint32_t L = 0; L < Leaves; ++L) {
      TotalPinNs += PinNs[L];
      TotalReadNs += ReadNs[L];
      TotalReads += Reads[L];
    }
    Pins += int64_t(Leaves) * BoxesPerLeaf;
  }
  State.SetLabel("P=" + std::to_string(Workers));
  State.counters["ns_per_pin"] =
      Pins ? static_cast<double>(TotalPinNs) / static_cast<double>(Pins) : 0;
  State.counters["ns_per_entangled_read"] =
      TotalReads ? static_cast<double>(TotalReadNs) /
                       static_cast<double>(TotalReads)
                 : 0;
  State.counters["entangled_reads_per_round"] =
      static_cast<double>(TotalReads) /
      static_cast<double>(std::max<int64_t>(1, State.iterations()));
}

} // namespace

#define MPL_BARRIER_ARGS                                                       \
  Args({0, 0, 0, 0})->Args({1, 0, 0, 0})->Args({2, 0, 0, 0})                   \
      ->Args({2, 1, 0, 0})->Args({2, 0, 1, 0})->Args({2, 0, 0, 1})
BENCHMARK(BM_RefGetDisentangled)->MPL_BARRIER_ARGS;
BENCHMARK(BM_RefSetDisentangled)->MPL_BARRIER_ARGS;
BENCHMARK(BM_ArrayGetInt)->MPL_BARRIER_ARGS;
BENCHMARK(BM_ImmutableRecordGet)->MPL_BARRIER_ARGS;
BENCHMARK(BM_Allocation)->MPL_BARRIER_ARGS;
BENCHMARK(BM_ContendedPinAndRead)
    ->Arg(1)
    ->Arg(std::max(1u, std::thread::hardware_concurrency()))
    ->UseRealTime();

// Hand-rolled main instead of BENCHMARK_MAIN(): translate our suite-wide
// `-json <path>` convention into google-benchmark's --benchmark_out flags
// before its own argv parsing sees them.
int main(int Argc, char **Argv) {
  std::vector<std::string> ArgStorage;
  for (int I = 0; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "-json") == 0 && I + 1 < Argc) {
      ArgStorage.push_back(std::string("--benchmark_out=") + Argv[I + 1]);
      ArgStorage.push_back("--benchmark_out_format=json");
      ++I;
      continue;
    }
    ArgStorage.push_back(Argv[I]);
  }
  std::vector<char *> NewArgv;
  for (std::string &S : ArgStorage)
    NewArgv.push_back(S.data());
  int NewArgc = static_cast<int>(NewArgv.size());
  benchmark::Initialize(&NewArgc, NewArgv.data());
  if (benchmark::ReportUnrecognizedArguments(NewArgc, NewArgv.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
