//===- perfbench/main.cpp - The repository benchmark ---------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--spans-out <path>] [--inject-mismatch]
// perfbench --spec        (prints BENCHMARK.json)
//
// Runs one workload from outside the runtime, checks every output against
// an independent reference, and prints the end-to-end metrics (--trace 0)
// or the per-layer metrics of a separate traced run (--trace 1). The last
// stdout line is {"correct","attempted","failed","metrics"}; the exit
// status is non-zero when any check failed. README.md explains the
// workloads, the metrics and which layer metric should move which
// end-to-end metric.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Spec.h"
#include "Trace.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace pb {

int hostCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

double nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpuSec() {
  timespec T;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + 1e-9 * static_cast<double>(T.tv_nsec);
}

double calibrateHost() {
  std::vector<uint32_t> V(100000);
  uint32_t X = 1;
  for (uint32_t &E : V) {
    X = X * 1664525u + 1013904223u;
    E = X;
  }
  timespec T0, T1;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T0);
  std::sort(V.begin(), V.end());
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T1);
  return static_cast<double>(T1.tv_sec - T0.tv_sec) +
         1e-9 * static_cast<double>(T1.tv_nsec - T0.tv_nsec);
}

double stealSec() {
  static const double Tick = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return 0;
  FILE *F = std::fopen("/proc/stat", "r");
  if (!F)
    return 0;
  // Lines "cpuN user nice system idle iowait irq softirq steal ...".
  unsigned long long Sum = 0;
  char Line[512];
  while (std::fgets(Line, sizeof(Line), F)) {
    int Cpu;
    unsigned long long V[8];
    if (std::sscanf(Line, "cpu%d %llu %llu %llu %llu %llu %llu %llu %llu",
                    &Cpu, &V[0], &V[1], &V[2], &V[3], &V[4], &V[5], &V[6],
                    &V[7]) == 9 &&
        Cpu >= 0 && Cpu < CPU_SETSIZE && CPU_ISSET(Cpu, &Set))
      Sum += V[7];
  }
  std::fclose(F);
  return static_cast<double>(Sum) * Tick;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

void Report::set(const std::string &Name, double Value,
                 const std::string &Unit) {
  Metrics[Name] = {Value, Unit};
}

bool Report::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    if (Failed <= 20)
      std::fprintf(stderr, "CHECK FAILED: %s\n", What.c_str());
  }
  return Ok;
}

int64_t Report::expect(int64_t Ref) {
  if (!InjectPending)
    return Ref;
  InjectPending = false;
  return Ref ^ 0x5a5a;
}

void Report::print() const {
  for (const auto &[Name, VU] : Metrics)
    std::fprintf(stderr, "  %-34s %16.6f %s\n", Name.c_str(), VU.first,
                 VU.second.c_str());
  std::fprintf(stderr, "  %-34s %16.6f ratio (%lld of %lld checks)\n",
               "failed_ratio",
               Attempted ? static_cast<double>(Failed) / Attempted : 0.0,
               static_cast<long long>(Failed),
               static_cast<long long>(Attempted));
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              Failed == 0 ? "true" : "false",
              static_cast<long long>(Attempted),
              static_cast<long long>(Failed));
  bool First = true;
  for (const auto &[Name, VU] : Metrics) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                First ? "" : ", ", Name.c_str(), VU.first, VU.second.c_str());
    First = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

} // namespace pb

using namespace pb;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-out <path>] [--inject-mismatch]\n"
               "       perfbench --spec\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--spec") {
      printSpec();
      return 0;
    } else if (A == "--inject-mismatch") {
      O.InjectMismatch = true;
    } else if ((A == "--workload") && (V = Next())) {
      O.Workload = V;
    } else if (A == "--seed" && (V = Next())) {
      O.Seed = std::strtoull(V, nullptr, 10);
    } else if (A == "--seconds" && (V = Next())) {
      O.Seconds = std::atof(V);
    } else if (A == "--trace" && (V = Next())) {
      O.Trace = std::atoi(V) != 0;
    } else if (A == "--spans-out" && (V = Next())) {
      O.SpansOut = V;
    } else {
      return usage();
    }
  }
  if (O.Seconds <= 0)
    return usage();

  Report R;
  R.armInjection(O.InjectMismatch);
  std::fprintf(stderr, "perfbench: workload=%s seed=%llu seconds=%g trace=%d "
                       "cpus=%d\n",
               O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
               O.Seconds, O.Trace ? 1 : 0, hostCpus());
  if (O.Trace)
    fillLayerDefaults(R);

  if (O.Workload == "par-kernels")
    runParKernels(O, R);
  else if (O.Workload == "entangled")
    runEntangled(O, R);
  else if (O.Workload == "pml")
    runPml(O, R);
  else if (O.Workload == "serve")
    runServe(O, R);
  else if (O.Workload == "mixed-run")
    runMixedRun(O, R);
  else
    return usage();

  if (O.Trace) {
    runProbes(R);
    std::map<std::string, double> Self = Tracer::get().selfSeconds();
    for (size_t I = 0; I < NumSpanNames; ++I) {
      std::string Name = std::string("self_s.") + SpanNames[I];
      if (O.Workload == "serve" || declaredLayer(Name))
        R.set(Name, Self[SpanNames[I]], "s");
    }
    if (!O.SpansOut.empty() && !Tracer::get().write(O.SpansOut))
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   O.SpansOut.c_str());
  }
  R.print();
  return R.failed() == 0 ? 0 : 1;
}
