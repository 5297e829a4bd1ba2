//===- perfbench/Common.h - Shared benchmark plumbing ------------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Options, the result report (metrics + check accounting) and the exact
/// sample statistics every workload of the repository benchmark uses.
/// Workloads drive the runtime only through its public API; nothing here
/// reaches into src/ internals.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_PERFBENCH_COMMON_H
#define MPL_PERFBENCH_COMMON_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mpl {
struct WorkSpan;
} // namespace mpl

namespace pb {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Test hook: corrupt one reference value so the first check of the run
  /// fails. Proves that a wrong output turns into a failing exit status.
  bool InjectMismatch = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string SpansOut;
};

/// Worker count of the timed passes: the CPUs this process may run on.
int hostCpus();

/// Metrics plus check accounting for one run. Every check counts as one
/// attempt; a failed one is reported on stderr and counted in Failed.
class Report {
public:
  void set(const std::string &Name, double Value, const std::string &Unit);
  bool check(bool Ok, const std::string &What);
  /// A reference value, perturbed once per run when mismatch injection is on.
  int64_t expect(int64_t Ref);

  void armInjection(bool On) { InjectPending = On; }
  int64_t attempted() const { return Attempted; }
  int64_t failed() const { return Failed; }

  /// Human-readable table on stderr and the one-line JSON on stdout.
  void print() const;

private:
  std::map<std::string, std::pair<double, std::string>> Metrics;
  int64_t Attempted = 0;
  int64_t Failed = 0;
  bool InjectPending = false;
};

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> V);

/// Exact nearest-rank percentile of the samples (\p Q in [0,1]).
double percentile(std::vector<double> V, double Q);

/// Whether the Q-quantile has at least ten samples beyond it, the rule for
/// reporting a tail percentile at all.
inline bool tailReportable(size_t N, double Q) {
  return static_cast<double>(N) * (1.0 - Q) >= 10.0 - 1e-9;
}

double nowSec();

/// CPU time of the whole process (all threads), in seconds. On a guest
/// with paravirtual steal accounting it excludes steal.
double cpuSec();

/// CPU time of the calling thread for one run of a fixed native kernel
/// (sorting 100,000 seeded integers), in seconds: the host-speed sample.
/// Timed passes are scaled by HostRefSec over the run's median sample
/// (README.md, "Host speed").
double calibrateHost();

/// calibrateHost() on the host the baselines were measured on (4-vCPU
/// Xeon, Sapphire Rapids, KVM guest), in its usual slower phase.
constexpr double HostRefSec = 0.010;

/// Steal time so far, in seconds, summed over the CPUs this process may
/// run on: time a vCPU was ready to run but the hypervisor ran something
/// else. From the kernel's per-CPU accounting (/proc/stat, 10 ms ticks);
/// 0 where the kernel does not report it.
double stealSec();

/// Seconds elapsed since \p Start (a nowSec() value).
inline double since(double Start) { return nowSec() - Start; }

/// Current value of a runtime StatRegistry counter.
double statOf(const char *Name);

/// Sets the runtime counter metrics (sched, hh, em, mm, gc) from the
/// counters accumulated since the last reset. \p WS (with \p P workers and
/// wall time \p Wall) adds idle fraction and parallelism; without it they
/// stay 0.
void counterMetrics(Report &R, const mpl::WorkSpan *WS, int P, double Wall);

// Workload entry points; each fills \p R (trace-mode metrics when
// O.Trace is set) and returns normally even when checks failed.
void runParKernels(const Options &O, Report &R);
void runEntangled(const Options &O, Report &R);
void runPml(const Options &O, Report &R);
void runServe(const Options &O, Report &R);
/// Every par-kernels operation inside one Runtime::run (README.md, "Known
/// defects"); not a listed workload.
void runMixedRun(const Options &O, Report &R);

/// Layer unit-cost probes (traced run only); see Probes.cpp.
void runProbes(Report &R);

} // namespace pb

#endif // MPL_PERFBENCH_COMMON_H
