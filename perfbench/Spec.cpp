//===- perfbench/Spec.cpp - Workloads and metric names -------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Spec.h"

#include "Common.h"
#include "Trace.h"

#include <cstdio>
#include <string>
#include <vector>

namespace pb {

const char *const PmlProgramNames[5] = {"pfib", "msort", "sum", "eff_n",
                                        "eff_2n"};
const char *const ServeKindNames[5] = {"ping", "pml", "fib", "sort",
                                       "primes"};

namespace {

constexpr int RunSeconds = 30;

struct WorkloadSpec {
  const char *Name;
  const char *Why;
};

const WorkloadSpec Workloads[] = {
    {"par-kernels",
     "disentangled fork-join kernels (fib, nqueens, msort, scan, primes, "
     "histogram): loads sched/hh/mm/gc and only the em fast path, so an "
     "entanglement change must not move it"},
    {"entangled",
     "dedup, channel and exchange share objects between tasks: all pin, "
     "unpin and barrier slow-path cost lives here, reads and writes mixed"},
    {"pml",
     "pml pfib, msort, curried sum and the effect pipeline at N and 2N on "
     "the interpreter and the JIT: front end, VM, JIT and continuations"},
    // `--workload serve` also runs but is not listed: on the shared 4-vCPU
    // host its run-to-run spreads reached 37% (README.md). Neither is
    // `--workload mixed-run`, which crashes the runtime today.
};

struct MetricSpec {
  const char *Name;
  const char *Unit;
  const char *Better;
  double Bound; ///< End-to-end only.
};

// Bounds: every timed metric gets the largest bound allowed, because the
// shared host moves whole runs even after pass times are taken net of
// steal (README.md, "Statistics"); residency at P = 1 varies by a few
// percent at most. The served-latency metrics (latency_p50_ms,
// latency_p99_ms, max_rate_rps) belong to `serve` and are printed only
// there.
const MetricSpec EndToEnd[] = {
    {"setup_s", "s", "lower", 0.25},
    {"wall_s", "s", "lower", 0.25},
    {"wall_p1_s", "s", "lower", 0.25},
    {"jit_wall_s", "s", "lower", 0.25},
    {"jit_wall_p1_s", "s", "lower", 0.25},
    {"peak_residency_mb", "MiB", "lower", 0.1},
};

std::vector<MetricSpec> perLayer() {
  std::vector<MetricSpec> L = {
      {"sched.forks", "count", "lower", 0},
      {"sched.steals", "count", "lower", 0},
      {"sched.steal_ratio", "ratio", "lower", 0},
      {"sched.idle_frac", "ratio", "lower", 0},
      {"sched.parallelism", "ratio", "higher", 0},
      {"core.par_ns.p1", "ns", "lower", 0},
      {"core.par_ns.pN", "ns", "lower", 0},
      {"core.alloc_ns", "ns", "lower", 0},
      {"hh.heaps_created", "count", "lower", 0},
      {"hh.joins", "count", "lower", 0},
      {"em.read_fast_ns", "ns", "lower", 0},
      {"em.read_entangled_ns", "ns", "lower", 0},
      {"em.write_fast_ns", "ns", "lower", 0},
      {"em.write_down_ns", "ns", "lower", 0},
      {"em.reads_entangled", "count", "lower", 0},
      {"em.pins", "count", "lower", 0},
      {"em.pinned_bytes", "B", "lower", 0},
      {"em.unpins", "count", "lower", 0},
      {"em.leaked_pins", "count", "lower", 0},
      {"em.cont_captured", "count", "lower", 0},
      {"em.cont_resumed", "count", "lower", 0},
      {"mm.peak_bytes.pN", "B", "lower", 0},
      {"mm.chunks_allocated", "count", "lower", 0},
      {"mm.chunk_reuse_ratio", "ratio", "higher", 0},
      {"gc.collections", "count", "lower", 0},
      {"gc.pause_total_s", "s", "lower", 0},
      {"gc.pause_max_ms", "ms", "lower", 0},
      {"gc.bytes_copied", "B", "lower", 0},
      {"gc.reclaim_ratio", "ratio", "higher", 0},
      {"gc.ns_per_live_kib", "ns", "lower", 0},
      {"pml.parse_ms", "ms", "lower", 0},
      {"pml.typecheck_ms", "ms", "lower", 0},
      {"pml.compile_ms", "ms", "lower", 0},
      {"pml.code_ops", "count", "lower", 0},
      {"pml.call_ns", "ns", "lower", 0},
      {"pml.capture_resume_ns", "ns", "lower", 0},
      {"pml.eff_growth", "ratio", "lower", 0},
      {"jit.compiled", "count", "higher", 0},
      {"jit.entries", "count", "higher", 0},
      {"jit.bailouts", "count", "lower", 0},
      {"jit.code_bytes", "B", "lower", 0},
      {"jit.speedup_p1", "ratio", "higher", 0},
      {"jit.scaling", "ratio", "higher", 0},
      {"net.encode_ns", "ns", "lower", 0},
      {"net.decode_ns", "ns", "lower", 0},
      {"net.ping_p50_ms", "ms", "lower", 0},
      {"net.ping_p99_ms", "ms", "lower", 0},
      {"trace.overhead_ratio", "ratio", "lower", 0},
      {"trace.calib_ms", "ms", "lower", 0},
  };
  // Name storage for the expanded families lives as long as the process.
  static std::vector<std::string> Names;
  if (Names.empty()) {
    for (const char *P : PmlProgramNames)
      Names.push_back(std::string("pml.vm_ms.") + P);
    for (const char *P : PmlProgramNames)
      Names.push_back(std::string("jit.vm_ms.") + P);
    for (size_t I = 0; I < NumSpanNames; ++I)
      if (std::string(SpanNames[I]) != "net.request")
        Names.push_back(std::string("self_s.") + SpanNames[I]);
  }
  for (const std::string &N : Names) {
    const char *Unit = N.rfind("self_s.", 0) == 0 ? "s" : "ms";
    L.push_back({N.c_str(), Unit, "lower", 0});
  }
  return L;
}

} // namespace

void printSpec() {
  std::printf("{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n"
              "  \"paths\": [\"perfbench\"],\n  \"run_seconds\": %d,\n"
              "  \"workloads\": [\n",
              RunSeconds);
  size_t NW = sizeof(Workloads) / sizeof(Workloads[0]);
  for (size_t I = 0; I < NW; ++I)
    std::printf("    {\"name\": \"%s\", \"why\": \"%s\"}%s\n",
                Workloads[I].Name, Workloads[I].Why, I + 1 < NW ? "," : "");
  std::printf("  ],\n  \"end_to_end\": [\n");
  size_t NE = sizeof(EndToEnd) / sizeof(EndToEnd[0]);
  for (size_t I = 0; I < NE; ++I)
    std::printf("    {\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\", "
                "\"bound\": %g}%s\n",
                EndToEnd[I].Name, EndToEnd[I].Unit, EndToEnd[I].Better,
                EndToEnd[I].Bound, I + 1 < NE ? "," : "");
  std::printf("  ],\n  \"per_layer\": [\n");
  std::vector<MetricSpec> L = perLayer();
  for (size_t I = 0; I < L.size(); ++I)
    std::printf("    {\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}"
                "%s\n",
                L[I].Name, L[I].Unit, L[I].Better,
                I + 1 < L.size() ? "," : "");
  std::printf("  ]\n}\n");
}

void fillLayerDefaults(Report &R) {
  for (const MetricSpec &M : perLayer())
    R.set(M.Name, 0, M.Unit);
}

bool declaredLayer(const std::string &Name) {
  for (const MetricSpec &M : perLayer())
    if (Name == M.Name)
      return true;
  return false;
}

} // namespace pb
