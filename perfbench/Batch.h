//===- perfbench/Batch.h - Timed passes of a batch workload ------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pass loop shared by the batch workloads (par-kernels, entangled, pml).
/// A pass runs the workload's seeded list of operations (kernel calls or
/// program runs) on one Runtime, each operation as its own Runtime::run,
/// the way an embedding application submits one job per run; every
/// operation checks its output. par-kernels and entangled run the
/// operations of each pass in a fresh seeded order (PassCtx::order).
/// Passes rotate over P = host CPUs and P = 1, and for pml over both again
/// with the JIT on, after one untimed warm-up round.
///
/// One operation per run is also forced: a long-lived run that mixes
/// kernels crashes the collector today. `--workload mixed-run` reproduces
/// that (README.md, "Known defects").
///
//===----------------------------------------------------------------------===//

#ifndef MPL_PERFBENCH_BATCH_H
#define MPL_PERFBENCH_BATCH_H

#include "Common.h"
#include "Trace.h"

#include "core/Runtime.h"

#include <functional>
#include <string>
#include <vector>

namespace pb {

struct OpSample {
  int Kind = 0;
  double Sec = 0;
};

/// What a pass body sees: the pass's runtime, where to record operation
/// latencies, and the checks.
struct PassCtx {
  mpl::rt::Runtime &Rt;
  Report &R;
  std::vector<OpSample> &Ops;
  bool Jit;
  uint64_t OrderSeed;
  mpl::WorkSpan WS; ///< Summed over the pass's runs.

  /// The order in which this pass runs its \p N operations: a permutation
  /// drawn from OrderSeed, new for every pass. The heap state an operation
  /// leaves behind (how much memory the C library trims and faults in
  /// again) depends on the operations before it, so one fixed order per
  /// seed would make whole runs differ by seed; a run covers many orders.
  std::vector<size_t> order(size_t N) const;

  /// Runs one operation as its own Runtime::run and times it.
  template <typename Fn> void op(int Kind, Fn &&Body) {
    double T0 = nowSec();
    mpl::WorkSpan W;
    {
      Span S("run");
      W = Rt.run(Body);
    }
    Ops.push_back({Kind, nowSec() - T0});
    WS.WorkSec += W.WorkSec;
    WS.SpanSec += W.SpanSec;
  }
};

struct BatchDef {
  /// Whether the operations run pml code. Only then do passes with the JIT
  /// on differ from passes with it off, so only then are they run.
  bool Jit = false;
  /// Operation kinds; per-kind latencies feed the workload's layer metrics.
  std::vector<std::string> KindNames;
  /// Timed set-up after the runtime starts: generate inputs from the seed
  /// (and, for pml, compile). Must be repeatable.
  std::function<void(uint64_t Seed)> Setup;
  /// Untimed: compute the independent references the checks compare to.
  std::function<void()> ComputeRefs;
  /// Untimed, before each pass (pml compiles fresh code).
  std::function<void()> BeforePass;
  /// The pass body; runs its operations through PassCtx::op.
  std::function<void(PassCtx &)> Pass;
  /// Traced run only: workload-specific layer metrics. \p Lat holds the
  /// per-kind median operation latency in seconds at P = host CPUs, [0]
  /// with the JIT off and [1] with it on (empty without Jit).
  std::function<void(Report &, const std::vector<double> (&Lat)[2])> Layer;
};

void runBatch(const Options &O, Report &R, BatchDef &D);

} // namespace pb

#endif // MPL_PERFBENCH_BATCH_H
