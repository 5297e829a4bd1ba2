//===- perfbench/Spec.h - Workloads and metric names --------------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single list of workloads and metrics. `perfbench --spec` renders it
/// as BENCHMARK.json, and the traced run pre-fills every per-layer name so
/// each workload reports the same set (0 where a layer does no work).
///
//===----------------------------------------------------------------------===//

#ifndef MPL_PERFBENCH_SPEC_H
#define MPL_PERFBENCH_SPEC_H

#include <string>

namespace pb {

class Report;

/// Prints BENCHMARK.json to stdout.
void printSpec();

/// Sets every per-layer metric to 0 with its unit.
void fillLayerDefaults(Report &R);

/// Whether \p Name is a per-layer metric of BENCHMARK.json. The serve
/// workload also prints layer metrics of its own that are not listed.
bool declaredLayer(const std::string &Name);

/// The pml programs and served request kinds that name per-layer metrics.
extern const char *const PmlProgramNames[5];
extern const char *const ServeKindNames[5];

} // namespace pb

#endif // MPL_PERFBENCH_SPEC_H
