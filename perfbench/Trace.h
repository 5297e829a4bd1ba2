//===- perfbench/Trace.h - In-memory spans of the traced run -----*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own span recorder. Spans are opened around the
/// benchmark's calls into each layer (setup, Runtime::run, the pml front end
/// and VM, a client request from send to reply); the runtime itself is not
/// instrumented. Records stay in memory and are written once at exit. A
/// span's parent is the innermost span open on the same thread when it
/// began; spans of one served request share its request id.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_PERFBENCH_TRACE_H
#define MPL_PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

class Tracer {
public:
  static Tracer &get();

  void setEnabled(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }

  /// Opens a span on the calling thread; returns 0 when tracing is off.
  uint64_t begin(const char *Name, uint64_t ReqId = 0);
  void end(uint64_t Id);

  /// Records an already finished span (times from nowSec()) under \p Parent.
  void record(const char *Name, double Start, double End, uint64_t Parent,
              uint64_t ReqId);

  /// The innermost span open on the calling thread (0 if none).
  uint64_t current() const;

  /// Per span name: total self time, i.e. duration minus the part of the
  /// span's interval covered by its children.
  std::map<std::string, double> selfSeconds() const;

  /// Writes every span as JSON ({"spans":[{id,name,start,end,parent,req}]}).
  bool write(const std::string &Path) const;

private:
  struct Rec {
    const char *Name;
    double Start;
    double End;
    uint64_t Parent;
    uint64_t ReqId;
  };
  mutable std::mutex Lock;
  std::vector<Rec> Spans; ///< Span id N is Spans[N - 1].
  bool Enabled = false;
};

/// RAII span around one call into a layer.
class Span {
public:
  explicit Span(const char *Name, uint64_t ReqId = 0)
      : Id(Tracer::get().begin(Name, ReqId)) {}
  ~Span() { Tracer::get().end(Id); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  uint64_t Id;
};

/// The span names the traced run records, in report order. Each one yields
/// a self_s.<name> metric.
extern const char *const SpanNames[];
extern const size_t NumSpanNames;

} // namespace pb

#endif // MPL_PERFBENCH_TRACE_H
