//===- perfbench/Probes.cpp - Layer unit-cost probes ---------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// Per-operation costs of each layer, timed from outside through public
// calls only (traced run). Each probe is a loop of one operation, repeated
// and reported as the median ns per operation. Costs that cannot be
// isolated in one call are taken as a difference of two sizes (pml call,
// capture+resume) so fixed start-up work cancels.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "core/Handles.h"
#include "core/Ops.h"
#include "core/Runtime.h"
#include "net/Client.h"
#include "net/Frame.h"
#include "net/Server.h"
#include "pml/Compiler.h"
#include "pml/Parser.h"
#include "pml/Types.h"
#include "pml/Vm.h"
#include "support/Stats.h"

#include <cstdio>

using namespace mpl;
using namespace mpl::ops;

namespace pb {

namespace {

constexpr int Reps = 5;

/// Median over Reps of \p Body's result (ns per operation).
template <typename Fn> double medianOf(Fn &&Body) {
  std::vector<double> V;
  for (int I = 0; I < Reps; ++I)
    V.push_back(Body());
  return median(V);
}

/// Runs \p Body inside a fresh Runtime with \p Workers workers.
template <typename Fn> double inRuntime(int Workers, Fn &&Body) {
  rt::Config RC;
  RC.NumWorkers = Workers;
  rt::Runtime Rt(RC);
  double Ns = 0;
  Rt.run([&] { Ns = Body(); });
  return Ns;
}

double parNs(int Workers) {
  constexpr int K = 20000;
  return inRuntime(Workers, [] {
    double T0 = nowSec();
    for (int I = 0; I < K; ++I)
      rt::par([] { return Slot(0); }, [] { return Slot(0); });
    return 1e9 * since(T0) / K;
  });
}

double allocNs() {
  constexpr int K = 200000;
  return inRuntime(1, [] {
    double T0 = nowSec();
    for (int I = 0; I < K; ++I)
      newRecord(0, {boxInt(I)});
    return 1e9 * since(T0) / K;
  });
}

/// Fills \p Board with K fresh records from the current heap.
void fillBoard(Object *Board, int K) {
  Local B(Board);
  for (int I = 0; I < K; ++I) {
    Local Rec(newRecord(0, {boxInt(I)}));
    arrSet(B.get(), static_cast<uint32_t>(I), Rec.slot());
  }
}

/// Reads of pointers into the reader's own heap (barrier fast path) or
/// into a sibling task's heap (entangled slow path).
double readNs(bool Entangled) {
  constexpr int K = 50000;
  return inRuntime(1, [Entangled] {
    Local Board(newArray(K, 0));
    auto Time = [&] {
      Slot Acc = 0;
      double T0 = nowSec();
      for (int I = 0; I < K; ++I)
        Acc ^= arrGet(Board.get(), static_cast<uint32_t>(I));
      double Ns = 1e9 * since(T0) / K;
      return Acc == 1 ? Ns + 1 : Ns; // Keeps the reads live.
    };
    if (!Entangled) {
      fillBoard(Board.get(), K);
      return Time();
    }
    // With one worker branch A finishes before B starts, but the heaps
    // join only after both: B reads objects of its sibling's heap.
    double Ns = 0;
    rt::par([&] { fillBoard(Board.get(), K); return Slot(0); },
            [&] { Ns = Time(); return Slot(0); });
    return Ns;
  });
}

/// Pointer writes into an object of the writer's own heap (fast path) or
/// into the parent task's object (a down-pointer, pinned by the barrier).
double writeNs(bool Down) {
  constexpr int K = 50000;
  return inRuntime(1, [Down] {
    Local Board(newArray(K, 0));
    auto Body = [&] {
      Local Objs(newArray(K, 0));
      fillBoard(Objs.get(), K);
      Object *Target = Down ? Board.get() : newArray(K, 0);
      Local T(Target);
      double T0 = nowSec();
      for (int I = 0; I < K; ++I)
        arrSet(T.get(), static_cast<uint32_t>(I),
               arrGet(Objs.get(), static_cast<uint32_t>(I)));
      return 1e9 * since(T0) / K;
    };
    if (!Down)
      return Body();
    double Ns = 0;
    rt::par([&] { Ns = Body(); return Slot(0); }, [] { return Slot(0); });
    return Ns;
  });
}

/// One forced local collection with about 8 MiB live, per live KiB.
double gcNsPerLiveKib() {
  constexpr int K = 200000;
  return inRuntime(1, [] {
    Local Live(newArray(K, 0));
    fillBoard(Live.get(), K);
    int64_t Before = StatRegistry::get().valueOf("gc.bytes.copied") +
                     StatRegistry::get().valueOf("gc.bytes.inplace");
    double T0 = nowSec();
    rt::Runtime::current()->maybeCollect(/*Force=*/true);
    double Ns = 1e9 * since(T0);
    int64_t LiveBytes = StatRegistry::get().valueOf("gc.bytes.copied") +
                        StatRegistry::get().valueOf("gc.bytes.inplace") -
                        Before;
    return LiveBytes > 0 ? Ns / (static_cast<double>(LiveBytes) / 1024.0) : 0;
  });
}

/// Seconds to run \p Src on the interpreter, one worker (front end
/// untimed); 0 when the program is rejected or traps.
double pmlRunSec(const std::string &Src) {
  std::vector<std::string> Errors;
  pml::ExprPtr Ast = pml::parseProgram(Src, Errors);
  pml::TypeChecker TC;
  pml::Program Prog;
  if (!Ast || !TC.infer(*Ast, Errors) || !pml::compile(*Ast, Prog, Errors))
    return 0;
  rt::Config RC;
  RC.NumWorkers = 1;
  rt::Runtime Rt(RC);
  double Sec = 0;
  Rt.run([&] {
    std::string Out;
    pml::Vm M(Prog, &Out);
    double T0 = nowSec();
    bool Ok = M.run().Ok;
    Sec = Ok ? since(T0) : 0;
  });
  return Sec;
}

std::string callLoop(int N) {
  return "fun id x = x\nfun loop i = if i = " + std::to_string(N) +
         " then 0 else let val u = id i in loop (i + 1) end\nloop 0";
}

std::string effLoop(int N) {
  return "effect Yield\nval acc = alloc 1 0\n"
         "fun produce i = if i = " +
         std::to_string(N) +
         " then () else (perform Yield i; produce (i + 1))\n"
         "fun sink u = handle produce 0 with\n"
         "  | Yield v k => (set acc 0 (get acc 0 + v); resume k ()) end\n"
         "sink ();\nget acc 0";
}

double codecNs(bool Decode) {
  constexpr int K = 100000;
  net::Request Q;
  Q.Id = 12345;
  Q.Kind = net::RequestKind::Workload;
  Q.DeadlineMs = 100;
  Q.Body = "sort 20000";
  std::string Frame = net::encodeFrame(net::encodeRequest(Q));
  size_t Sink = 0;
  double T0 = nowSec();
  if (Decode) {
    net::FrameReader FR;
    std::string Payload;
    net::Request Out;
    for (int I = 0; I < K; ++I) {
      FR.feed(Frame.data(), Frame.size());
      if (FR.next(Payload) == net::DecodeStatus::Ok &&
          net::decodeRequest(Payload, Out) == net::DecodeStatus::Ok)
        Sink += Out.Body.size();
    }
  } else {
    for (int I = 0; I < K; ++I) {
      Q.Id = static_cast<uint64_t>(I);
      Sink += net::encodeFrame(net::encodeRequest(Q)).size();
    }
  }
  double Ns = 1e9 * since(T0) / K;
  return Sink == 0 ? Ns + 1 : Ns;
}

/// Closed-loop ping round trips through net::Client, in ms.
std::vector<double> pingMs() {
  constexpr int K = 2000;
  std::vector<double> V;
  net::Server S(net::ServerConfig{});
  net::Client C;
  if (!S.start() || !C.connect(S.port()))
    return V;
  net::Request Q;
  net::Response Resp;
  for (int I = 0; I < K; ++I) {
    Q.Id = static_cast<uint64_t>(I + 1);
    double T0 = nowSec();
    if (!C.call(Q, Resp))
      break;
    V.push_back(1e3 * since(T0));
  }
  C.close();
  S.waitUntilDrained();
  return V;
}

} // namespace

void runProbes(Report &R) {
  const int P = hostCpus();
  R.set("core.par_ns.p1", medianOf([] { return parNs(1); }), "ns");
  R.set("core.par_ns.pN", medianOf([P] { return parNs(P); }), "ns");
  R.set("core.alloc_ns", medianOf(allocNs), "ns");
  R.set("em.read_fast_ns", medianOf([] { return readNs(false); }), "ns");
  R.set("em.read_entangled_ns", medianOf([] { return readNs(true); }), "ns");
  R.set("em.write_fast_ns", medianOf([] { return writeNs(false); }), "ns");
  R.set("em.write_down_ns", medianOf([] { return writeNs(true); }), "ns");
  R.set("gc.ns_per_live_kib", medianOf(gcNsPerLiveKib), "ns");

  constexpr int CallN = 100000, EffN = 200;
  double CallNs = medianOf([] {
    return 1e9 * (pmlRunSec(callLoop(2 * CallN)) - pmlRunSec(callLoop(CallN))) /
           CallN;
  });
  double CaptureNs = medianOf([] {
    return 1e9 * (pmlRunSec(effLoop(2 * EffN)) - pmlRunSec(effLoop(EffN))) /
           EffN;
  });
  R.check(CallNs > 0 && CaptureNs > 0, "probe: pml probe programs failed");
  R.set("pml.call_ns", CallNs, "ns");
  R.set("pml.capture_resume_ns", CaptureNs, "ns");

  R.set("net.encode_ns", medianOf([] { return codecNs(false); }), "ns");
  R.set("net.decode_ns", medianOf([] { return codecNs(true); }), "ns");
  std::vector<double> Ping = pingMs();
  R.check(Ping.size() == 2000, "probe: ping round trips failed");
  R.set("net.ping_p50_ms", median(Ping), "ms");
  R.set("net.ping_p99_ms", percentile(Ping, 0.99), "ms");
}

} // namespace pb
