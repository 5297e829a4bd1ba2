//===- perfbench/Trace.cpp - In-memory spans of the traced run -----------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "Common.h"

#include <algorithm>
#include <cstdio>

namespace pb {

const char *const SpanNames[] = {
    "setup",        // runtime/server start, input generation, compile
    "gen",          // seeded input generation
    "pass",         // one timed pass (a batch of operations or requests)
    "run",          // one Runtime::run: a kernel call or a program run
    "pml.parse",    // pml::parseProgram
    "pml.typecheck", // TypeChecker::infer
    "pml.compile",  // pml::compile
    "pml.vm",       // Vm::run
    "net.request",  // client send -> reply, one served request
};
const size_t NumSpanNames = sizeof(SpanNames) / sizeof(SpanNames[0]);

namespace {
thread_local std::vector<uint64_t> OpenStack;
} // namespace

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

uint64_t Tracer::begin(const char *Name, uint64_t ReqId) {
  if (!Enabled)
    return 0;
  uint64_t Parent = OpenStack.empty() ? 0 : OpenStack.back();
  uint64_t Id;
  {
    std::lock_guard<std::mutex> G(Lock);
    Spans.push_back({Name, nowSec(), -1.0, Parent, ReqId});
    Id = Spans.size();
  }
  OpenStack.push_back(Id);
  return Id;
}

void Tracer::end(uint64_t Id) {
  if (Id == 0)
    return;
  double T = nowSec();
  {
    std::lock_guard<std::mutex> G(Lock);
    Spans[Id - 1].End = T;
  }
  if (!OpenStack.empty() && OpenStack.back() == Id)
    OpenStack.pop_back();
}

void Tracer::record(const char *Name, double Start, double End,
                    uint64_t Parent, uint64_t ReqId) {
  if (!Enabled)
    return;
  std::lock_guard<std::mutex> G(Lock);
  Spans.push_back({Name, Start, End, Parent, ReqId});
}

uint64_t Tracer::current() const {
  return OpenStack.empty() ? 0 : OpenStack.back();
}

std::map<std::string, double> Tracer::selfSeconds() const {
  std::lock_guard<std::mutex> G(Lock);
  std::vector<std::vector<std::pair<double, double>>> Kids(Spans.size());
  for (const Rec &S : Spans)
    if (S.Parent != 0 && S.End >= 0)
      Kids[S.Parent - 1].push_back({S.Start, S.End});
  std::map<std::string, double> Self;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Rec &S = Spans[I];
    if (S.End < 0)
      continue;
    // Union of the children's intervals, clipped to the span: concurrent
    // children (served requests in flight together) are not counted twice.
    auto &K = Kids[I];
    std::sort(K.begin(), K.end());
    double Covered = 0, CurLo = 0, CurHi = -1;
    for (auto [Lo, Hi] : K) {
      Lo = std::max(Lo, S.Start);
      Hi = std::min(Hi, S.End);
      if (Hi <= Lo)
        continue;
      if (Lo > CurHi) {
        if (CurHi > CurLo)
          Covered += CurHi - CurLo;
        CurLo = Lo;
        CurHi = Hi;
      } else {
        CurHi = std::max(CurHi, Hi);
      }
    }
    if (CurHi > CurLo)
      Covered += CurHi - CurLo;
    Self[S.Name] += std::max(0.0, (S.End - S.Start) - Covered);
  }
  return Self;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> G(Lock);
  std::fputs("{\"spans\":[", F);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Rec &S = Spans[I];
    std::fprintf(F,
                 "%s\n{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,"
                 "\"end\":%.9f,\"parent\":%llu,\"req\":%llu}",
                 I ? "," : "", I + 1, S.Name, S.Start, S.End,
                 static_cast<unsigned long long>(S.Parent),
                 static_cast<unsigned long long>(S.ReqId));
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}

} // namespace pb
