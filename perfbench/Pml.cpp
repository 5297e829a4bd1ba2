//===- perfbench/Pml.cpp - The pml workload ------------------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// pml programs driven the way a pml user runs them: parseProgram, type
// inference, compile, then Vm::run inside Runtime::run, on the interpreter
// and with the JIT enabled. Every result is compared to a hand-written C++
// equivalent, never to another pml run.
//
//===----------------------------------------------------------------------===//

#include "Batch.h"

#include "Spec.h"
#include "baseline/Native.h"
#include "core/Ops.h"
#include "pml/Compiler.h"
#include "pml/Parser.h"
#include "pml/Types.h"
#include "pml/Vm.h"
#include "support/Random.h"

#include <algorithm>
#include <memory>

using namespace mpl;

namespace pb {

namespace {

enum { PFib, MSort, Sum, EffN, Eff2N, NumPrograms };
constexpr int PerProgram = 6;

/// Parallel fib with a sequential cutoff: par + calls.
std::string pfibSrc(int64_t N) {
  return "fun fib n = if n < 2 then n\n"
         "  else if n < 12 then fib (n - 1) + fib (n - 2)\n"
         "  else let val p = par (fib (n - 1), fib (n - 2)) in fst p + snd p "
         "end\n"
         "fib " +
         std::to_string(N);
}

/// Parallel array mergesort over LCG input: par + arrays + allocation. The
/// result is a rolling hash of the sorted array.
std::string msortSrc(int64_t N, int64_t Seed) {
  return "val n = " + std::to_string(N) +
         "\n"
         "fun fill a i seed = if i = length a then ()\n"
         "  else (set a i (seed % 100000);\n"
         "        fill a (i + 1) ((seed * 1103515245 + 12345) % 2147483647))\n"
         "fun copyRange src lo hi =\n"
         "  let val out = alloc (hi - lo) 0\n"
         "      fun go i = if i = hi then out else (set out (i - lo) (get src "
         "i); go (i + 1))\n"
         "  in go lo end\n"
         "fun merge l r =\n"
         "  let val out = alloc (length l + length r) 0\n"
         "      fun go i j k =\n"
         "        if i = length l then\n"
         "          (if j = length r then out\n"
         "           else (set out k (get r j); go i (j + 1) (k + 1)))\n"
         "        else if j = length r then (set out k (get l i); go (i + 1) j "
         "(k + 1))\n"
         "        else if get l i <= get r j then (set out k (get l i); go (i "
         "+ 1) j (k + 1))\n"
         "        else (set out k (get r j); go i (j + 1) (k + 1))\n"
         "  in go 0 0 0 end\n"
         "fun isort a =\n"
         "  let fun ins out i v =\n"
         "        if i > 0 andalso get out (i - 1) > v\n"
         "        then (set out i (get out (i - 1)); ins out (i - 1) v)\n"
         "        else set out i v\n"
         "      fun go i = if i = length a then a else (ins a i (get a i); go "
         "(i + 1))\n"
         "  in go 0 end\n"
         "fun msort a =\n"
         "  if length a < 256 then isort a\n"
         "  else\n"
         "    let val mid = length a / 2\n"
         "        val p = par (msort (copyRange a 0 mid), msort (copyRange a "
         "mid (length a)))\n"
         "    in merge (fst p) (snd p) end\n"
         "fun hash a i h = if i = length a then h\n"
         "  else hash a (i + 1) ((h * 31 + get a i) % 1000000007)\n"
         "val input = alloc n 0\n"
         "val u = fill input 0 " +
         std::to_string(Seed) +
         "\n"
         "hash (msort input) 0 0";
}

/// Curried two-argument loop: every step applies `f acc`, a partial
/// application closure, then the closure to `i`.
std::string sumSrc(int64_t N) {
  return "fun add a b = a + b\n"
         "fun loop f i acc = if i = " +
         std::to_string(N) +
         " then acc else loop f (i + 1) (f acc i)\n"
         "loop add 0 0";
}

/// Two-stage Yield/Out generator pipeline: 2N captures and 2N resumes.
std::string effSrc(int64_t N) {
  return "effect Yield\n"
         "effect Out\n"
         "val acc = alloc 1 0\n"
         "fun produce i = if i = " +
         std::to_string(N) +
         " then () else (perform Yield i; produce (i + 1))\n"
         "fun stage1 u = handle produce 0 with\n"
         "  | Yield v k => (perform Out (v * 2 + 1); resume k ()) end\n"
         "fun sink u = handle stage1 () with\n"
         "  | Out v k => (set acc 0 (get acc 0 + v); resume k ()) end\n"
         "sink ();\n"
         "get acc 0";
}

/// The C++ equivalent of msortSrc: same LCG, std::sort, same hash.
int64_t msortRef(int64_t N, int64_t Seed) {
  std::vector<int64_t> A(static_cast<size_t>(N));
  for (int64_t &X : A) {
    X = Seed % 100000;
    Seed = (Seed * 1103515245 + 12345) % 2147483647;
  }
  std::sort(A.begin(), A.end());
  int64_t H = 0;
  for (int64_t X : A)
    H = (H * 31 + X) % 1000000007;
  return H;
}

struct PmlOp {
  int Kind = 0;
  int64_t N = 0;
  int64_t Seed = 0;
  std::string Src;
};

/// Front end of one source; fills phase times when \p Times is non-null.
/// Returns null (and records a failed check) when the source is rejected.
std::unique_ptr<pml::Program> frontEnd(const std::string &Src, Report &R,
                                       double *Times) {
  std::vector<std::string> Errors;
  auto Prog = std::make_unique<pml::Program>();
  double T0 = nowSec();
  pml::ExprPtr Ast;
  {
    Span S("pml.parse");
    Ast = pml::parseProgram(Src, Errors);
  }
  double T1 = nowSec();
  bool Ok = Ast != nullptr;
  if (Ok) {
    Span S("pml.typecheck");
    pml::TypeChecker TC;
    Ok = TC.infer(*Ast, Errors) != nullptr;
  }
  double T2 = nowSec();
  if (Ok) {
    Span S("pml.compile");
    Ok = pml::compile(*Ast, *Prog, Errors);
  }
  double T3 = nowSec();
  if (Times) {
    Times[0] += T1 - T0;
    Times[1] += T2 - T1;
    Times[2] += T3 - T2;
  }
  if (!R.check(Ok, "pml front end rejected a benchmark program: " +
                       (Errors.empty() ? std::string() : Errors.front())))
    return nullptr;
  return Prog;
}

} // namespace

void runPml(const Options &O, Report &R) {
  std::vector<PmlOp> Ops;
  std::vector<int64_t> Refs;
  std::vector<std::unique_ptr<pml::Program>> Progs;
  std::vector<double> FrontMs[3];
  int64_t CodeOps = 0;

  BatchDef D;
  D.Jit = true;
  D.KindNames.assign(PmlProgramNames, PmlProgramNames + NumPrograms);
  D.Setup = [&](uint64_t Seed) {
    {
      Span S("gen");
      // Sizes step evenly through fixed ranges; the seed picks the msort
      // input, so every seed runs the same amount of work.
      Rng G(Seed);
      Ops.clear();
      for (int I = 0; I < PerProgram; ++I) {
        auto Step = [&](int64_t Lo, int64_t Hi) {
          return Lo + (Hi - Lo) * I / (PerProgram - 1);
        };
        PmlOp Ps[NumPrograms];
        Ps[PFib].N = Step(17, 20);
        Ps[MSort].N = Step(1200, 2400);
        Ps[MSort].Seed = 1 + static_cast<int64_t>(G.nextBounded(1 << 30));
        Ps[Sum].N = Step(10000, 20000);
        Ps[EffN].N = Step(100, 150);
        Ps[Eff2N].N = 2 * Ps[EffN].N;
        Ps[PFib].Src = pfibSrc(Ps[PFib].N);
        Ps[MSort].Src = msortSrc(Ps[MSort].N, Ps[MSort].Seed);
        Ps[Sum].Src = sumSrc(Ps[Sum].N);
        Ps[EffN].Src = effSrc(Ps[EffN].N);
        Ps[Eff2N].Src = effSrc(Ps[Eff2N].N);
        for (int K = 0; K < NumPrograms; ++K) {
          Ps[K].Kind = K;
          Ops.push_back(std::move(Ps[K]));
        }
      }
    }
    double Times[3] = {0, 0, 0};
    CodeOps = 0;
    for (const PmlOp &Op : Ops)
      if (auto P = frontEnd(Op.Src, R, Times))
        for (const pml::FnProto &F : P->Fns)
          CodeOps += static_cast<int64_t>(F.Code.size());
    for (int I = 0; I < 3; ++I)
      FrontMs[I].push_back(1e3 * Times[I]);
  };
  auto RefOf = [](const PmlOp &Op) -> int64_t {
    switch (Op.Kind) {
    case PFib:
      return nat::fib(Op.N);
    case MSort:
      return msortRef(Op.N, Op.Seed);
    case Sum:
      return Op.N * (Op.N - 1) / 2;
    default: // Sum of 2i+1 for i < N.
      return Op.N * Op.N;
    }
  };
  D.ComputeRefs = [&] {
    for (const PmlOp &Op : Ops)
      Refs.push_back(R.expect(RefOf(Op)));
  };
  // Fresh programs per pass, so the JIT tiers every pass from cold.
  D.BeforePass = [&] {
    Progs.clear();
    for (const PmlOp &Op : Ops)
      Progs.push_back(frontEnd(Op.Src, R, nullptr));
  };
  // Programs run in their generated order, size by size, in every pass.
  // Unlike the native workloads' orders it never depended on the seed, and
  // fresh orders per pass widened the P = 1 spread (README.md, "Order").
  D.Pass = [&](PassCtx &C) {
    for (size_t I = 0; I < Ops.size(); ++I) {
      const PmlOp &Op = Ops[I];
      if (!Progs[I])
        continue;
      std::string Out;
      pml::Vm::Result Res;
      C.op(Op.Kind, [&] {
        pml::Vm M(*Progs[I], &Out);
        Span S("pml.vm");
        Res = M.run();
      });
      C.R.check(Res.Ok && ops::unboxInt(Res.Value) == Refs[I],
                std::string("pml ") + PmlProgramNames[Op.Kind] +
                    " n=" + std::to_string(Op.N) +
                    (C.Jit ? " (jit)" : " (interp)") + " result " +
                    (Res.Ok ? std::to_string(ops::unboxInt(Res.Value))
                            : "trap: " + Res.Error) +
                    " != " + std::to_string(Refs[I]));
    }
  };
  D.Layer = [&](Report &Rep, const std::vector<double> (&Lat)[2]) {
    Rep.set("pml.parse_ms", median(FrontMs[0]), "ms");
    Rep.set("pml.typecheck_ms", median(FrontMs[1]), "ms");
    Rep.set("pml.compile_ms", median(FrontMs[2]), "ms");
    Rep.set("pml.code_ops", static_cast<double>(CodeOps), "count");
    for (int K = 0; K < NumPrograms; ++K) {
      Rep.set(std::string("pml.vm_ms.") + PmlProgramNames[K], 1e3 * Lat[0][K],
              "ms");
      Rep.set(std::string("jit.vm_ms.") + PmlProgramNames[K], 1e3 * Lat[1][K],
              "ms");
    }
    Rep.set("pml.eff_growth", Lat[0][EffN] > 0 ? Lat[0][Eff2N] / Lat[0][EffN] : 0,
            "ratio");
  };
  runBatch(O, R, D);
}

} // namespace pb
