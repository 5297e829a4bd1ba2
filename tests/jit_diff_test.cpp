//===- tests/jit_diff_test.cpp - Interp-vs-JIT differential plane ---------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// The JIT's correctness contract (DESIGN.md §17) is *bit-identical
// observable behavior* with the interpreter: same values, same print
// output, same trap messages, same Detect-mode rejections — and, because
// the templates inline the entanglement barrier fast paths, the same em
// counter totals, event for event. This suite enforces the contract
// differentially: every corpus program runs twice per barrier mode, once
// pinned to the interpreter and once with the JIT forced hot (threshold 1,
// so every function compiles on its first call), and the two outcomes must
// match field by field.
//
// Counter checksums are compared on successful single-worker runs (a
// deterministic schedule makes the event sequence exactly reproducible; a
// trapping run unwinds mid-program, where "how far did it get" is the
// interpreter's business, not the contract's). Every successful run must
// also end with zero leaked pins, in both tiers.
//
//===----------------------------------------------------------------------===//

#include "chaos/ChaosSchedule.h"
#include "core/Em.h"
#include "core/Runtime.h"
#include "pml/Compiler.h"
#include "pml/Parser.h"
#include "pml/Types.h"
#include "pml/Vm.h"
#include "pml/jit/Jit.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

using namespace mpl;
using namespace mpl::pml;

namespace {

//===----------------------------------------------------------------------===//
// Tiered run harness
//===----------------------------------------------------------------------===//

struct TierOutcome {
  bool Ok = false;
  std::string Value;
  std::string Output;
  std::string Error;
  em::CounterSnapshot Counters;
  size_t Compiled = 0;     ///< Functions the JIT tier compiled this run.
  int64_t JitEntries = 0;  ///< Dispatcher entries into native code.
};

/// Restores the process-wide JIT gates on scope exit so a failing test
/// cannot leak "JIT forced on" into unrelated suites.
struct JitGateGuard {
  ~JitGateGuard() {
    jit::setEnabled(false);
    jit::setCompileThreshold(64);
  }
};

/// A program through the front end. T is owned by TC and types main.
struct FrontEnd {
  TypeChecker TC;
  Program Prog;
  Ty *T = nullptr;
};

bool frontEnd(const std::string &Src, FrontEnd &F) {
  std::vector<std::string> Errs;
  ExprPtr Ast = parseProgram(Src, Errs);
  EXPECT_TRUE(Ast) << (Errs.empty() ? "parse failed" : Errs[0]);
  if (!Ast)
    return false;
  F.T = F.TC.infer(*Ast, Errs);
  EXPECT_TRUE(F.T) << (Errs.empty() ? "type error" : Errs[0]);
  if (!F.T)
    return false;
  bool Compiled = compile(*Ast, F.Prog, Errs);
  EXPECT_TRUE(Compiled) << (Errs.empty() ? "compile failed" : Errs[0]);
  return Compiled;
}

rt::Config tierConfig(int Workers, em::Mode Mode) {
  rt::Config Cfg;
  Cfg.NumWorkers = Workers;
  Cfg.Profile = false;
  Cfg.GcMinBytes = 1 << 18;
  Cfg.Mode = Mode;
  return Cfg;
}

/// Runs \p F once on \p Rt under the JIT gates the caller set.
TierOutcome runOn(rt::Runtime &Rt, FrontEnd &F) {
  TierOutcome R;
  em::Counts.reset();
  int64_t Entries0 = StatRegistry::get().valueOf("pml.jit.entries");
  try {
    Rt.run([&] {
      // Values must be rendered before the run's heaps are torn down.
      Vm M(F.Prog, &R.Output);
      Vm::Result Res = M.run();
      if (Res.Ok) {
        R.Ok = true;
        R.Value = renderValue(Res.Value, F.T);
      } else {
        R.Error = Res.Error;
      }
    });
  } catch (const std::exception &E) {
    // Detect-mode EntanglementError (and governor OOM) unwind out of
    // Rt.run by design; both tiers must surface the identical message.
    R.Ok = false;
    R.Error = E.what();
  }
  R.Counters = em::Counts.snapshot();
  R.Compiled = F.Prog.Jit ? F.Prog.Jit->compiledCount() : 0;
  R.JitEntries = StatRegistry::get().valueOf("pml.jit.entries") - Entries0;
  return R;
}

TierOutcome runTier(const std::string &Src, int Workers, em::Mode Mode,
                    bool UseJit) {
  JitGateGuard Guard;
  jit::setCompileThreshold(1);
  jit::setEnabled(UseJit);
  FrontEnd F;
  if (!frontEnd(Src, F))
    return TierOutcome{};
  rt::Runtime Rt(tierConfig(Workers, Mode));
  return runOn(Rt, F);
}

void expectCountersEqual(const em::CounterSnapshot &I,
                         const em::CounterSnapshot &J, const char *Name) {
#define MPL_CMP(F) EXPECT_EQ(I.F, J.F) << Name << ": em counter " #F
  MPL_CMP(EntangledReads);
  MPL_CMP(EntangledReadsUnpinned);
  MPL_CMP(DownPointerPins);
  MPL_CMP(CrossPointerPins);
  MPL_CMP(PinnedHolderPins);
  MPL_CMP(PinnedObjects);
  MPL_CMP(PinnedBytes);
  MPL_CMP(UnpinnedObjects);
  MPL_CMP(UnpinnedBytes);
  MPL_CMP(ContCaptured);
  MPL_CMP(ContResumed);
#undef MPL_CMP
}

//===----------------------------------------------------------------------===//
// Corpus
//===----------------------------------------------------------------------===//

enum : unsigned {
  MOff = 1,
  MDetect = 2,
  MManage = 4,
  MAll = MOff | MDetect | MManage,
};

struct DiffProgram {
  const char *Name;
  const char *Src;
  int Workers;
  unsigned Modes; ///< Off is only sound for disentangled programs.
};

// f holds 43 value-stack slots per level: [closure, n], 40 let locals and
// the pending operand a1 (the slot arithmetic is in pml_test's
// PmlVmStacks.StackCapTrapsExactlyAtTheLimit). In a par branch f 1523 is
// the deepest call that fits the 2^16-slot stack; f 1524 overflows it.
#define MPL_FAT_FRAMES_SRC                                                     \
  "fun f n = if n = 0 then 0 else let\n"                                       \
  "  val a1 = n + 1 val a2 = n + 2 val a3 = n + 3 val a4 = n + 4\n"            \
  "  val a5 = n + 5 val a6 = n + 6 val a7 = n + 7 val a8 = n + 8\n"            \
  "  val a9 = n + 9 val a10 = n + 10 val a11 = n + 11 val a12 = n + 12\n"      \
  "  val a13 = n + 13 val a14 = n + 14 val a15 = n + 15 val a16 = n + 16\n"    \
  "  val a17 = n + 17 val a18 = n + 18 val a19 = n + 19 val a20 = n + 20\n"    \
  "  val a21 = n + 21 val a22 = n + 22 val a23 = n + 23 val a24 = n + 24\n"    \
  "  val a25 = n + 25 val a26 = n + 26 val a27 = n + 27 val a28 = n + 28\n"    \
  "  val a29 = n + 29 val a30 = n + 30 val a31 = n + 31 val a32 = n + 32\n"    \
  "  val a33 = n + 33 val a34 = n + 34 val a35 = n + 35 val a36 = n + 36\n"    \
  "  val a37 = n + 37 val a38 = n + 38 val a39 = n + 39 val a40 = n + 40\n"    \
  "  in a1 + f (n - 1) end\n"

// d n holds n + 1 frames at its deepest call, and a par branch's thunk
// tail-calls it, so in a branch d (MaxCallDepth - 1) fills the Vm's frame
// stack exactly and d MaxCallDepth passes it. A resume reinstates those
// frames on top of the branch thunk and the resuming arm: n + 3 frames
// (the frame arithmetic is in pml_test's PmlVmLimits tests).
std::string callDepthInPar(int N) {
  return "fun d n = if n = 0 then 0 else 1 + d (n - 1)\n"
         "val p = par (d " +
         std::to_string(N) + ", 0)\nfst p";
}
std::string resumeDepthInPar(int N) {
  return "effect E\n"
         "fun d n = if n = 0 then perform E 0 else 1 + d (n - 1)\n"
         "val p = par (handle d " +
         std::to_string(N) + " with | E x k => resume k 0 end, 0)\nfst p";
}
const std::string CallDepthAtLimit = callDepthInPar(Vm::MaxCallDepth - 1);
const std::string CallDepthOver = callDepthInPar(Vm::MaxCallDepth);
const std::string ResumeDepthAtLimit = resumeDepthInPar(Vm::MaxCallDepth - 3);
const std::string ResumeDepthOver = resumeDepthInPar(Vm::MaxCallDepth - 2);

const DiffProgram Corpus[] = {
    // Inline templates: tagged arithmetic, comparisons, bool ops.
    {"arith_mix",
     "printInt (1 + 2 * 3 - 4);\n"
     "printInt (17 / 5); printInt (17 % 5); printInt (-(5) + 2);\n"
     "printInt (if 1 < 2 andalso 3 <> 4 then 1 else 0);\n"
     "printInt (if not (1 = 1) orelse 2 >= 2 then 7 else 8)",
     1, MAll},
    // Inline trap stubs, same messages as the interpreter.
    {"trap_div_zero", "fun f x = x / (x - x)\nf 3", 1, MAll},
    {"trap_mod_zero", "5 % 0", 1, MAll},
    {"trap_oob", "get (alloc 2 0) 5", 1, MAll},
    {"trap_alloc_out_of_range", "alloc (0 - 1) 0", 1, MAll},
    {"trap_match_fail", "case [1] of [] => 0", 1, MAll},
    {"trap_non_tail_recursion",
     "fun loop x = loop x + 1\nloop 0", 1, MAll},
    // Closures, captures (LoadCapture read barrier), FixSelf.
    {"closures_nested_capture",
     "fun add x y = x + y\n"
     "val inc = add 1\n"
     "let val a = 1\n"
     "in printInt ((fn x => fn y => a + x + y) 2 3); printInt (inc 41) end",
     1, MAll},
    {"recursion_fib",
     "fun fib n = if n < 2 then n else fib (n-1) + fib (n-2)\n"
     "printInt (fib 18)",
     1, MAll},
    // The self-tail-call fast path: frame rebuild fully in native code.
    {"tail_self_loop",
     "fun loop i acc = if i = 0 then acc else loop (i - 1) (acc + i)\n"
     "printInt (loop 300000 0)",
     1, MAll},
    // Generic tail calls through a ref'd closure (helper path).
    {"tail_cross_functions",
     "val next = ref (fn x => x)\n"
     "fun stepA n = if n = 0 then 0 else !next (n - 1)\n"
     "fun stepB n = if n = 0 then 1 else stepA (n - 1)\n"
     "next := stepB;\n"
     "printInt (stepA 100000)",
     1, MAll},
    // Eq/Ne: inline identity/immediate cases plus the structural helper.
    {"equality_structural",
     "printInt (if \"ab\" = \"ab\" then 1 else 0);\n"
     "printInt (if \"ab\" = \"ac\" then 1 else 0);\n"
     "printInt (if (1, true) = (1, true) then 1 else 0);\n"
     "printInt (if (1, 2) <> (1, 3) then 1 else 0);\n"
     "let val r = ref 0 in printInt (if r = r then 1 else 0) end",
     1, MAll},
    // Refs: MkRef/Deref/Assign templates with write-barrier fast path.
    {"refs_loop",
     "let val r = ref 0\n"
     " fun go i = if i = 1000 then () else (r := !r + i; go (i+1))\n"
     "in go 0; printInt (!r) end",
     1, MAll},
    // Arrays: Alloc helper, AGet/ASet/ALen templates with bounds checks.
    {"arrays_fill_sum",
     "let val a = alloc 64 0\n"
     " fun fill i = if i = 64 then () else (set a i (i * i); fill (i+1))\n"
     " fun sum i acc = if i = 64 then acc else sum (i+1) (acc + get a i)\n"
     "in fill 0; printInt (sum 0 0); printInt (length a) end",
     1, MAll},
    {"lists_case",
     "fun sum xs = case xs of [] => 0 | h :: t => h + sum t\n"
     "printInt (sum [1, 2, 3, 4, 5])",
     1, MAll},
    {"strings_print",
     "print \"hello \"; print \"world\\n\"; printInt 42",
     1, MAll},
    // ParCall helper: fork-join with disentangled branches.
    {"par_fill_tree",
     "let val a = alloc 100 0\n"
     "    fun fill lo hi = if hi - lo < 1 then ()\n"
     "      else if hi - lo = 1 then set a lo lo\n"
     "      else let val mid = (lo + hi) / 2\n"
     "           val p = par (fill lo mid, fill mid hi) in () end\n"
     "    fun sum i = if i = 100 then 0 else get a i + sum (i + 1)\n"
     "in fill 0 100; printInt (sum 0) end",
     1, MAll},
    {"par_fill_tree_p3",
     "let val a = alloc 100 0\n"
     "    fun fill lo hi = if hi - lo < 1 then ()\n"
     "      else if hi - lo = 1 then set a lo lo\n"
     "      else let val mid = (lo + hi) / 2\n"
     "           val p = par (fill lo mid, fill mid hi) in () end\n"
     "    fun sum i = if i = 100 then 0 else get a i + sum (i + 1)\n"
     "in fill 0 100; printInt (sum 0) end",
     3, MAll},
    {"par_trap_in_branch", "par (1 / 0, 2)", 1, MAll},
    // The value-stack limit inside a par branch: same boundary, same trap.
    {"par_stack_at_cap", MPL_FAT_FRAMES_SRC "val p = par (f 1523, 0)\nfst p",
     1, MAll},
    {"trap_stack_overflow_in_par",
     MPL_FAT_FRAMES_SRC "val p = par (f 1524, 0)\nfst p", 1, MAll},
    // The call-depth limit, reached by a call and by a resume.
    {"par_call_depth_at_limit", CallDepthAtLimit.c_str(), 1, MAll},
    {"trap_call_depth_in_par", CallDepthOver.c_str(), 1, MAll},
    {"par_resume_depth_at_limit", ResumeDepthAtLimit.c_str(), 1, MAll},
    {"trap_resume_depth_in_par", ResumeDepthOver.c_str(), 1, MAll},
    // Entangled: branch B reads an object branch A just published. Manage
    // pins it; Detect rejects it; Off is unsound by construction — both
    // tiers must do exactly the same thing, so Off is excluded.
    {"par_entangled_read",
     "let val r = ref (ref 0)\n"
     "    val p = par ((r := ref 7; 0), !(!r))\n"
     "in printInt 1 end",
     1, MDetect | MManage},
    // Effects: Suspend/Resume/Handle exit helpers, continuation pins.
    {"eff_basic_resume",
     "effect Ask\n"
     "fun client x = perform Ask x + perform Ask 10\n"
     "printInt (handle client 1 with | Ask n k => resume k (n * 100) end)",
     1, MAll},
    {"eff_abort",
     "effect Abort\n"
     "printInt (handle 1 + perform Abort 0 with | Abort x k => 42 end)",
     1, MAll},
    {"eff_state_encoding",
     "effect Get\n"
     "effect Put\n"
     "fun runState init body =\n"
     "  (handle (fn r => fn s => r) (body 0) with\n"
     "   | Get u k => fn s => (resume k s) s\n"
     "   | Put v k => fn s => (resume k ()) v\n"
     "   end) init\n"
     "printInt (runState 10 (fn u =>\n"
     "  let val a = perform Get ()\n"
     "  in perform Put (a * 3); perform Get () + 1 end))",
     1, MAll},
    {"eff_deep_perform",
     "effect E\n"
     "fun down n = if n = 0 then perform E 0 else down (n - 1) + 1\n"
     "printInt (handle down 100 with | E x k => resume k 5 end)",
     1, MAll},
    {"eff_unhandled", "effect E\nperform E 1", 1, MAll},
    {"eff_resume_twice",
     "effect E\n"
     "handle perform E 0 with | E x k => resume k 1 + resume k 2 end",
     1, MAll},
    {"eff_resume_in_par",
     "effect Yield\n"
     "val r =\n"
     "  handle 100 + perform Yield 0 with\n"
     "  | Yield x k =>\n"
     "      let val p = par (resume k 7, 1 + 1)\n"
     "      in fst p * snd p end\n"
     "  end\n"
     "printInt r",
     3, MManage},
    // Curried two-argument calls: `f acc` builds a partial-application
    // closure every step, then applies it to `i`.
    {"curried_partial_loop",
     "fun add a b = a + b\n"
     "fun loop f i acc = if i = 3000 then acc else loop f (i + 1) (f acc i)\n"
     "printInt (loop add 0 0)",
     1, MAll},
    // Parallel mergesort at four workers: par, arrays allocated in each
    // branch, and curried three-argument local closures (`go i j k`) that
    // every strand runs once the tier is up.
    {"par_msort_p4",
     "fun fill a i seed = if i = length a then ()\n"
     "  else (set a i (seed % 1000);\n"
     "        fill a (i + 1) ((seed * 1103515245 + 12345) % 2147483647))\n"
     "fun copyRange src lo hi =\n"
     "  let val out = alloc (hi - lo) 0\n"
     "      fun go i = if i = hi then out\n"
     "                 else (set out (i - lo) (get src i); go (i + 1))\n"
     "  in go lo end\n"
     "fun merge l r =\n"
     "  let val out = alloc (length l + length r) 0\n"
     "      fun go i j k =\n"
     "        if i = length l then\n"
     "          (if j = length r then out\n"
     "           else (set out k (get r j); go i (j + 1) (k + 1)))\n"
     "        else if j = length r then\n"
     "          (set out k (get l i); go (i + 1) j (k + 1))\n"
     "        else if get l i <= get r j then\n"
     "          (set out k (get l i); go (i + 1) j (k + 1))\n"
     "        else (set out k (get r j); go i (j + 1) (k + 1))\n"
     "  in go 0 0 0 end\n"
     "fun isort a =\n"
     "  let fun ins out i v =\n"
     "        if i > 0 andalso get out (i - 1) > v\n"
     "        then (set out i (get out (i - 1)); ins out (i - 1) v)\n"
     "        else set out i v\n"
     "      fun go i = if i = length a then a\n"
     "                 else (ins a i (get a i); go (i + 1))\n"
     "  in go 0 end\n"
     "fun msort a =\n"
     "  if length a < 16 then isort a\n"
     "  else\n"
     "    let val mid = length a / 2\n"
     "        val p = par (msort (copyRange a 0 mid),\n"
     "                     msort (copyRange a mid (length a)))\n"
     "    in merge (fst p) (snd p) end\n"
     "fun hash a i h = if i = length a then h\n"
     "  else hash a (i + 1) ((h * 31 + get a i) % 1000000007)\n"
     "val input = alloc 600 0\n"
     "val u = fill input 0 7\n"
     "val sorted = msort input\n"
     "printInt (get sorted 0); printInt (get sorted 599);\n"
     "printInt (hash sorted 0 0)",
     4, MAll},
};

struct ModeCase {
  em::Mode Mode;
  const char *Name;
};
const ModeCase ModeCases[] = {
    {em::Mode::Off, "Off"},
    {em::Mode::Detect, "Detect"},
    {em::Mode::Manage, "Manage"},
};
unsigned modeBit(em::Mode M) {
  return M == em::Mode::Off ? MOff : M == em::Mode::Detect ? MDetect : MManage;
}

//===----------------------------------------------------------------------===//
// The differential plane
//===----------------------------------------------------------------------===//

class JitDiffTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(JitDiffTest, InterpAndJitAgree) {
  const DiffProgram &P = Corpus[static_cast<size_t>(std::get<0>(GetParam()))];
  const ModeCase &MC = ModeCases[static_cast<size_t>(std::get<1>(GetParam()))];
  if (!(P.Modes & modeBit(MC.Mode)))
    GTEST_SKIP() << P.Name << " is not sound under mode " << MC.Name;

  TierOutcome I = runTier(P.Src, P.Workers, MC.Mode, /*UseJit=*/false);
  TierOutcome J = runTier(P.Src, P.Workers, MC.Mode, /*UseJit=*/true);

  // The observable contract: same success/failure, same value, same print
  // output, same trap/error message.
  EXPECT_EQ(I.Ok, J.Ok) << P.Name << " interp='" << I.Error << "' jit='"
                        << J.Error << "'";
  EXPECT_EQ(I.Value, J.Value) << P.Name;
  EXPECT_EQ(I.Output, J.Output) << P.Name;
  EXPECT_EQ(I.Error, J.Error) << P.Name;

  // The interpreter tier must never create JIT state.
  EXPECT_EQ(I.Compiled, 0u) << P.Name;
  EXPECT_EQ(I.JitEntries, 0) << P.Name;

  // The JIT tier must actually run native code — a silently-bailing JIT
  // would make this whole suite vacuous. (Under tsan or on non-x86-64 the
  // gate force-disables itself; the differential claim still holds, it is
  // just interp-vs-interp there.)
  if (jit::enabled() || (!jit::tsanForcedOff() && MPL_JIT_SUPPORTED)) {
    EXPECT_GE(J.Compiled, 1u) << P.Name << ": nothing tiered up at threshold 1";
    EXPECT_GE(J.JitEntries, 1) << P.Name << ": dispatcher never entered "
                                            "native code";
  }

  // Entanglement counter checksum: bit-identical barrier behavior. Only on
  // successful deterministic (1-worker) runs — a trapping run unwinds at an
  // unspecified point, and a multi-worker schedule reorders events.
  if (I.Ok && J.Ok && P.Workers == 1)
    expectCountersEqual(I.Counters, J.Counters, P.Name);

  // No leaked pins in either tier: every pin the run took was released by
  // resume or by the join rule.
  if (I.Ok) {
    EXPECT_EQ(I.Counters.livePinnedObjects(), 0) << P.Name << " (interp)";
    EXPECT_EQ(I.Counters.livePinnedBytes(), 0) << P.Name << " (interp)";
  }
  if (J.Ok) {
    EXPECT_EQ(J.Counters.livePinnedObjects(), 0) << P.Name << " (jit)";
    EXPECT_EQ(J.Counters.livePinnedBytes(), 0) << P.Name << " (jit)";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, JitDiffTest,
    ::testing::Combine(
        ::testing::Range(0, static_cast<int>(std::size(Corpus))),
        ::testing::Range(0, static_cast<int>(std::size(ModeCases)))),
    [](const ::testing::TestParamInfo<std::tuple<int, int>> &Info) {
      return std::string(
                 Corpus[static_cast<size_t>(std::get<0>(Info.param))].Name) +
             "_" +
             ModeCases[static_cast<size_t>(std::get<1>(Info.param))].Name;
    });

//===----------------------------------------------------------------------===//
// Reused value stacks
//===----------------------------------------------------------------------===//

// Non-tail recursion that leaves a heap pointer in every level's frame, run
// by the root and by every Vm of a 4-deep par tree, so each value stack the
// par program below needs ends up full of pointers into this run's heaps.
const char *const StackFiller =
    "fun deep n = if n = 0 then 0\n"
    "  else let val p = (n, [n]) in fst p + deep (n - 1) end\n"
    "fun fill d = let val x = deep 400 in\n"
    "  if d = 0 then x\n"
    "  else let val p = par (fill (d - 1), fill (d - 1)) in fst p + snd p end\n"
    "end\n"
    "fill 4";

// Same par-tree shape: allocation, lists, pairs and an effect handler in
// every leaf, printing as it goes.
const char *const StaleStackProgram =
    "effect Ask\n"
    "fun build n = if n = 0 then [] else (n, n * n) :: build (n - 1)\n"
    "fun sum xs = case xs of [] => 0 | h :: t => fst h + snd h + sum t\n"
    "fun leaf d = handle sum (build 12) + perform Ask d with\n"
    "  | Ask n k => resume k (n * 10) end\n"
    "fun tree d = if d = 0 then leaf d\n"
    "  else let val p = par (tree (d - 1), (printInt d; tree (d - 1)))\n"
    "       in fst p + snd p end\n"
    "tree 4";

struct ChaosGuard {
  explicit ChaosGuard(const chaos::Config &C) { chaos::enable(C); }
  ~ChaosGuard() { chaos::disable(); }
};

struct GcEveryAllocRun {
  TierOutcome R;
  int64_t StacksAllocated = 0;
  int64_t ForcedGcs = 0;
  int64_t BytesCopied = 0;
};

int64_t statValue(const char *Name) {
  return StatRegistry::get().valueOf(Name);
}

/// StaleStackProgram with a collection at every allocation, on one worker:
/// the calling thread, whose value-stack cache \p Prepare may fill first.
template <typename Fn>
GcEveryAllocRun runWithGcAtEveryAlloc(em::Mode Mode, Fn &&Prepare) {
  GcEveryAllocRun Run;
  rt::Runtime Rt(tierConfig(1, Mode));
  Prepare(Rt);
  FrontEnd F;
  if (!frontEnd(StaleStackProgram, F))
    return Run;
  chaos::Config C;
  C.GcAtAllocPermille = 1000;
  ChaosGuard Chaos(C);
  int64_t Stacks0 = statValue("pml.vm.stacks.allocated");
  int64_t Copied0 = statValue("gc.bytes.copied");
  Run.R = runOn(Rt, F);
  Run.StacksAllocated = statValue("pml.vm.stacks.allocated") - Stacks0;
  Run.BytesCopied = statValue("gc.bytes.copied") - Copied0;
  Run.ForcedGcs = chaos::totals().ForcedGcs;
  return Run;
}

class ReusedStackTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

// Value stacks are reused per thread and never zeroed, so a Vm starts with
// stale slots above Sp. Collecting at every allocation on stacks full of
// pointers into freed heaps must behave exactly like a run on a fresh
// thread, whose stacks are newly allocated: nothing reads at or above Sp.
// A collector that traced a stale slot would retain (copy) extra bytes.
TEST_P(ReusedStackTest, StaleSlotsAboveSpAreNeverRead) {
  const ModeCase &MC = ModeCases[static_cast<size_t>(std::get<0>(GetParam()))];
  const bool UseJit = std::get<1>(GetParam());
  JitGateGuard Guard;
  jit::setCompileThreshold(1);
  jit::setEnabled(UseJit);

  GcEveryAllocRun Fresh, Stale;
  std::thread([&] {
    Fresh = runWithGcAtEveryAlloc(MC.Mode, [](rt::Runtime &) {});
  }).join();
  std::thread([&] {
    Stale = runWithGcAtEveryAlloc(MC.Mode, [](rt::Runtime &Rt) {
      FrontEnd Filler;
      ASSERT_TRUE(frontEnd(StackFiller, Filler));
      TierOutcome R = runOn(Rt, Filler);
      EXPECT_EQ(R.Value, "1283200") << R.Error;
    });
  }).join();

  EXPECT_GE(Fresh.StacksAllocated, 1);
  EXPECT_EQ(Stale.StacksAllocated, 0) << "the run did not reuse the stacks";
  EXPECT_GT(Stale.ForcedGcs, 0);
  EXPECT_EQ(Stale.ForcedGcs, Fresh.ForcedGcs);
  EXPECT_EQ(Stale.BytesCopied, Fresh.BytesCopied);
  EXPECT_TRUE(Stale.R.Ok) << Stale.R.Error;
  EXPECT_EQ(Fresh.R.Ok, Stale.R.Ok);
  EXPECT_EQ(Fresh.R.Value, Stale.R.Value);
  EXPECT_EQ(Fresh.R.Output, Stale.R.Output);
  EXPECT_EQ(Fresh.R.Error, Stale.R.Error);
  expectCountersEqual(Fresh.R.Counters, Stale.R.Counters, "stale stacks");
  EXPECT_EQ(Stale.R.Counters.livePinnedObjects(), 0);
  EXPECT_EQ(Stale.R.Counters.livePinnedBytes(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ReusedStackTest,
    ::testing::Combine(
        ::testing::Range(0, static_cast<int>(std::size(ModeCases))),
        ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>> &Info) {
      return std::string(
                 ModeCases[static_cast<size_t>(std::get<0>(Info.param))]
                     .Name) +
             (std::get<1>(Info.param) ? "_Jit" : "_Interp");
    });

//===----------------------------------------------------------------------===//
// Tiering behavior
//===----------------------------------------------------------------------===//

// Below the threshold nothing compiles; crossing it compiles exactly the
// functions that got hot. Same seed (deterministic single-worker run) =>
// same tier decisions, run after run.
TEST(JitTiering, ThresholdGatesCompilation) {
  const char *Src =
      "fun hot i = if i = 0 then 0 else hot (i - 1)\n"
      "fun cold x = x\n"
      "printInt (hot 100 + cold 1)";

  TierOutcome Cold = runTier(Src, 1, em::Mode::Manage, /*UseJit=*/true);
  if (!jit::tsanForcedOff() && MPL_JIT_SUPPORTED) {
    // Threshold 1: every called function compiles, including main.
    EXPECT_GE(Cold.Compiled, 2u);
  }

  // A huge threshold keeps everything interpreted even with the JIT on.
  JitGateGuard Guard;
  jit::setCompileThreshold(1u << 30);
  jit::setEnabled(true);
  std::vector<std::string> Errs;
  ExprPtr Ast = parseProgram(Src, Errs);
  ASSERT_TRUE(Ast);
  Program Prog;
  ASSERT_TRUE(compile(*Ast, Prog, Errs));
  rt::Config Cfg;
  Cfg.NumWorkers = 1;
  Cfg.Profile = false;
  rt::Runtime Rt(Cfg);
  std::string Out;
  Rt.run([&] {
    Vm M(Prog, &Out);
    Vm::Result Res = M.run();
    EXPECT_TRUE(Res.Ok) << Res.Error;
  });
  if (Prog.Jit) {
    EXPECT_EQ(Prog.Jit->compiledCount(), 0u);
  }
}

TEST(JitTiering, SameProgramTiersIdenticallyAcrossRuns) {
  const char *Src =
      "fun fib n = if n < 2 then n else fib (n-1) + fib (n-2)\n"
      "printInt (fib 15)";
  TierOutcome A = runTier(Src, 1, em::Mode::Manage, /*UseJit=*/true);
  TierOutcome B = runTier(Src, 1, em::Mode::Manage, /*UseJit=*/true);
  EXPECT_EQ(A.Compiled, B.Compiled);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.Value, B.Value);
}

// A compiled function's calls must not write its shared FnState: counting
// stops once the function leaves PhaseCold, so Calls ends just past the
// threshold (plus the few calls other strands made while one claimed the
// compile) instead of growing with all ~240k fib calls of every worker. A
// count, not a timing, so a noisy host cannot hide a regression.
TEST(JitTiering, CompiledFunctionsStopCountingCalls) {
  if (jit::tsanForcedOff() || !MPL_JIT_SUPPORTED)
    GTEST_SKIP() << "the JIT tier cannot arm on this build";
  const char *Src =
      "fun fib n = if n < 2 then n\n"
      "  else if n < 12 then fib (n - 1) + fib (n - 2)\n"
      "  else let val p = par (fib (n - 1), fib (n - 2)) in fst p + snd p "
      "end\n"
      "printInt (fib 25)";
  JitGateGuard Guard;
  jit::setCompileThreshold(64);
  jit::setEnabled(true);
  std::vector<std::string> Errs;
  ExprPtr Ast = parseProgram(Src, Errs);
  ASSERT_TRUE(Ast);
  Program Prog;
  ASSERT_TRUE(compile(*Ast, Prog, Errs));
  rt::Config Cfg;
  Cfg.NumWorkers = 4;
  Cfg.Profile = false;
  rt::Runtime Rt(Cfg);
  std::string Out;
  Rt.run([&] {
    Vm M(Prog, &Out);
    Vm::Result Res = M.run();
    EXPECT_TRUE(Res.Ok) << Res.Error;
  });
  EXPECT_EQ(Out, "75025\n");
  ASSERT_TRUE(Prog.Jit);
  jit::ProgramJit &PJ = *Prog.Jit;
  ASSERT_GE(PJ.compiledCount(), 1u) << "fib never tiered up";
  for (size_t I = 0; I < PJ.numFns(); ++I) {
    jit::FnState &S = PJ.fn(I);
    if (S.Phase.load() != jit::PhaseCompiled)
      continue;
    EXPECT_LT(S.Calls.load(), PJ.Threshold + 4096)
        << "function " << I << " kept counting after it compiled";
  }
}

} // namespace
