//===- tests/spans_test.cpp - Causal span ledger tests --------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// The span ledger's two load-bearing claims (DESIGN.md §14):
//
//  1. Consistency: the critical path extracted from the merged fork-join
//     DAG equals the scheduler's online span S. Both accrue the *same*
//     strand quanta (Scheduler::strandPause adds each elapsed strand to
//     SpanAccNs and to the current span task's SelfNs), so the agreement
//     is exact, not approximate — any drift means the DAG is wrong.
//
//  2. Attribution: em events sampled in the read/write barrier slow paths
//     resolve to the pml source line of the expression that caused them,
//     via the compiler's bytecode -> (Line, Col) source map.
//
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "obs/Span.h"
#include "pml/Vm.h"
#include "workloads/Kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

using namespace mpl;

namespace {

/// Every test arms/disarms the process-wide ledger; serialize the state.
class SpansTest : public ::testing::Test {
protected:
  void SetUp() override { obs::SpanLedger::get().disable(); }
  void TearDown() override { SetUp(); }

  /// Runs \p Body in a fresh runtime with the ledger armed and returns the
  /// run's merged summary.
  template <typename Fn>
  obs::SpanRunSummary record(int Workers, Fn &&Body) {
    obs::SpanLedger::get().enable();
    {
      rt::Config Cfg;
      Cfg.NumWorkers = Workers;
      Cfg.Profile = true;
      rt::Runtime R(Cfg);
      R.run(Body);
    }
    obs::SpanLedger::get().disable();
    return obs::SpanLedger::get().lastRun();
  }
};

} // namespace

TEST_F(SpansTest, SingleTaskRunIsJustTheRoot) {
  obs::SpanRunSummary Sum = record(1, [] {
    volatile int64_t Acc = 0;
    for (int I = 0; I < 1000; ++I)
      Acc = Acc + I;
  });
  ASSERT_TRUE(Sum.Valid);
  EXPECT_EQ(Sum.Tasks, 1);
  EXPECT_EQ(Sum.Stolen, 0);
  ASSERT_EQ(Sum.AllTasks.size(), 1u);
  EXPECT_EQ(Sum.AllTasks[0].Parent, ~uint64_t(0));
  EXPECT_TRUE(Sum.AllTasks[0].OnCriticalPath);
  // A serial run's critical path IS its work.
  EXPECT_DOUBLE_EQ(Sum.CriticalPathSec, Sum.LedgerWorkSec);
}

TEST_F(SpansTest, CriticalPathMatchesSchedulerSpan) {
  obs::SpanRunSummary Sum = record(1, [] { (void)wl::fib(18, 5); });
  ASSERT_TRUE(Sum.Valid);
  EXPECT_GT(Sum.Tasks, 3);
  EXPECT_EQ(Sum.Stolen, 0); // One worker: nothing to steal.
  ASSERT_GT(Sum.SchedSpanSec, 0.0);
  // Same-quanta design: ledger CP and scheduler S are built from the same
  // strand measurements, so they agree exactly — 5% is the CI oracle's
  // slack, not an expected error.
  EXPECT_LT(std::fabs(Sum.agreementPct()), 5.0);
  EXPECT_NEAR(Sum.LedgerWorkSec, Sum.SchedWorkSec,
              1e-9 + 1e-6 * Sum.SchedWorkSec);
  EXPECT_NEAR(Sum.CriticalPathSec, Sum.SchedSpanSec,
              1e-9 + 1e-6 * Sum.SchedSpanSec);
}

TEST_F(SpansTest, DagShapeIsAWellFormedForkJoinTree) {
  obs::SpanRunSummary Sum = record(2, [] { (void)wl::fib(18, 5); });
  ASSERT_TRUE(Sum.Valid);

  // Exactly one root; every other task's parent is a recorded task.
  std::vector<uint64_t> Ids;
  int Roots = 0;
  for (const obs::SpanTaskOut &T : Sum.AllTasks) {
    Ids.push_back(T.Id);
    if (T.Parent == ~uint64_t(0))
      ++Roots;
  }
  EXPECT_EQ(Roots, 1);
  std::sort(Ids.begin(), Ids.end());
  for (const obs::SpanTaskOut &T : Sum.AllTasks) {
    if (T.Parent != ~uint64_t(0)) {
      EXPECT_TRUE(std::binary_search(Ids.begin(), Ids.end(), T.Parent))
          << "task " << T.Id << " has unknown parent " << T.Parent;
    }
  }

  // Fork pairs: children are allocated in (A=n, B=n+1) pairs, so every
  // parent has an even child count.
  std::vector<std::pair<uint64_t, int>> ChildCount;
  for (const obs::SpanTaskOut &T : Sum.AllTasks) {
    if (T.Parent == ~uint64_t(0))
      continue;
    bool Hit = false;
    for (auto &[P, N] : ChildCount)
      if (P == T.Parent) {
        ++N;
        Hit = true;
        break;
      }
    if (!Hit)
      ChildCount.emplace_back(T.Parent, 1);
  }
  for (const auto &[P, N] : ChildCount)
    EXPECT_EQ(N % 2, 0) << "parent " << P << " has unpaired children";

  // The critical path starts at the root and only visits recorded tasks.
  ASSERT_FALSE(Sum.CriticalPath.empty());
  int OnCp = 0;
  for (const obs::SpanTaskOut &T : Sum.AllTasks)
    if (T.OnCriticalPath)
      ++OnCp;
  EXPECT_EQ(static_cast<size_t>(OnCp), Sum.CriticalPath.size());
}

TEST_F(SpansTest, AttributesEmEventsToPmlSourceLines) {
  // Deterministic entangling program: task A publishes a fresh ref through
  // a shared ref cell (line 5: the := becomes a pin), task B chases it
  // (line 6: the inner ! is an entangled read). On one worker A runs to
  // completion first, so the schedule — and the attribution — is fixed.
  const std::string Src = "let\n"
                          "  val r = ref (ref 0)\n"
                          "in\n"
                          "  par (\n"
                          "    (r := ref 7; 0),\n"
                          "    !(!r))\n"
                          "end";
  std::string Output, Rendered, TypeStr;
  std::vector<std::string> Errors;
  bool Ok = false;
  obs::SpanRunSummary Sum = record(1, [&] {
    Ok = pml::evalSource(Src, Output, Rendered, TypeStr, Errors);
  });
  ASSERT_TRUE(Ok) << (Errors.empty() ? "" : Errors[0]);
  EXPECT_EQ(Rendered, "(0, 7)");

  ASSERT_TRUE(Sum.Valid);
  EXPECT_EQ(Sum.Tasks, 3); // Root + the two par arms.
  EXPECT_EQ(Sum.EmReads, 1);
  EXPECT_GE(Sum.PinEvents, 1);

  // Per-line aggregates are keyed by packed (Line << 8) | Col.
  auto lineOf = [&](uint32_t Loc) -> const obs::SpanLineStat * {
    for (const auto &[L, S] : Sum.Lines)
      if (L == Loc)
        return &S;
    return nullptr;
  };
  int ReadLine = 0, PinLine = 0;
  for (const auto &[L, S] : Sum.Lines) {
    if (S.EmReads > 0)
      ReadLine = static_cast<int>(L >> 8);
    if (S.Pins > 0)
      PinLine = static_cast<int>(L >> 8);
  }
  EXPECT_EQ(ReadLine, 6) << "entangled read must attribute to `!(!r)`";
  EXPECT_EQ(PinLine, 5) << "pin must attribute to `r := ref 7`";

  // The par arms carry the fork site (line 4, the `par`).
  const obs::SpanLineStat *ParSite = nullptr;
  for (const auto &[L, S] : Sum.Lines)
    if (S.Tasks == 2)
      ParSite = lineOf(L);
  ASSERT_NE(ParSite, nullptr) << "no line owns the two par tasks";
}

TEST_F(SpansTest, DisabledLedgerRecordsNothing) {
  // A run without the ledger armed must leave lastRun() untouched and add
  // zero overhead records.
  obs::SpanRunSummary Before = obs::SpanLedger::get().lastRun();
  {
    rt::Config Cfg;
    Cfg.NumWorkers = 1;
    rt::Runtime R(Cfg);
    R.run([] { (void)wl::fib(14, 5); });
  }
  obs::SpanRunSummary After = obs::SpanLedger::get().lastRun();
  EXPECT_EQ(Before.Tasks, After.Tasks);
  EXPECT_EQ(Before.Valid, After.Valid);
}

TEST_F(SpansTest, JsonExportParsesBackAndIsSelfConsistent) {
  obs::SpanRunSummary Sum = record(2, [] { (void)wl::fib(16, 5); });
  ASSERT_TRUE(Sum.Valid);
  std::string Json = Sum.toJson();
  EXPECT_NE(Json.find("\"schema\":\"mpl-spans/1\""), std::string::npos);
  EXPECT_NE(Json.find("\"critical_path\""), std::string::npos);
  // The full parse-back contract is exercised in report_test (GateLib's
  // parseSpansJson); here just pin the schema tag and task count.
  EXPECT_NE(Json.find("\"tasks\":" + std::to_string(Sum.Tasks)),
            std::string::npos);
}
