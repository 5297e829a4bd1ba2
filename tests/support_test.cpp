//===- tests/support_test.cpp - Unit tests for src/support ---------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Cli.h"
#include "support/Histogram.h"
#include "support/Random.h"
#include "support/Stats.h"
#include "support/Table.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <set>
#include <thread>
#include <vector>

using namespace mpl;

TEST(RandomTest, Deterministic) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 100; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 3);
}

TEST(RandomTest, BoundedStaysInBounds) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBounded(17), 17u);
}

TEST(RandomTest, ForkIsScheduleIndependent) {
  Rng Base(99);
  // Forking the same index twice gives the same stream regardless of what
  // happened to the parent in between.
  Rng F1 = Base.fork(5);
  Base.next();
  Base.next();
  Rng F2 = Rng(99).fork(5);
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(F1.next(), F2.next());
}

TEST(RandomTest, DoubleInUnitInterval) {
  Rng R(3);
  for (int I = 0; I < 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RandomTest, Hash64Injective) {
  std::set<uint64_t> Seen;
  for (uint64_t I = 0; I < 10000; ++I)
    Seen.insert(hash64(I));
  EXPECT_EQ(Seen.size(), 10000u);
}

TEST(StatsTest, AddAndReport) {
  static Stat S("test.counter");
  S.set(0);
  S.add(5);
  S.inc();
  EXPECT_EQ(S.get(), 6);
  EXPECT_EQ(StatRegistry::get().valueOf("test.counter"), 6);
  EXPECT_NE(StatRegistry::get().report().find("test.counter"),
            std::string::npos);
}

namespace {
/// Runs \p Body on \p N threads released together, so their adds overlap.
template <typename Fn> void runTogether(int N, Fn Body) {
  std::latch Start(N);
  std::vector<std::thread> Ts;
  for (int T = 0; T < N; ++T)
    Ts.emplace_back([&, T] {
      Start.arrive_and_wait();
      Body(T);
    });
  for (auto &T : Ts)
    T.join();
}

int64_t snapshotValue(const std::string &Name) {
  for (const auto &[N, V] : StatRegistry::get().snapshotAll())
    if (N == Name)
      return V;
  return -1;
}

// More threads than cells, so some cells are shared and some threads are
// the only writer of theirs.
constexpr int ShardThreads = static_cast<int>(Stat::Shards) + 4;
} // namespace

TEST(StatsTest, ConcurrentAdds) {
  static Stat S("test.concurrent");
  S.set(0);
  constexpr int K = 5000;
  runTogether(ShardThreads, [](int T) {
    for (int I = 0; I < K; ++I) {
      S.inc();
      S.add(T);
    }
  });
  int64_t Want = int64_t(ShardThreads) * K +
                 int64_t(K) * (ShardThreads - 1) * ShardThreads / 2;
  EXPECT_EQ(S.get(), Want);
  EXPECT_EQ(StatRegistry::get().valueOf("test.concurrent"), Want);
}

TEST(StatsTest, ResetAllZeroesEveryShard) {
  static Stat S("test.sharded.reset");
  S.set(0);
  runTogether(ShardThreads, [](int) {
    for (int I = 0; I < 100; ++I)
      S.add(3);
  });
  ASSERT_EQ(S.get(), int64_t(ShardThreads) * 300);
  StatRegistry::get().resetAll();
  EXPECT_EQ(S.get(), 0) << "a shard survived resetAll";
  // A stale cell would show up again once the others move.
  S.add(7);
  runTogether(ShardThreads, [](int) { S.inc(); });
  EXPECT_EQ(S.get(), 7 + ShardThreads);
}

TEST(StatsTest, NoteMaxKeepsMaximum) {
  static Stat S("test.max");
  S.set(0);
  S.noteMax(10);
  S.noteMax(3);
  S.noteMax(12);
  EXPECT_EQ(S.get(), 12);
  runTogether(ShardThreads, [](int T) {
    for (int I = 0; I < 1000; ++I)
      S.noteMax(int64_t(T) * 1000 + I);
  });
  EXPECT_EQ(S.get(), int64_t(ShardThreads - 1) * 1000 + 999);
  S.noteMax(5);
  EXPECT_EQ(S.get(), int64_t(ShardThreads - 1) * 1000 + 999);
}

TEST(StatsTest, DestroyedShardedStatReachesSnapshot) {
  const std::string Name = "test.sharded.retired";
  const int64_t Before = std::max<int64_t>(0, snapshotValue(Name));
  {
    Stat S(Name.c_str());
    runTogether(ShardThreads, [&](int) {
      for (int I = 0; I < 250; ++I)
        S.inc();
    });
    ASSERT_EQ(S.get(), int64_t(ShardThreads) * 250);
  }
  EXPECT_EQ(StatRegistry::get().valueOf(Name), 0) << "no live instance";
  EXPECT_EQ(snapshotValue(Name), Before + int64_t(ShardThreads) * 250)
      << "a destroyed Stat's total must stay in snapshotAll()";
}

TEST(TimerTest, MeasuresElapsed) {
  Timer T;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(T.elapsedNs(), 5'000'000);
  EXPECT_LT(T.elapsedSec(), 5.0);
}

TEST(CliTest, ParsesFlagsAndPositional) {
  // A bare flag followed by a non-flag token consumes it as a value, so
  // positional arguments are listed first (documented in Cli.h).
  const char *Argv[] = {"prog", "input.txt", "-n", "42", "-name=msort",
                        "-verbose"};
  Cli C(6, const_cast<char **>(Argv));
  EXPECT_EQ(C.getInt("n", 0), 42);
  EXPECT_EQ(C.getString("name", ""), "msort");
  EXPECT_TRUE(C.getBool("verbose"));
  EXPECT_FALSE(C.getBool("quiet"));
  EXPECT_EQ(C.getInt("missing", 7), 7);
  ASSERT_EQ(C.positional().size(), 1u);
  EXPECT_EQ(C.positional()[0], "input.txt");
}

TEST(CliTest, DoubleFlags) {
  const char *Argv[] = {"prog", "-factor", "2.5"};
  Cli C(3, const_cast<char **>(Argv));
  EXPECT_DOUBLE_EQ(C.getDouble("factor", 0.0), 2.5);
}

TEST(TableTest, AlignsColumns) {
  Table T({"name", "time"});
  T.addRow({"fib", "1.5s"});
  T.addRow({"mergesort", "0.3s"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("mergesort"), std::string::npos);
  // Column 2 aligned: both time cells start at the same offset.
  size_t Line1 = Out.find("fib");
  size_t Line2 = Out.find("mergesort");
  EXPECT_NE(Line1, std::string::npos);
  EXPECT_NE(Line2, std::string::npos);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(Table::fmtRatio(2.0), "2.00x");
  EXPECT_EQ(Table::fmtInt(42), "42");
  EXPECT_EQ(Table::fmtBytes(512), "512B");
  EXPECT_EQ(Table::fmtBytes(2048), "2.0K");
  EXPECT_NE(Table::fmtSec(0.5).find("ms"), std::string::npos);
  EXPECT_NE(Table::fmtSec(2.0).find("s"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Histogram percentiles
//===----------------------------------------------------------------------===//

TEST(HistogramTest, PercentilesMatchBucketBounds) {
  Histogram H("test.percentiles");
  // 90 samples land in bucket 4 (values in [8, 16), upper bound 15) and 10
  // in bucket 10 (values in [512, 1024), upper bound 1023).
  for (int I = 0; I < 90; ++I)
    H.record(10);
  for (int I = 0; I < 10; ++I)
    H.record(1000);
  Histogram::Percentiles P = H.percentiles();
  EXPECT_EQ(P.P50, 15);   // Cumulative 90 > 50.
  EXPECT_EQ(P.P95, 1023); // Cumulative 90 <= 95 < 100.
  EXPECT_EQ(P.P99, 1023);
  EXPECT_EQ(P.P999, 1023);
  // One-pass percentiles agree with the per-quantile walk.
  EXPECT_EQ(P.P50, H.approxQuantile(0.50));
  EXPECT_EQ(P.P95, H.approxQuantile(0.95));
  EXPECT_EQ(P.P99, H.approxQuantile(0.99));
  EXPECT_EQ(P.P999, H.approxQuantile(0.999));
}

TEST(HistogramTest, P999SeparatesFromP99InLongTail) {
  Histogram H("test.percentiles.tail");
  // 9990 fast samples, 10 slow outliers: P99 stays in the fast bucket
  // while P999 lands on the outliers.
  for (int I = 0; I < 9990; ++I)
    H.record(10); // Bucket 4, upper bound 15.
  for (int I = 0; I < 10; ++I)
    H.record(1'000'000); // Bucket 20: [2^19, 2^20), upper bound 2^20-1.
  Histogram::Percentiles P = H.percentiles();
  EXPECT_EQ(P.P99, 15);
  EXPECT_EQ(P.P999, (1 << 20) - 1);
}

TEST(HistogramTest, PercentilesOfEmptyAndSingleton) {
  Histogram H("test.percentiles.edge");
  Histogram::Percentiles P = H.percentiles();
  EXPECT_EQ(P.P50, 0);
  EXPECT_EQ(P.P95, 0);
  EXPECT_EQ(P.P99, 0);
  // A lone sample is every percentile (bucket upper-bound semantics).
  H.record(100); // Bucket 7: [64, 128), upper bound 127.
  P = H.percentiles();
  EXPECT_EQ(P.P50, 127);
  EXPECT_EQ(P.P95, 127);
  EXPECT_EQ(P.P99, 127);
  EXPECT_EQ(P.P999, 127);
}

TEST(HistogramTest, PercentilesZeroValuedSamplesUseBucketZero) {
  Histogram H("test.percentiles.zero");
  for (int I = 0; I < 10; ++I)
    H.record(0);
  Histogram::Percentiles P = H.percentiles();
  EXPECT_EQ(P.P50, 0);
  EXPECT_EQ(P.P99, 0);
}
