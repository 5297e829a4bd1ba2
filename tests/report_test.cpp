//===- tests/report_test.cpp - Statistical regression-gate tests ----------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// Unit tests for the extracted gate library (tools/GateLib.h) that backs
// the CI perf-smoke stage, driven with synthetic mpl-bench/1 fixtures:
// stddev-aware pass/fail with noise classes, floor behaviour, missing
// rows, leaked pins, checksum mismatches (same- and cross-scale),
// profile-site drift, counter/residency gates, and malformed/empty input
// rejected with a diagnostic instead of a crash. Also round-trips the
// BenchJson writer (bench/Common.h) through src/support/Json.h to pin the
// schema the gate consumes.
//
//===----------------------------------------------------------------------===//

#include "GateLib.h"

#include "bench/Common.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace mpl;
using gate::BenchFile;
using gate::Finding;
using gate::GateOptions;
using gate::GateResult;
using gate::Noise;

namespace {

/// One synthetic mpl-bench/1 row. Defaults describe a healthy 20ms row
/// with a moderate (5% cv) spread.
struct RowSpec {
  std::string Name = "bench";
  std::string Config = "par-w1";
  bool Entangled = false;
  double MedianS = 0.020;
  std::vector<double> RepS = {0.019, 0.020, 0.021}; // sigma = 1ms
  int64_t EntangledReads = 0;
  int64_t PinsDown = 0;
  int64_t PinnedObjects = 0;
  int64_t PinnedBytes = 0;
  int64_t Unpins = 0;
  int64_t ContCaptured = 0;
  int64_t ContResumed = 0;
  int64_t JitCompiled = 0; ///< >0 emits the optional "jit" block.
  int64_t JitEntries = 0;
  int64_t JitCodeBytes = 0;
  int64_t Residency = 0;
  int64_t Checksum = 1234;
  int64_t LeakedPins = 0;
  int64_t ProfBytes = 0;
  std::string SitesJson; ///< e.g. {"name":"em.pin.down","events":9,"bytes":64}
};

std::string rowJson(const RowSpec &S) {
  std::string Reps;
  for (size_t I = 0; I < S.RepS.size(); ++I)
    Reps += (I ? "," : "") + std::to_string(S.RepS[I]);
  // Like the BenchJson writer, the "jit" block is additive: emitted only
  // when the row actually compiled something.
  std::string Jit;
  if (S.JitCompiled > 0) {
    char JBuf[160];
    std::snprintf(JBuf, sizeof(JBuf),
                  "\"jit\":{\"compiled\":%lld,\"entries\":%lld,"
                  "\"code_bytes\":%lld},",
                  static_cast<long long>(S.JitCompiled),
                  static_cast<long long>(S.JitEntries),
                  static_cast<long long>(S.JitCodeBytes));
    Jit = JBuf;
  }
  char Buf[2048];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"name\":\"%s\",\"config\":\"%s\",\"entangled\":%s,"
      "\"time\":{\"median_s\":%.9g,\"min_s\":%.9g,\"stddev_s\":0,"
      "\"rep_s\":[%s]},"
      "\"work_span\":{\"work_s\":0.05,\"span_s\":0.01},"
      "\"em\":{\"entangled_reads\":%lld,\"pins_down\":%lld,\"pins_cross\":0,"
      "\"pins_holder\":0,\"pinned_objects\":%lld,\"pinned_bytes\":%lld,"
      "\"unpins\":%lld,\"cont_captured\":%lld,\"cont_resumed\":%lld},"
      "%s"
      "\"gc\":{\"collections\":1,\"max_pause_ns\":0,\"total_pause_ns\":0,"
      "\"inplace_bytes\":0},"
      "\"max_residency_bytes\":%lld,\"checksum\":%lld,"
      "\"profile\":{\"leaked_pins\":%lld,\"leaked_bytes\":0,"
      "\"pin_bytes_attributed\":%lld,\"sites\":[%s]}}",
      S.Name.c_str(), S.Config.c_str(), S.Entangled ? "true" : "false",
      S.MedianS, S.MedianS, Reps.c_str(),
      static_cast<long long>(S.EntangledReads),
      static_cast<long long>(S.PinsDown),
      static_cast<long long>(S.PinnedObjects),
      static_cast<long long>(S.PinnedBytes), static_cast<long long>(S.Unpins),
      static_cast<long long>(S.ContCaptured),
      static_cast<long long>(S.ContResumed), Jit.c_str(),
      static_cast<long long>(S.Residency), static_cast<long long>(S.Checksum),
      static_cast<long long>(S.LeakedPins),
      static_cast<long long>(S.ProfBytes), S.SitesJson.c_str());
  return Buf;
}

std::string fileJson(double Scale, const std::vector<RowSpec> &Rows) {
  std::string S = "{\"schema\":\"mpl-bench/1\",\"bench\":\"synthetic\","
                  "\"scale\":" +
                  std::to_string(Scale) + ",\"reps\":3,\"rows\":[";
  for (size_t I = 0; I < Rows.size(); ++I)
    S += (I ? ",\n" : "") + rowJson(Rows[I]);
  S += "]}";
  return S;
}

BenchFile parseOrDie(const std::string &Text) {
  BenchFile F;
  std::string Err;
  EXPECT_TRUE(gate::parseBenchJson(Text, F, Err)) << Err;
  return F;
}

GateResult gateOne(const RowSpec &Base, const RowSpec &Cur,
                   const GateOptions &Opts = GateOptions{}) {
  BenchFile B = parseOrDie(fileJson(0.05, {Base}));
  BenchFile C = parseOrDie(fileJson(0.05, {Cur}));
  return gate::compare(B, C, Opts);
}

} // namespace

//===----------------------------------------------------------------------===//
// Parsing and validation
//===----------------------------------------------------------------------===//

TEST(ReportParse, EmptyInputRejected) {
  BenchFile F;
  std::string Err;
  EXPECT_FALSE(gate::parseBenchJson("", F, Err));
  EXPECT_NE(Err.find("empty"), std::string::npos) << Err;
  EXPECT_FALSE(gate::parseBenchJson("   \n\t", F, Err));
}

TEST(ReportParse, MalformedJsonRejected) {
  BenchFile F;
  std::string Err;
  EXPECT_FALSE(gate::parseBenchJson("{\"schema\":\"mpl-bench/1\",", F, Err));
  EXPECT_NE(Err.find("parse error"), std::string::npos) << Err;
  EXPECT_FALSE(gate::parseBenchJson("[1,2,3]", F, Err));
  EXPECT_NE(Err.find("not an object"), std::string::npos) << Err;
}

TEST(ReportParse, WrongSchemaRejected) {
  BenchFile F;
  std::string Err;
  EXPECT_FALSE(gate::parseBenchJson("{\"schema\":\"mpl-trace/1\"}", F, Err));
  EXPECT_NE(Err.find("mpl-trace/1"), std::string::npos) << Err;
  EXPECT_FALSE(gate::parseBenchJson("{\"bench\":\"x\"}", F, Err));
  EXPECT_NE(Err.find("schema"), std::string::npos) << Err;
}

TEST(ReportParse, MalformedRowsRejected) {
  BenchFile F;
  std::string Err;
  // No rows array.
  EXPECT_FALSE(
      gate::parseBenchJson("{\"schema\":\"mpl-bench/1\"}", F, Err));
  EXPECT_NE(Err.find("rows"), std::string::npos) << Err;
  // Row without a name.
  EXPECT_FALSE(gate::parseBenchJson(
      "{\"schema\":\"mpl-bench/1\",\"rows\":[{\"config\":\"seq\"}]}", F, Err));
  EXPECT_NE(Err.find("name"), std::string::npos) << Err;
  // Row without a median.
  EXPECT_FALSE(gate::parseBenchJson(
      "{\"schema\":\"mpl-bench/1\",\"rows\":[{\"name\":\"x\"}]}", F, Err));
  EXPECT_NE(Err.find("median"), std::string::npos) << Err;
  // Row that is not an object.
  EXPECT_FALSE(gate::parseBenchJson(
      "{\"schema\":\"mpl-bench/1\",\"rows\":[7]}", F, Err));
}

TEST(ReportParse, GoodFileParses) {
  RowSpec S;
  S.Entangled = true;
  S.PinnedBytes = 512;
  S.ProfBytes = 512;
  S.SitesJson = "{\"name\":\"em.pin.down\",\"events\":9,\"bytes\":512}";
  BenchFile F = parseOrDie(fileJson(0.05, {S}));
  ASSERT_EQ(F.Rows.size(), 1u);
  const gate::Row *R = F.find("bench", "par-w1");
  ASSERT_NE(R, nullptr);
  EXPECT_TRUE(R->Entangled);
  EXPECT_EQ(R->RepS.size(), 3u);
  EXPECT_EQ(R->PinnedBytes, 512);
  ASSERT_EQ(R->Sites.size(), 1u);
  EXPECT_EQ(R->Sites[0].Name, "em.pin.down");
  EXPECT_EQ(R->Sites[0].Bytes, 512);
  EXPECT_EQ(F.find("bench", "no-such-config"), nullptr);
}

//===----------------------------------------------------------------------===//
// Noise classes and sigma
//===----------------------------------------------------------------------===//

TEST(ReportNoise, SigmaRecomputedFromRepTimes) {
  RowSpec S; // reps 19/20/21ms -> sample stddev exactly 1ms
  BenchFile F = parseOrDie(fileJson(0.05, {S}));
  EXPECT_NEAR(F.Rows[0].sigmaS(), 0.001, 1e-9);
  EXPECT_EQ(F.Rows[0].noiseClass(), Noise::Moderate);
}

TEST(ReportNoise, Classes) {
  RowSpec Stable;
  Stable.RepS = {0.0199, 0.020, 0.0201}; // cv 0.5%
  EXPECT_EQ(parseOrDie(fileJson(0.05, {Stable})).Rows[0].noiseClass(),
            Noise::Stable);
  RowSpec Noisy;
  Noisy.RepS = {0.015, 0.020, 0.025}; // cv 25%
  EXPECT_EQ(parseOrDie(fileJson(0.05, {Noisy})).Rows[0].noiseClass(),
            Noise::Noisy);
  RowSpec OneRep;
  OneRep.RepS = {0.020}; // no spread measurable
  EXPECT_EQ(parseOrDie(fileJson(0.05, {OneRep})).Rows[0].noiseClass(),
            Noise::Unknown);
}

//===----------------------------------------------------------------------===//
// Time gate
//===----------------------------------------------------------------------===//

TEST(ReportTimeGate, WithinNoisePasses) {
  RowSpec Base, Cur;
  Cur.MedianS = 0.0209; // +0.9 sigma, allowance is 2 sigma = 2ms
  GateResult R = gateOne(Base, Cur);
  EXPECT_TRUE(R.ok()) << gate::renderFindings(R, GateOptions{});
  EXPECT_EQ(R.ComparedRows, 1);
  EXPECT_EQ(R.TimeGatedRows, 1);
}

TEST(ReportTimeGate, ThreeSigmaRegressionFails) {
  // The acceptance scenario: current median inflated by 3 baseline
  // stddevs must fail while the 1-sigma delta above passes.
  RowSpec Base, Cur;
  Cur.MedianS = 0.023; // +3 sigma > max(2*1ms, 10% floor = 2ms)
  GateResult R = gateOne(Base, Cur);
  EXPECT_FALSE(R.ok());
  ASSERT_NE(R.first(Finding::Kind::TimeRegression), nullptr);
  EXPECT_NE(R.first(Finding::Kind::TimeRegression)->Message.find("sigma"),
            std::string::npos);
}

TEST(ReportTimeGate, FloorAbsorbsTinySigma) {
  // A hyper-stable baseline (cv ~0.5%) must not turn a 5% wobble into a
  // failure: the floor-pct term dominates k*sigma.
  RowSpec Base;
  Base.RepS = {0.0199, 0.020, 0.0201};
  RowSpec Cur = Base;
  Cur.MedianS = 0.021; // +5% < 10% floor
  EXPECT_TRUE(gateOne(Base, Cur).ok());
  Cur.MedianS = 0.023; // +15% > floor
  EXPECT_FALSE(gateOne(Base, Cur).ok());
}

TEST(ReportTimeGate, NoisyRowWidensFloor) {
  RowSpec Base;
  Base.RepS = {0.015, 0.020, 0.025}; // sigma 5ms, noisy
  RowSpec Cur = Base;
  Cur.MedianS = 0.029; // within 2 sigma
  EXPECT_TRUE(gateOne(Base, Cur).ok());
  Cur.MedianS = 0.031; // beyond 2 sigma and the doubled floor
  EXPECT_FALSE(gateOne(Base, Cur).ok());
}

TEST(ReportTimeGate, ImprovementNeverFails) {
  RowSpec Base, Cur;
  Base.PinnedBytes = 4096;
  Base.Residency = 1 << 20;
  Cur.MedianS = 0.002; // 10x faster
  Cur.RepS = {0.002, 0.002, 0.002};
  Cur.PinnedBytes = 0;
  Cur.Residency = 0;
  GateOptions Opts;
  Opts.GateResidency = true;
  Opts.GateCounters = true;
  EXPECT_TRUE(gateOne(Base, Cur, Opts).ok());
}

TEST(ReportTimeGate, ShortRowsNotTimeGated) {
  RowSpec Base;
  Base.MedianS = 0.004; // under the 10ms min-time bar
  Base.RepS = {0.004, 0.004, 0.004};
  RowSpec Cur = Base;
  Cur.MedianS = 0.009; // +125%, but too short to gate
  GateResult R = gateOne(Base, Cur);
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.TimeGatedRows, 0);
  // ... but its counters/checksums still gate.
  Cur.Checksum = 9999;
  EXPECT_FALSE(gateOne(Base, Cur).ok());
}

//===----------------------------------------------------------------------===//
// Structural gates: missing rows, leaks, checksums, attribution
//===----------------------------------------------------------------------===//

TEST(ReportGate, MissingRowFails) {
  RowSpec A, B;
  B.Name = "other";
  BenchFile Base = parseOrDie(fileJson(0.05, {A, B}));
  BenchFile Cur = parseOrDie(fileJson(0.05, {A}));
  GateResult R = gate::compare(Base, Cur, GateOptions{});
  EXPECT_FALSE(R.ok());
  ASSERT_NE(R.first(Finding::Kind::MissingRow), nullptr);
  EXPECT_EQ(R.first(Finding::Kind::MissingRow)->Name, "other");
  // New rows in the current run are fine (the suite grew).
  EXPECT_TRUE(gate::compare(Cur, Base, GateOptions{}).ok());
}

TEST(ReportGate, LeakedPinsFail) {
  RowSpec Base, Cur;
  Cur.LeakedPins = 3;
  GateResult R = gateOne(Base, Cur);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.first(Finding::Kind::LeakedPins), nullptr);
}

TEST(ReportGate, ChecksumMismatchSameScaleFails) {
  RowSpec Base, Cur;
  Cur.Checksum = 4321;
  GateResult R = gateOne(Base, Cur);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.first(Finding::Kind::ChecksumMismatch), nullptr);
}

TEST(ReportGate, ChecksumCrossScaleIgnored) {
  // Checksums are a function of the problem size: across scales they are
  // expected to differ, and the gate says so in a non-fatal note.
  RowSpec Base, Cur;
  Cur.Checksum = 4321;
  BenchFile B = parseOrDie(fileJson(0.05, {Base}));
  BenchFile C = parseOrDie(fileJson(0.25, {Cur}));
  GateResult R = gate::compare(B, C, GateOptions{});
  EXPECT_TRUE(R.ok()) << gate::renderFindings(R, GateOptions{});
  EXPECT_FALSE(R.SameScale);
  ASSERT_FALSE(R.Findings.empty());
  EXPECT_FALSE(R.Findings.front().Fatal);
}

TEST(ReportGate, AttributionMismatchFails) {
  // A profiled row (sites present) whose attributed pin bytes disagree
  // with the em counter is corrupt telemetry.
  RowSpec Base, Cur;
  Base.PinnedBytes = Base.ProfBytes = 512;
  Base.SitesJson = "{\"name\":\"em.pin.down\",\"events\":4,\"bytes\":512}";
  Cur = Base;
  Cur.ProfBytes = 100;
  GateResult R = gateOne(Base, Cur);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.first(Finding::Kind::AttributionMismatch), nullptr);
  // Unprofiled rows (no sites) carry attributed=0 legitimately.
  Cur.ProfBytes = 0;
  Cur.SitesJson.clear();
  EXPECT_TRUE(gateOne(Base, Cur).ok());
}

//===----------------------------------------------------------------------===//
// Residency and counter gates
//===----------------------------------------------------------------------===//

TEST(ReportSpaceGate, ResidencyGrowthFails) {
  RowSpec Base, Cur;
  Base.Residency = 8 << 20;
  Cur.Residency = 16 << 20; // +100% > 50% tolerance
  GateOptions Opts;
  Opts.GateResidency = true;
  GateResult R = gateOne(Base, Cur, Opts);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.first(Finding::Kind::ResidencyRegression), nullptr);
  // Without the opt-in the same delta passes (time is unchanged).
  EXPECT_TRUE(gateOne(Base, Cur).ok());
  // Within tolerance passes.
  Cur.Residency = 10 << 20;
  EXPECT_TRUE(gateOne(Base, Cur, Opts).ok());
}

TEST(ReportSpaceGate, ZeroBaselineUsesAbsSlack) {
  // An allocation-free baseline (fib) must tolerate page-size jitter but
  // fail when the benchmark suddenly allocates for real.
  RowSpec Base, Cur;
  GateOptions Opts;
  Opts.GateResidency = true;
  Cur.Residency = 256 << 10; // under the 1MiB absolute slack
  EXPECT_TRUE(gateOne(Base, Cur, Opts).ok());
  Cur.Residency = 8 << 20;
  EXPECT_FALSE(gateOne(Base, Cur, Opts).ok());
}

TEST(ReportCounterGate, EntangledReadsJump) {
  RowSpec Base, Cur;
  Base.Entangled = Cur.Entangled = true;
  Base.EntangledReads = 1000;
  GateOptions Opts;
  Opts.GateCounters = true;
  Cur.EntangledReads = 1900; // under 100% tolerance
  EXPECT_TRUE(gateOne(Base, Cur, Opts).ok());
  Cur.EntangledReads = 2500;
  GateResult R = gateOne(Base, Cur, Opts);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.first(Finding::Kind::CounterRegression), nullptr);
}

TEST(ReportCounterGate, DisentangledStartsPinning) {
  // A disentangled row (zero baseline counters) that starts pinning
  // objects: the abs slack forgives scheduler jitter, not real pins.
  RowSpec Base, Cur;
  GateOptions Opts;
  Opts.GateCounters = true;
  Cur.PinnedObjects = 64; // within 128-event slack
  EXPECT_TRUE(gateOne(Base, Cur, Opts).ok());
  Cur.PinnedObjects = 5000;
  Cur.PinnedBytes = 1 << 20;
  EXPECT_FALSE(gateOne(Base, Cur, Opts).ok());
}

TEST(ReportCounterGate, ContinuationTrafficJump) {
  // The BENCH_T3 effects row: a pml program whose continuation
  // capture/resume counts are a function of the program alone, so a jump
  // past tolerance means the VM started capturing where it didn't before.
  RowSpec Base, Cur;
  Base.ContCaptured = Base.ContResumed = 4000;
  Cur.ContCaptured = Cur.ContResumed = 4000;
  GateOptions Opts;
  Opts.GateCounters = true;
  EXPECT_TRUE(gateOne(Base, Cur, Opts).ok());
  // Fewer captures (an optimization) passes: counters gate upward only.
  Cur.ContCaptured = Cur.ContResumed = 100;
  EXPECT_TRUE(gateOne(Base, Cur, Opts).ok());
  // A 3x capture jump fails, and names the counter.
  Cur.ContCaptured = 12000;
  Cur.ContResumed = 4000;
  GateResult R = gateOne(Base, Cur, Opts);
  EXPECT_FALSE(R.ok());
  const Finding *F = R.first(Finding::Kind::CounterRegression);
  ASSERT_NE(F, nullptr);
  EXPECT_NE(F->Message.find("cont_captured"), std::string::npos) << F->Message;
  // Without the counter opt-in the same jump passes.
  EXPECT_TRUE(gateOne(Base, Cur).ok());
}

TEST(ReportCounterGate, JitBlockParsedAndGated) {
  // The BENCH_T3 jit ablation rows: tiering at threshold 1 makes the
  // compile count a function of the program, so it gates like the
  // continuation counters — a compile explosion fails, fewer compiles
  // (or an absent block, i.e. interpreter rows) never do.
  RowSpec Base, Cur;
  Base.Config = Cur.Config = "pml-jit-manage";
  Base.JitCompiled = 6;
  Base.JitEntries = 4000;
  Base.JitCodeBytes = 9000;
  BenchFile F = parseOrDie(fileJson(0.05, {Base}));
  EXPECT_EQ(F.Rows[0].JitCompiled, 6);
  EXPECT_EQ(F.Rows[0].JitEntries, 4000);
  EXPECT_EQ(F.Rows[0].JitCodeBytes, 9000);
  // Absent block parses as zeros (old baselines stay loadable).
  EXPECT_EQ(parseOrDie(fileJson(0.05, {RowSpec{}})).Rows[0].JitCompiled, 0);

  GateOptions Opts;
  Opts.GateCounters = true;
  Cur = Base;
  EXPECT_TRUE(gateOne(Base, Cur, Opts).ok());
  Cur.JitCompiled = 0; // interpreter fallback: gates upward only
  Cur.JitEntries = 0;
  Cur.JitCodeBytes = 0;
  EXPECT_TRUE(gateOne(Base, Cur, Opts).ok());
  Cur = Base;
  Cur.JitCompiled = 600; // past 100% tolerance + 128-event slack
  GateResult R = gateOne(Base, Cur, Opts);
  EXPECT_FALSE(R.ok());
  const Finding *F2 = R.first(Finding::Kind::CounterRegression);
  ASSERT_NE(F2, nullptr);
  EXPECT_NE(F2->Message.find("jit_compiled"), std::string::npos)
      << F2->Message;
}

TEST(ReportTimeGate, ConfigSubstrArmsTimeGateSelectively) {
  // BENCH_T3 runs counters-only (--no-time-gate) except for the jit
  // ablation rows, which --time-gate-config pml-jit holds to the
  // stddev-aware time rule: losing the JIT's speedup must fail even
  // while the noisier interpreter rows stay exempt.
  RowSpec InterpB, JitB;
  InterpB.Name = JitB.Name = "fib-25";
  InterpB.Config = "pml-interp-manage";
  JitB.Config = "pml-jit-manage";
  RowSpec InterpC = InterpB, JitC = JitB;
  InterpC.MedianS = JitC.MedianS = 0.060; // 3x regression on both rows
  GateOptions Opts;
  Opts.GateTimes = false;
  Opts.TimeGateConfigSubstr = "pml-jit";
  BenchFile B = parseOrDie(fileJson(0.05, {InterpB, JitB}));
  BenchFile C = parseOrDie(fileJson(0.05, {InterpC, JitC}));
  GateResult R = gate::compare(B, C, Opts);
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.TimeGatedRows, 1); // only the jit row was held to the rule
  const Finding *F = R.first(Finding::Kind::TimeRegression);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Config, "pml-jit-manage");
  // A jit row within noise passes with the substring armed.
  JitC.MedianS = 0.0205;
  InterpC.MedianS = 0.060; // interp row still 3x: never time-gated
  C = parseOrDie(fileJson(0.05, {InterpC, JitC}));
  EXPECT_TRUE(gate::compare(B, C, Opts).ok());
}

TEST(ReportTimeGate, ConfigSubstrExemptsRowsFromTimeGate) {
  // The dual knob: the spans-overhead T1 gate runs with the time rule
  // ON, but the pml VM rows must be exempt — arming spans pins the VM
  // to the interpreter, so the vm-jit row regresses by construction.
  RowSpec CppB, VmB;
  CppB.Name = VmB.Name = "fib";
  CppB.Config = "par-w1";
  VmB.Name = "pml-fib-25";
  VmB.Config = "vm-jit-w1";
  RowSpec CppC = CppB, VmC = VmB;
  VmC.MedianS = 0.060; // 3x "regression": interpreter-pinned under spans
  GateOptions Opts;
  Opts.TimeExemptConfigSubstr = "vm-";
  BenchFile B = parseOrDie(fileJson(0.05, {CppB, VmB}));
  BenchFile C = parseOrDie(fileJson(0.05, {CppC, VmC}));
  GateResult R = gate::compare(B, C, Opts);
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.TimeGatedRows, 1); // only the C++ row was held to the rule
  // The exemption is surgical: a real regression on the C++ row still
  // fails even while the vm row is exempt.
  CppC.MedianS = 0.060;
  C = parseOrDie(fileJson(0.05, {CppC, VmC}));
  R = gate::compare(B, C, Opts);
  EXPECT_FALSE(R.ok());
  const Finding *F = R.first(Finding::Kind::TimeRegression);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Config, "par-w1");
}

//===----------------------------------------------------------------------===//
// Profile-site drift
//===----------------------------------------------------------------------===//

TEST(ReportDrift, NewSiteFailsEvenWithinTimeNoise) {
  // The motivating case: a disentangled benchmark starts pinning. Its
  // time stays within noise, but its profile grows a site the baseline
  // never had — the drift gate alone must catch it.
  RowSpec Base, Cur;
  Cur.MedianS = 0.0205; // well within noise
  Cur.SitesJson =
      "{\"name\":\"em.pin.down\",\"events\":4000,\"bytes\":2000000}";
  Cur.PinnedBytes = Cur.ProfBytes = 2000000;
  GateOptions Opts;
  Opts.ProfileDrift = true;
  GateResult R = gateOne(Base, Cur, Opts);
  EXPECT_FALSE(R.ok());
  const Finding *F = R.first(Finding::Kind::ProfileDrift);
  ASSERT_NE(F, nullptr);
  EXPECT_NE(F->Message.find("new"), std::string::npos) << F->Message;
  // Without --profile-drift the same row passes (time within noise).
  EXPECT_TRUE(gateOne(Base, Cur).ok());
}

TEST(ReportDrift, SiteGrowthGatedShrinkIsNot) {
  RowSpec Base, Cur;
  Base.SitesJson =
      "{\"name\":\"em.pin.cross\",\"events\":1000,\"bytes\":100000}";
  Base.PinnedBytes = Base.ProfBytes = 100000;
  GateOptions Opts;
  Opts.ProfileDrift = true;
  // Growth within 100% tolerance passes.
  Cur = Base;
  Cur.SitesJson =
      "{\"name\":\"em.pin.cross\",\"events\":1800,\"bytes\":180000}";
  Cur.PinnedBytes = Cur.ProfBytes = 180000;
  EXPECT_TRUE(gateOne(Base, Cur, Opts).ok());
  // 4x bytes fails.
  Cur.SitesJson =
      "{\"name\":\"em.pin.cross\",\"events\":1000,\"bytes\":400000}";
  Cur.PinnedBytes = Cur.ProfBytes = 400000;
  EXPECT_FALSE(gateOne(Base, Cur, Opts).ok());
  // Shrink/disappearance is an improvement.
  Cur = Base;
  Cur.SitesJson.clear();
  Cur.PinnedBytes = Cur.ProfBytes = 0;
  EXPECT_TRUE(gateOne(Base, Cur, Opts).ok());
}

TEST(ReportDrift, TopKLimitsJoin) {
  // Only the top-K sites of the current run are gated: a regressed site
  // ranked past K is ignored at K=1 and caught at K=2.
  RowSpec Base, Cur;
  Base.SitesJson =
      "{\"name\":\"em.pin.down\",\"events\":1000,\"bytes\":500000}";
  Base.PinnedBytes = Base.ProfBytes = 500000;
  Cur.SitesJson =
      "{\"name\":\"em.pin.down\",\"events\":1000,\"bytes\":500000},"
      "{\"name\":\"em.read.entangled\",\"events\":90000,\"bytes\":90000}";
  Cur.PinnedBytes = Cur.ProfBytes = 500000;
  GateOptions Opts;
  Opts.ProfileDrift = true;
  Opts.DriftTopK = 1;
  EXPECT_TRUE(gateOne(Base, Cur, Opts).ok());
  Opts.DriftTopK = 2;
  EXPECT_FALSE(gateOne(Base, Cur, Opts).ok());
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

TEST(ReportRender, TableCarriesNoiseClass) {
  RowSpec S;
  BenchFile F = parseOrDie(fileJson(0.05, {S}));
  std::string T = gate::renderTable(F);
  EXPECT_NE(T.find("moderate"), std::string::npos) << T;
  EXPECT_NE(T.find("bench"), std::string::npos);
}

TEST(ReportRender, FindingsSummaryLine) {
  RowSpec Base, Cur;
  Cur.MedianS = 0.023;
  GateResult R = gateOne(Base, Cur);
  std::string S = gate::renderFindings(R, GateOptions{});
  EXPECT_NE(S.find("FAIL [time] bench/par-w1"), std::string::npos) << S;
  EXPECT_NE(S.find("compared 1 rows"), std::string::npos) << S;
}

//===----------------------------------------------------------------------===//
// BenchJson writer round-trip (bench/Common.h -> support/Json.h -> gate)
//===----------------------------------------------------------------------===//

TEST(BenchJsonRoundTrip, SchemaFieldsSurvive) {
  bench::RunResult R;
  R.Seconds = 0.020;
  R.MinSeconds = 0.019;
  R.StddevSeconds = 0.001;
  R.RepSeconds = {0.019, 0.020, 0.021};
  R.WS.WorkSec = 0.05;
  R.WS.SpanSec = 0.01;
  R.Checksum = 42;
  R.Stats.Em.EntangledReads = 7;
  R.Stats.Em.DownPointerPins = 3;
  R.Stats.Em.PinnedObjects = 3;
  R.Stats.Em.PinnedBytes = 1024;
  R.Stats.Em.UnpinnedObjects = 3;
  R.Stats.GcCount = 2;
  R.Stats.PeakResidency = 1 << 20;
  bench::ProfileSiteRow Site;
  Site.Name = "em.pin.down";
  Site.Events = 3;
  Site.Bytes = 1024;
  Site.LifetimeP50Ns = 100;
  Site.LifetimeP99Ns = 900;
  R.ProfileSites.push_back(Site);

  bench::BenchJson J("roundtrip", 0.25, 3);
  J.addMeta("note", "quotes \"and\" backslash \\ survive");
  J.addMetaInt("workers", 2);
  J.addRow("bench \"x\"", "par-w2", /*Entangled=*/true, R);
  std::string Doc = J.dump();

  // Raw parse with src/support/Json.h: every schema field survives.
  json::Value Root;
  std::string Err;
  ASSERT_TRUE(json::parse(Doc, Root, Err)) << Err;
  EXPECT_EQ(Root.field("schema")->StrV, "mpl-bench/1");
  EXPECT_EQ(Root.field("reps")->NumV, 3);
  EXPECT_EQ(Root.field("workers")->NumV, 2);
  EXPECT_NE(Root.field("note")->StrV.find("\"and\""), std::string::npos);
  const json::Value *Row0 = &Root.field("rows")->Items.at(0);
  EXPECT_EQ(Row0->field("name")->StrV, "bench \"x\"");
  EXPECT_TRUE(Row0->field("entangled")->BoolV);
  EXPECT_EQ(Row0->field("time")->field("rep_s")->Items.size(), 3u);
  EXPECT_EQ(Row0->field("checksum")->NumV, 42);
  const json::Value *Prof = Row0->field("profile");
  ASSERT_NE(Prof, nullptr);
  EXPECT_EQ(Prof->field("pin_bytes_attributed")->NumV, 1024);
  EXPECT_EQ(Prof->field("sites")->Items.at(0).field("name")->StrV,
            "em.pin.down");

  // And the gate's own loader accepts the writer's output wholesale.
  BenchFile F;
  ASSERT_TRUE(gate::parseBenchJson(Doc, F, Err)) << Err;
  ASSERT_EQ(F.Rows.size(), 1u);
  const gate::Row &G = F.Rows[0];
  EXPECT_EQ(G.Name, "bench \"x\"");
  EXPECT_NEAR(G.sigmaS(), 0.001, 1e-9);
  EXPECT_EQ(G.PinBytesAttributed, 1024);
  EXPECT_EQ(G.PinnedBytes, 1024);
  ASSERT_EQ(G.Sites.size(), 1u);
  EXPECT_EQ(G.Sites[0].Events, 3);
  // A self-compare of the round-tripped file is clean under every gate.
  GateOptions Opts;
  Opts.GateResidency = Opts.GateCounters = Opts.ProfileDrift = true;
  EXPECT_TRUE(gate::compare(F, F, Opts).ok());
}

//===----------------------------------------------------------------------===//
// mpl-spans/1 (tools/mpl_spans)
//===----------------------------------------------------------------------===//

namespace {

/// A minimal but complete mpl-spans/1 document in the exact shape
/// obs::SpanRunSummary::toJson() emits (root parent -1, 0/1 booleans).
const char *SpansDoc =
    "{\"schema\":\"mpl-spans/1\","
    "\"sched\":{\"work_s\":0.010,\"span_s\":0.006},"
    "\"ledger\":{\"valid\":1,\"tasks\":3,\"stolen\":1,\"dropped\":0,"
    "\"work_s\":0.010,\"critical_path_s\":0.006,\"agreement_pct\":0.0,"
    "\"em_reads\":1,\"pins\":1},"
    "\"lines\":[{\"line\":6,\"col\":7,\"em_reads\":1,\"pins\":0,\"tasks\":0,"
    "\"self_s\":0,\"cp_self_s\":0},"
    "{\"line\":4,\"col\":3,\"em_reads\":0,\"pins\":1,\"tasks\":2,"
    "\"self_s\":0.004,\"cp_self_s\":0.002}],"
    "\"critical_path\":[1,3],"
    "\"tasks\":["
    "{\"id\":1,\"parent\":-1,\"start_s\":0,\"stop_s\":0.008,\"self_s\":0.004,"
    "\"worker\":0,\"stolen\":0,\"on_cp\":1,\"line\":0,\"col\":0,\"depth\":0,"
    "\"em_reads\":0,\"pins\":0},"
    "{\"id\":2,\"parent\":1,\"start_s\":0.001,\"stop_s\":0.003,"
    "\"self_s\":0.002,\"worker\":0,\"stolen\":0,\"on_cp\":0,\"line\":4,"
    "\"col\":3,\"depth\":1,\"em_reads\":0,\"pins\":1},"
    "{\"id\":3,\"parent\":1,\"start_s\":0.001,\"stop_s\":0.005,"
    "\"self_s\":0.004,\"worker\":1,\"stolen\":1,\"on_cp\":1,\"line\":4,"
    "\"col\":3,\"depth\":1,\"em_reads\":1,\"pins\":0}"
    "]}";

} // namespace

TEST(SpansParse, GoodFileParses) {
  gate::SpansFile F;
  std::string Err;
  ASSERT_TRUE(gate::parseSpansJson(SpansDoc, F, Err)) << Err;
  EXPECT_TRUE(F.LedgerValid);
  EXPECT_EQ(F.Tasks, 3);
  EXPECT_EQ(F.Stolen, 1);
  EXPECT_EQ(F.Dropped, 0);
  EXPECT_DOUBLE_EQ(F.SchedWorkS, 0.010);
  EXPECT_DOUBLE_EQ(F.CriticalPathS, 0.006);
  EXPECT_EQ(F.EmReads, 1);
  ASSERT_EQ(F.Lines.size(), 2u);
  EXPECT_EQ(F.Lines[0].Line, 6);
  EXPECT_EQ(F.Lines[0].EmReads, 1);
  ASSERT_EQ(F.TaskRows.size(), 3u);
  EXPECT_EQ(F.TaskRows[0].Parent, -1);
  EXPECT_TRUE(F.TaskRows[2].Stolen);
  EXPECT_TRUE(F.TaskRows[2].OnCp);
  ASSERT_EQ(F.CriticalPath.size(), 2u);
  EXPECT_EQ(F.CriticalPath[1], 3u);
}

TEST(SpansParse, MalformedRejected) {
  gate::SpansFile F;
  std::string Err;
  EXPECT_FALSE(gate::parseSpansJson("", F, Err));
  EXPECT_NE(Err.find("empty"), std::string::npos) << Err;
  EXPECT_FALSE(gate::parseSpansJson("{\"schema\":\"mpl-spans/1\",", F, Err));
  EXPECT_NE(Err.find("parse error"), std::string::npos) << Err;
  EXPECT_FALSE(gate::parseSpansJson("[1]", F, Err));
  EXPECT_NE(Err.find("not an object"), std::string::npos) << Err;
  EXPECT_FALSE(gate::parseSpansJson("{\"schema\":\"mpl-bench/1\"}", F, Err));
  EXPECT_NE(Err.find("mpl-bench/1"), std::string::npos) << Err;
  EXPECT_FALSE(gate::parseSpansJson("{\"schema\":\"mpl-spans/1\"}", F, Err));
  EXPECT_NE(Err.find("ledger"), std::string::npos) << Err;
  EXPECT_FALSE(gate::parseSpansJson(
      "{\"schema\":\"mpl-spans/1\",\"ledger\":{\"valid\":1}}", F, Err));
  EXPECT_NE(Err.find("tasks"), std::string::npos) << Err;
  EXPECT_FALSE(gate::parseSpansJson(
      "{\"schema\":\"mpl-spans/1\",\"ledger\":{\"valid\":1},"
      "\"tasks\":[{\"parent\":-1}]}",
      F, Err));
  EXPECT_NE(Err.find("id"), std::string::npos) << Err;
}

TEST(SpansRender, SummaryPathLinesAndFold) {
  gate::SpansFile F;
  std::string Err;
  ASSERT_TRUE(gate::parseSpansJson(SpansDoc, F, Err)) << Err;

  std::string Sum = gate::renderSpansSummary(F);
  EXPECT_NE(Sum.find("3 tasks"), std::string::npos) << Sum;
  EXPECT_NE(Sum.find("critical path"), std::string::npos) << Sum;

  // Critical path render lists exactly the on_cp tasks, root labelled.
  std::string Cp = gate::renderCriticalPath(F);
  EXPECT_NE(Cp.find("#1"), std::string::npos) << Cp;
  EXPECT_NE(Cp.find("root"), std::string::npos) << Cp;
  EXPECT_NE(Cp.find("(stolen)"), std::string::npos) << Cp;
  EXPECT_EQ(Cp.find("#2"), std::string::npos) << "off-CP task listed:\n"
                                              << Cp;

  // Top lines sorted by em reads first: the read line leads.
  std::string Top = gate::renderTopLines(F, 10);
  size_t P6 = Top.find("L6:7");
  size_t P4 = Top.find("L4:3");
  ASSERT_NE(P6, std::string::npos) << Top;
  ASSERT_NE(P4, std::string::npos) << Top;
  EXPECT_LT(P6, P4) << "em-read line must sort first:\n" << Top;

  // Folded stacks: child frames chain through the parent's fork site to
  // the root; values are self time in ns.
  std::string Fold = gate::foldSpans(F);
  EXPECT_NE(Fold.find("root 4000000\n"), std::string::npos) << Fold;
  EXPECT_NE(Fold.find("root;L4:3 2000000\n"), std::string::npos) << Fold;
  EXPECT_NE(Fold.find("root;L4:3 4000000\n"), std::string::npos) << Fold;
}
