//===- perfbench/Serve.cpp - The serve workload --------------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// A seeded request mix (ping, pml `fib 15` source, workloads `fib 22`,
// `sort 20000`, `primes 20000`) against an in-process net::Server over
// loopback. One generator thread drives every connection through poll():
//
//  - open loop: request i is due at T0 + i/rate and is sent when due
//    whether or not earlier replies have arrived; its latency runs from
//    that due time, so a stall is charged to every request it delays;
//  - closed loop (the batch passes behind wall_s): each connection keeps
//    one request outstanding and the pass time is the batch's makespan.
//
// Responses are matched per connection in FIFO order (a connection's
// requests are answered in order) and checked against references computed
// here from src/baseline/Native, never from the server.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Spec.h"
#include "Trace.h"

#include "baseline/Native.h"
#include "net/Client.h"
#include "net/Frame.h"
#include "net/Server.h"
#include "pml/jit/Jit.h"
#include "support/EmCounters.h"
#include "support/Json.h"
#include "support/Random.h"
#include "support/Stats.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>

using namespace mpl;

namespace pb {

namespace {

enum { KPing, KPml, KFib, KSort, KPrimes, NumKinds };
constexpr int SetupReps = 11;
/// The served path's latency limit for max_rate_rps.
constexpr double LimitMs = 10.0;
/// A send more than this late counts as late.
constexpr double LateMs = 2.0;
/// Share of late sends above which a ladder step is not met.
constexpr double MaxLateShare = 0.01;
/// Nominal open-loop rate for latency_p50_ms / latency_p99_ms.
constexpr double NominalRps = 800;
/// The nominal phase is cut into this many consecutive windows of 1000
/// replies; the reported percentiles are the medians of the per-window
/// percentiles over all windows.
constexpr size_t NominalWindows = 6;
/// A nominal-rate reply slower than this counts as failed ("late reply").
constexpr double LateReplyMs = 1000;

struct Expected {
  std::string Body[NumKinds];
};

net::Request makeRequest(int Kind, uint64_t Id) {
  net::Request Q;
  Q.Id = Id;
  switch (Kind) {
  case KPing:
    Q.Kind = net::RequestKind::Ping;
    break;
  case KPml:
    Q.Kind = net::RequestKind::Pml;
    Q.Body = "fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)\n"
             "fib 15";
    break;
  case KFib:
    Q.Kind = net::RequestKind::Workload;
    Q.Body = "fib 22";
    break;
  case KSort:
    Q.Kind = net::RequestKind::Workload;
    Q.Body = "sort 20000";
    break;
  default:
    Q.Kind = net::RequestKind::Workload;
    Q.Body = "primes 20000";
    break;
  }
  return Q;
}

/// The server answers `sort n` with the sum of its seeded input, which is
/// derived from the request id (see net::Server).
std::string sortRef(uint64_t Id) {
  int64_t Sum = 0;
  for (int64_t V : nat::randomInts(20000, 1 << 20, 0x5eedull + Id))
    Sum += V;
  return std::to_string(Sum);
}

/// One loopback connection with its in-order outstanding requests.
struct Conn {
  int Fd = -1;
  net::FrameReader Reader;
  std::deque<size_t> Pending; ///< Indices into the load's request list.

  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }
  bool open(uint16_t Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    sockaddr_in A{};
    A.sin_family = AF_INET;
    A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    A.sin_port = htons(Port);
    return ::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) == 0;
  }
  bool send(const std::string &Frame) {
    size_t Off = 0;
    while (Off < Frame.size()) {
      ssize_t N = ::send(Fd, Frame.data() + Off, Frame.size() - Off,
                         MSG_NOSIGNAL);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }
};

/// What one load phase measured.
struct LoadResult {
  std::vector<double> LatMs;      ///< Per delivered request, in reply order.
  std::vector<int> LatKind;
  std::vector<double> LateMs;     ///< Send time minus due time (open loop).
  int64_t Failed = 0;             ///< Wrong, non-OK or undelivered replies.
  double Makespan = 0;
};

/// The request stream of one phase, drawn from the seed.
struct Load {
  std::vector<int> Kinds;
  std::vector<net::Request> Reqs;
  std::vector<std::string> Frames;
};

class LoadGen {
public:
  LoadGen(const Expected &E, Report &R) : Exp(E), Rep(R) {}

  bool connect(uint16_t Port, int N) {
    Conns.clear();
    for (int I = 0; I < N; ++I) {
      Conns.push_back(std::make_unique<Conn>());
      if (!Conns.back()->open(Port))
        return false;
    }
    return true;
  }
  void disconnect() { Conns.clear(); }

  /// Builds \p Count requests of the seeded mix with fresh ids.
  Load makeLoad(Rng &G, size_t Count) {
    Load L;
    for (size_t I = 0; I < Count; ++I) {
      int K = static_cast<int>(G.nextBounded(NumKinds));
      net::Request Q = makeRequest(K, NextId++);
      L.Frames.push_back(net::encodeFrame(net::encodeRequest(Q)));
      L.Kinds.push_back(K);
      L.Reqs.push_back(std::move(Q));
    }
    return L;
  }

  /// Runs \p L open loop at \p Rps (or closed loop when Rps == 0).
  LoadResult run(const Load &L, double Rps, bool Traced);

private:
  bool checkReply(const Load &L, size_t I, const net::Response &Resp);

  const Expected &Exp;
  Report &Rep;
  std::vector<std::unique_ptr<Conn>> Conns;
  uint64_t NextId = 1;
};

bool LoadGen::checkReply(const Load &L, size_t I, const net::Response &Resp) {
  int K = L.Kinds[I];
  bool Ok = Resp.Id == L.Reqs[I].Id && Resp.St == net::Status::Ok;
  if (Ok)
    Ok = K == KSort ? Resp.Body == sortRef(L.Reqs[I].Id) : Resp.Body == Exp.Body[K];
  return Rep.check(Ok, "serve " + std::string(ServeKindNames[K]) + " id " +
                           std::to_string(L.Reqs[I].Id) + ": status " +
                           net::statusName(Resp.St) + " body '" +
                           Resp.Body.substr(0, 40) + "'");
}

LoadResult LoadGen::run(const Load &L, double Rps, bool Traced) {
  const size_t N = L.Reqs.size();
  const bool Closed = Rps <= 0;
  LoadResult Res;
  std::vector<double> SentAt(N, 0), Due(N, 0);
  std::vector<char> Done(N, 0);
  std::vector<net::Response> Replies(N);
  std::vector<pollfd> Pfds(Conns.size());
  for (size_t C = 0; C < Conns.size(); ++C)
    Pfds[C] = {Conns[C]->Fd, POLLIN, 0};

  size_t Next = 0, Received = 0, Open = Conns.size();
  uint64_t Parent = Tracer::get().current();
  const double T0 = nowSec();
  auto SendOne = [&](size_t C, double DueAt) {
    Conn &Cn = *Conns[C];
    Due[Next] = DueAt;
    SentAt[Next] = nowSec();
    Cn.Pending.push_back(Next);
    if (!Cn.send(L.Frames[Next]))
      Rep.check(false, "serve: send failed");
    ++Next;
  };
  if (Closed)
    for (size_t C = 0; C < Conns.size() && Next < N; ++C)
      SendOne(C, nowSec());

  char Buf[16384];
  std::string Payload;
  double GiveUp = 0; // Set once every request is sent.
  while (Received < N && Open > 0) {
    double Now = nowSec();
    if (!Closed)
      while (Next < N && T0 + static_cast<double>(Next) / Rps <= Now)
        SendOne(Next % Conns.size(), T0 + static_cast<double>(Next) / Rps);
    if (Next == N && GiveUp == 0)
      GiveUp = nowSec() + 5.0;
    if (GiveUp > 0 && nowSec() > GiveUp)
      break;
    double Wait = Closed || Next == N
                      ? 0.05
                      : T0 + static_cast<double>(Next) / Rps - nowSec();
    timespec TS{};
    Wait = std::max(0.0, Wait);
    TS.tv_sec = static_cast<time_t>(Wait);
    TS.tv_nsec = static_cast<long>((Wait - std::floor(Wait)) * 1e9);
    int Ready = ::ppoll(Pfds.data(), Pfds.size(), &TS, nullptr);
    if (Ready <= 0)
      continue;
    for (size_t C = 0; C < Conns.size(); ++C) {
      if (!(Pfds[C].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      Conn &Cn = *Conns[C];
      ssize_t Got = ::recv(Cn.Fd, Buf, sizeof(Buf), 0);
      // The server's sockets keep Nagle on, so a reply written while the
      // previous one is unacknowledged waits for our ACK; acknowledging at
      // once keeps a delayed ACK from holding pipelined replies back until
      // the connection's next request.
      int One = 1;
      ::setsockopt(Cn.Fd, IPPROTO_TCP, TCP_QUICKACK, &One, sizeof(One));
      if (Got <= 0) {
        Pfds[C].fd = -1; // Closed by the server; its pending are undelivered.
        --Open;
        continue;
      }
      Cn.Reader.feed(Buf, static_cast<size_t>(Got));
      while (Cn.Reader.next(Payload) == net::DecodeStatus::Ok) {
        double At = nowSec();
        net::Response Resp;
        if (Cn.Pending.empty() ||
            net::decodeResponse(Payload, Resp) != net::DecodeStatus::Ok) {
          Rep.check(false, "serve: unexpected or malformed response");
          continue;
        }
        size_t I = Cn.Pending.front();
        Cn.Pending.pop_front();
        Done[I] = 1;
        Replies[I] = std::move(Resp);
        ++Received;
        Res.LatMs.push_back(1e3 * (At - Due[I]));
        Res.LatKind.push_back(L.Kinds[I]);
        if (Traced)
          Tracer::get().record("net.request", SentAt[I], At, Parent,
                               L.Reqs[I].Id);
        if (Closed && Next < N)
          SendOne(C, nowSec());
      }
    }
  }
  Res.Makespan = since(T0);
  for (size_t I = 0; I < N; ++I) {
    if (!Closed)
      Res.LateMs.push_back(1e3 * (SentAt[I] - Due[I]));
    if (!Done[I]) {
      Rep.check(false, "serve: request " + std::to_string(L.Reqs[I].Id) +
                           " undelivered");
      ++Res.Failed;
    } else if (!checkReply(L, I, Replies[I])) {
      ++Res.Failed;
    }
  }
  for (auto &C : Conns)
    C->Pending.clear();
  return Res;
}

/// A started server plus the generator's connections to it.
class Session {
public:
  Session(const net::ServerConfig &Cfg, LoadGen &D, int Conns)
      : S(Cfg), Drv(D) {
    Up = S.start() && Drv.connect(S.port(), Conns);
  }
  ~Session() { stop(); }
  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  bool up() const { return Up; }
  uint16_t port() const { return S.port(); }

  /// Closes the connections, drains, and checks the request balance.
  void stop(Report *R = nullptr) {
    if (Stopped)
      return;
    Stopped = true;
    Drv.disconnect();
    S.waitUntilDrained();
    Totals = S.totals();
    if (R)
      R->check(Totals.Requests == Totals.Ok + Totals.Shed +
                                      Totals.DeadlineExpired + Totals.Errors +
                                      Totals.Draining,
               "serve: server request balance broken at drain");
  }
  net::ServerTotals Totals;

private:
  net::Server S;
  LoadGen &Drv;
  bool Up = false;
  bool Stopped = false;
};

struct StepResult {
  double Rate = 0;
  double P99 = 0;
  bool Met = false;
  bool MissedOnLatency = false; ///< Missed with p99 over the limit, no failure.
};

/// Highest rate meeting the limit: the last met step, moved toward the
/// first missed step by linear interpolation of p99 across the limit when
/// that step's p99 was over it, so the value is not quantised to the
/// ladder's 1.25x steps.
double maxRate(const std::vector<StepResult> &Steps) {
  double Best = 0;
  for (size_t I = 0; I < Steps.size(); ++I) {
    if (!Steps[I].Met)
      break;
    Best = Steps[I].Rate;
    if (I + 1 < Steps.size() && Steps[I + 1].MissedOnLatency) {
      const StepResult &A = Steps[I], &B = Steps[I + 1];
      if (B.P99 > A.P99)
        Best = A.Rate + (B.Rate - A.Rate) * (LimitMs - A.P99) / (B.P99 - A.P99);
    }
  }
  return Best;
}

/// Log2-quantised stage p99 from the server's 'I' stats frame, in ms.
void stageMetrics(uint16_t Port, Report &R) {
  net::Client C;
  net::Response Resp;
  json::Value V;
  std::string Err;
  if (!C.connect(Port) || !C.introspect("", Resp) ||
      !json::parse(Resp.Body, V, Err)) {
    R.check(false, "serve: stats frame unavailable");
    return;
  }
  const json::Value *Root = V.field("mpl-stats/1");
  const json::Value *Stage = Root ? Root->field("stage") : nullptr;
  auto P99 = [&](const char *Name) {
    const json::Value *H = Stage ? Stage->field(Name) : nullptr;
    const json::Value *P = H ? H->field("p99") : nullptr;
    return P && P->isNumber() ? P->NumV * 1e-6 : 0.0;
  };
  R.set("net.stage_queue_p99_ms", P99("queue"), "ms");
  R.set("net.stage_exec_p99_ms", P99("exec"), "ms");
}

} // namespace

void runServe(const Options &O, Report &R) {
  const int P = hostCpus();
  const int Conns = P;
  Tracer &Tr = Tracer::get();
  Expected Exp;
  Exp.Body[KPing] = "pong";
  Exp.Body[KPml] = std::to_string(R.expect(nat::fib(15))) + " : int";
  Exp.Body[KFib] = std::to_string(nat::fib(22));
  Exp.Body[KSort] = "";
  Exp.Body[KPrimes] = std::to_string(nat::primesCount(20000));
  LoadGen D(Exp, R);
  Rng G(O.Seed);

  net::ServerConfig Default;
  net::ServerConfig Narrow = Default;
  Narrow.NumWorkers = 1;

  // Set-up: server start (runtime included), connections, and the seeded
  // request batch of the closed-loop passes.
  std::vector<double> SetupSec;
  constexpr size_t BatchSize = 240;
  Load Batch;
  for (int I = 0; I < SetupReps; ++I) {
    Tr.setEnabled(O.Trace && I == 0);
    double T0 = nowSec();
    {
      Span S("setup");
      Session Sess(Default, D, Conns);
      R.check(Sess.up(), "serve: server did not start");
      {
        Span SG("gen");
        Rng GI(O.Seed);
        Batch = D.makeLoad(GI, BatchSize);
      }
      SetupSec.push_back(since(T0));
    }
  }
  Tr.setEnabled(false);

  // Closed-loop batch passes: the served counterpart of a batch pass. One
  // server per width, passes alternating JIT off and on, the first pair a
  // warm-up. The P = 1 server's peak residency covers its start and first
  // JIT-off batch.
  std::vector<double> Times[4], TracedTimes, Peaks;
  for (int Wid = 0; Wid < 2; ++Wid) {
    if (Wid == 1)
      StatRegistry::get().resetAll();
    Session Sess(Wid == 0 ? Default : Narrow, D, Wid == 0 ? Conns : 1);
    if (!R.check(Sess.up(), "serve: server did not start"))
      return;
    const double Start = nowSec();
    for (int Pass = 0; Pass < 6 || since(Start) < 0.125 * O.Seconds;
         ++Pass) {
      int Jit = Pass % 2;
      jit::setEnabled(Jit == 1);
      bool Traced = O.Trace && Wid == 0 && Jit == 0 && Pass % 4 == 2;
      Tr.setEnabled(Traced);
      LoadResult LR;
      {
        Span S("pass");
        LR = D.run(Batch, 0, Traced);
      }
      Tr.setEnabled(false);
      jit::setEnabled(false);
      if (Wid == 1 && Pass == 0)
        Peaks.push_back(statOf("mm.bytes.peak"));
      if (Pass < 2)
        continue; // Warm-up pair.
      if (Traced)
        TracedTimes.push_back(LR.Makespan);
      else
        Times[Wid + 2 * Jit].push_back(LR.Makespan);
    }
    Sess.stop(&R);
  }

  // Open loop at the nominal rate, default server configuration.
  StatRegistry::get().resetAll();
  em::Counts.reset();
  LoadResult Nominal;
  {
    Session Sess(Default, D, Conns);
    if (!R.check(Sess.up(), "serve: server did not start"))
      return;
    // NominalWindows windows of 1000 replies; the traced run
    // needs about 1000 replies of each of the five kinds for the per-kind
    // p99s.
    size_t Count = O.Trace ? 6000 : NominalWindows * 1000;
    Load L = D.makeLoad(G, Count);
    Tr.setEnabled(O.Trace);
    {
      Span S("pass");
      Nominal = D.run(L, NominalRps, O.Trace);
    }
    Tr.setEnabled(false);
    for (double Ms : Nominal.LatMs)
      R.check(Ms <= LateReplyMs, "serve: reply later than 1 s at the "
                                 "nominal rate");
    if (O.Trace)
      stageMetrics(Sess.port(), R);
    Sess.stop(&R);
    if (O.Trace) {
      R.set("net.shed", static_cast<double>(Sess.Totals.Shed), "count");
      R.set("net.deadline_expired",
            static_cast<double>(Sess.Totals.DeadlineExpired), "count");
      R.set("net.errors", static_cast<double>(Sess.Totals.Errors), "count");
      R.set("net.protocol_errors",
            static_cast<double>(Sess.Totals.ProtocolErrors), "count");
    }
  }
  std::vector<double> Late = Nominal.LateMs;
  size_t LateCount = static_cast<size_t>(
      std::count_if(Late.begin(), Late.end(), [](double L) { return L > LateMs; }));
  std::fprintf(stderr,
               "perfbench: nominal %.0f req/s: %zu samples, p50 %.3f ms, p99 "
               "%.3f ms (all samples), generator late >%.0f ms on %zu sends\n",
               NominalRps, Nominal.LatMs.size(), median(Nominal.LatMs),
               percentile(Nominal.LatMs, 0.99), LateMs, LateCount);

  if (O.Trace) {
    // Runtime counters accumulated by the server over the nominal phase.
    counterMetrics(R, nullptr, P, 0);
    R.set("serve.latency_samples", static_cast<double>(Nominal.LatMs.size()),
          "count");
    for (int K = 0; K < NumKinds; ++K) {
      std::vector<double> V;
      for (size_t I = 0; I < Nominal.LatMs.size(); ++I)
        if (Nominal.LatKind[I] == K)
          V.push_back(Nominal.LatMs[I]);
      // Only a p99 with at least ten samples beyond it is reported.
      R.set(std::string("serve.p99_ms.") + ServeKindNames[K],
            tailReportable(V.size(), 0.99) ? percentile(V, 0.99) : 0, "ms");
    }
    R.set("gen.late_ratio",
          Late.empty() ? 0 : static_cast<double>(LateCount) / Late.size(),
          "ratio");
    R.set("gen.late_p99_ms", percentile(Late, 0.99), "ms");
    R.set("trace.overhead_ratio",
          median(Times[0]) > 0 ? median(TracedTimes) / median(Times[0]) : 0,
          "ratio");
    R.set("jit.speedup_p1",
          median(Times[3]) > 0 ? median(Times[1]) / median(Times[3]) : 0,
          "ratio");
    R.set("jit.scaling",
          median(Times[2]) > 0 ? median(Times[3]) / median(Times[2]) : 0,
          "ratio");
    return;
  }

  // Rate ladder, default server configuration, 1.25x steps up from the
  // nominal rate until a step misses the limit (or, when the first step
  // already misses, down until one meets it, at most three steps). Each
  // step runs for at least 2000 replies, so its p99 has twenty samples
  // beyond it, and a missed step is run once more before it counts: one
  // stall of the shared host must not end the ladder. A ladder with no met
  // step reports 0; that is a measurement, not a failed check.
  std::vector<StepResult> Steps;
  {
    Session Sess(Default, D, Conns);
    if (!R.check(Sess.up(), "serve: server did not start"))
      return;
    auto RunStep = [&](double Rate) {
      size_t Count = std::max<size_t>(2000, static_cast<size_t>(Rate * 0.5));
      Load L = D.makeLoad(G, Count);
      LoadResult LR = D.run(L, Rate, false);
      StepResult S;
      S.Rate = Rate;
      S.P99 = percentile(LR.LatMs, 0.99);
      size_t Lates = static_cast<size_t>(std::count_if(
          LR.LateMs.begin(), LR.LateMs.end(),
          [](double L) { return L > LateMs; }));
      bool GenOk = static_cast<double>(Lates) <=
                   MaxLateShare * static_cast<double>(LR.LateMs.size());
      // A growing backlog shows as the last tenth of replies waiting half
      // the limit longer than the first tenth.
      size_t Tenth = LR.LatMs.size() / 10;
      std::vector<double> Head(LR.LatMs.begin(), LR.LatMs.begin() + Tenth),
          Tail(LR.LatMs.end() - Tenth, LR.LatMs.end());
      bool NoBacklog = median(Tail) <= median(Head) + 0.5 * LimitMs;
      S.Met = LR.Failed == 0 && S.P99 <= LimitMs && GenOk && NoBacklog;
      S.MissedOnLatency = !S.Met && LR.Failed == 0 && S.P99 > LimitMs;
      std::fprintf(stderr,
                   "perfbench: step %7.0f req/s: p99 %8.3f ms over %zu, late "
                   "sends %zu, backlog %s -> %s\n",
                   Rate, S.P99, LR.LatMs.size(), Lates,
                   NoBacklog ? "flat" : "growing", S.Met ? "met" : "missed");
      return S;
    };
    auto Step = [&](double Rate) {
      StepResult S = RunStep(Rate);
      return S.Met ? S : RunStep(Rate);
    };
    double Rate = NominalRps;
    Steps.push_back(Step(Rate));
    if (Steps.back().Met) {
      while (Steps.back().Met && Steps.size() < 16) {
        Rate *= 1.25;
        Steps.push_back(Step(Rate));
      }
    } else {
      for (int I = 0; I < 3 && !Steps.front().Met; ++I) {
        Rate /= 1.25;
        Steps.insert(Steps.begin(), Step(Rate));
      }
    }
    Sess.stop(&R);
    std::fprintf(stderr,
                 "perfbench: ladder server totals: %lld requests, %lld shed, "
                 "%lld deadline expired, %lld errors\n",
                 static_cast<long long>(Sess.Totals.Requests),
                 static_cast<long long>(Sess.Totals.Shed),
                 static_cast<long long>(Sess.Totals.DeadlineExpired),
                 static_cast<long long>(Sess.Totals.Errors));
  }

  R.set("setup_s", median(SetupSec), "s");
  R.set("wall_s", median(Times[0]), "s");
  R.set("wall_p1_s", median(Times[1]), "s");
  R.set("jit_wall_s", median(Times[2]), "s");
  R.set("jit_wall_p1_s", median(Times[3]), "s");
  R.set("peak_residency_mb", median(Peaks) / (1024.0 * 1024.0), "MiB");
  // Percentiles per window of the nominal phase, then the median over
  // every window.
  std::vector<double> P50s, P99s;
  size_t Win = Nominal.LatMs.size() / NominalWindows;
  for (size_t I = 0; I < NominalWindows && Win > 0; ++I) {
    std::vector<double> W(Nominal.LatMs.begin() + I * Win,
                          Nominal.LatMs.begin() + (I + 1) * Win);
    P50s.push_back(median(W));
    P99s.push_back(percentile(W, 0.99));
  }
  R.set("latency_p50_ms", median(P50s), "ms");
  R.set("latency_p99_ms", median(P99s), "ms");
  R.set("max_rate_rps", maxRate(Steps), "req/s");
}

} // namespace pb
