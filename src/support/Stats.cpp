//===- support/Stats.cpp - Named atomic counters --------------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Stats.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

using namespace mpl;

Stat::Stat(const char *Name) : StatName(Name) {
  StatRegistry::get().registerStat(this);
}

Stat::~Stat() { StatRegistry::get().unregisterStat(this); }

unsigned Stat::nextSlot() {
  static std::atomic<unsigned> Next{0};
  return Next.fetch_add(1, std::memory_order_relaxed) % Shards;
}

StatRegistry &StatRegistry::get() {
  // Function-local static avoids global-constructor ordering issues while
  // still giving Stat instances a registry to attach to on first use.
  static StatRegistry Instance;
  return Instance;
}

void StatRegistry::registerStat(Stat *S) {
  std::lock_guard<std::mutex> G(Lock);
  Stats.push_back(S);
}

void StatRegistry::unregisterStat(Stat *S) {
  std::lock_guard<std::mutex> G(Lock);
  Stats.erase(std::remove(Stats.begin(), Stats.end(), S), Stats.end());
  if (int64_t V = S->get())
    Retired[S->name()] += V;
}

void StatRegistry::resetAll() {
  std::lock_guard<std::mutex> G(Lock);
  for (Stat *S : Stats)
    S->set(0);
  Retired.clear();
}

int64_t StatRegistry::valueOf(const std::string &Name) const {
  std::lock_guard<std::mutex> G(Lock);
  for (const Stat *S : Stats)
    if (Name == S->name())
      return S->get();
  return 0;
}

std::vector<std::pair<std::string, int64_t>> StatRegistry::snapshotAll() const {
  std::lock_guard<std::mutex> G(Lock);
  // One entry per name: live instances summed on top of retired totals, so
  // consumers emitting keyed formats (JSON objects, Prometheus series)
  // never see duplicate keys.
  std::map<std::string, int64_t> Agg(Retired);
  for (const Stat *S : Stats)
    Agg[S->name()] += S->get();
  return {Agg.begin(), Agg.end()};
}

std::string StatRegistry::report() const {
  std::lock_guard<std::mutex> G(Lock);
  std::string Out;
  char Line[256];
  for (const Stat *S : Stats) {
    if (S->get() == 0)
      continue;
    std::snprintf(Line, sizeof(Line), "%-32s %12lld\n", S->name(),
                  static_cast<long long>(S->get()));
    Out += Line;
  }
  return Out;
}
