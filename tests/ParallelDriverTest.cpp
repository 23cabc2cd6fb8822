//===- ParallelDriverTest.cpp - Determinism of the parallel driver ------------===//
//
// The parallel TRACER driver promises bitwise-identical results for every
// worker count: verdicts, iteration counts, cheapest abstractions, and all
// non-timing statistics must match the sequential run exactly (only the
// Seconds fields may differ). These tests pin that contract on both client
// analyses over the synthetic integration programs, and cover the
// cross-round forward-run cache (hit accounting, LRU eviction, pinning).
//
//===----------------------------------------------------------------------===//

#include "escape/Escape.h"
#include "reporting/Harness.h"
#include "synth/Generator.h"
#include "tracer/ForwardRunCache.h"
#include "tracer/QueryDriver.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace optabs;
using tracer::ForwardRunCache;
using tracer::QueryOutcome;
using tracer::Verdict;

/// Everything the determinism contract covers, in comparable form.
struct Fingerprint {
  std::vector<std::string> Queries; ///< verdict/iters/cost/param/exhaustion
  unsigned ForwardRuns = 0;
  unsigned BackwardRuns = 0;
  unsigned BudgetExhausted = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t CacheEvictions = 0;

  bool operator==(const Fingerprint &) const = default;
};

Fingerprint fingerprintOf(const reporting::ClientResults &R,
                          unsigned ForwardRuns, unsigned BackwardRuns) {
  Fingerprint F;
  for (const reporting::QueryStat &Q : R.Queries)
    F.Queries.push_back(std::string(tracer::verdictName(Q.V)) + "/" +
                        std::to_string(Q.Iterations) + "/" +
                        std::to_string(Q.Cost) + "/" + Q.ParamKey + "/" +
                        Q.ExhaustedResource + "/" + Q.ExhaustedSite);
  F.ForwardRuns = ForwardRuns;
  F.BackwardRuns = BackwardRuns;
  F.BudgetExhausted = R.BudgetExhausted;
  F.CacheHits = R.CacheHits;
  F.CacheMisses = R.CacheMisses;
  F.CacheEvictions = R.CacheEvictions;
  return F;
}

/// Runs both clients over one integration benchmark at a given worker
/// count and fingerprints everything that must not depend on it.
std::pair<Fingerprint, Fingerprint> runAt(const synth::BenchConfig &Config,
                                          unsigned NumThreads,
                                          size_t CacheCapacity = 0) {
  reporting::HarnessOptions Options;
  Options.Cfg.Execution.NumThreads = NumThreads;
  Options.Cfg.Execution.ForwardCacheCapacity = CacheCapacity;
  reporting::BenchRun Run = reporting::runBenchmark(Config, Options);
  return {fingerprintOf(Run.Esc, Run.Esc.ForwardRuns, Run.Esc.BackwardRuns),
          fingerprintOf(Run.Ts, Run.Ts.ForwardRuns, Run.Ts.BackwardRuns)};
}

TEST(ParallelDriver, WorkerCountDoesNotChangeResults) {
  // Both clients (escape + typestate) over the first two integration
  // programs: the full Algorithm 1 pipeline including §6 grouping.
  for (size_t BenchIdx : {size_t(0), size_t(1)}) {
    const synth::BenchConfig &Config = synth::paperSuite()[BenchIdx];
    auto Baseline = runAt(Config, 1);
    EXPECT_FALSE(Baseline.first.Queries.empty());
    EXPECT_FALSE(Baseline.second.Queries.empty());
    for (unsigned Threads : {2u, 8u}) {
      auto Parallel = runAt(Config, Threads);
      EXPECT_EQ(Baseline.first, Parallel.first)
          << Config.Name << " escape, threads=" << Threads;
      EXPECT_EQ(Baseline.second, Parallel.second)
          << Config.Name << " typestate, threads=" << Threads;
    }
  }
}

TEST(ParallelDriver, StepBudgetExhaustionIsWorkerCountInvariant) {
  // Logical-step budgets are counted per task, not per worker, so a budget
  // timeout cuts the very same unit of work at any thread count: with zero
  // wall-clock limits in play, the budgeted run - including which queries
  // exhausted, at which site, after how many iterations - must be bitwise
  // identical for 1, 2 and 8 workers.
  auto RunAt = [](unsigned Threads) {
    reporting::HarnessOptions Options;
    Options.Cfg.Execution.NumThreads = Threads;
    Options.Cfg.Budgets.ForwardStepBudget = 400;
    Options.Cfg.Budgets.BackwardStepBudget = 300;
    Options.Cfg.Budgets.SolverDecisionBudget = 64;
    reporting::BenchRun Run =
        reporting::runBenchmark(synth::paperSuite()[0], Options);
    return std::make_pair(
        fingerprintOf(Run.Esc, Run.Esc.ForwardRuns, Run.Esc.BackwardRuns),
        fingerprintOf(Run.Ts, Run.Ts.ForwardRuns, Run.Ts.BackwardRuns));
  };
  auto Baseline = RunAt(1);
  EXPECT_FALSE(Baseline.first.Queries.empty());
  // The budgets must actually bite for this test to pin anything.
  EXPECT_GT(Baseline.first.BudgetExhausted + Baseline.second.BudgetExhausted,
            0u);
  for (unsigned Threads : {2u, 8u}) {
    auto Parallel = RunAt(Threads);
    EXPECT_EQ(Baseline.first, Parallel.first) << "escape, threads="
                                              << Threads;
    EXPECT_EQ(Baseline.second, Parallel.second) << "typestate, threads="
                                                << Threads;
  }
}

/// Replaces the number after every occurrence of \p Key in the JSONL
/// \p Text with 0.
std::string zeroField(const std::string &Text, const std::string &Key) {
  std::string Out;
  size_t From = 0;
  for (size_t At = Text.find(Key); At != std::string::npos;
       At = Text.find(Key, From)) {
    Out.append(Text, From, At + Key.size() - From);
    Out.push_back('0');
    From = std::min(Text.find_first_of(",}", At + Key.size()), Text.size());
  }
  Out.append(Text, From);
  return Out;
}

TEST(ParallelDriver, EventTraceIsWorkerCountInvariant) {
  // Every event-trace line is written from a sequential stage, in schedule
  // order, so the whole stream - choices, steps, budget events, verdicts,
  // cache counters - is byte-identical at any worker count once the
  // wall-clock "seconds" fields and run_begin's "threads" are zeroed.
  const std::string Path =
      ::testing::TempDir() + "parallel_driver_event_trace.jsonl";
  auto TraceAt = [&](const char *Strategy, unsigned Threads) {
    std::remove(Path.c_str());
    reporting::HarnessOptions Options;
    Options.Cfg.Execution.Strategy = Strategy;
    Options.Cfg.Execution.NumThreads = Threads;
    Options.Cfg.Observability.EventTracePath = Path;
    reporting::runBenchmark(synth::paperSuite()[0], Options);
    std::ifstream In(Path);
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    return zeroField(zeroField(Buffer.str(), "\"seconds\":"),
                     "\"threads\":");
  };
  for (const char *Strategy : {"tracer", "eliminate-current", "greedy-grow"}) {
    std::string Sequential = TraceAt(Strategy, 1);
    EXPECT_NE(Sequential.find("\"event\":\"verdict\""), std::string::npos)
        << Strategy;
    EXPECT_EQ(Sequential, TraceAt(Strategy, 8)) << Strategy;
  }
  std::remove(Path.c_str());
}

TEST(ParallelDriver, CacheCapDoesNotChangeResults) {
  // A capacity-1 cache forces evictions but only costs recomputation;
  // verdicts and driver statistics other than the cache counters are
  // unchanged, and forward runs can only go up.
  const synth::BenchConfig &Config = synth::paperSuite()[0];
  auto Unbounded = runAt(Config, 4);
  auto Capped = runAt(Config, 4, 1);
  EXPECT_EQ(Unbounded.first.Queries, Capped.first.Queries);
  EXPECT_EQ(Unbounded.second.Queries, Capped.second.Queries);
  EXPECT_GE(Capped.first.ForwardRuns, Unbounded.first.ForwardRuns);
}

TEST(ParallelDriver, RevisitedAbstractionHitsTheCache) {
  // A second run() on the same driver replays the CEGAR search from
  // scratch; every abstraction of the first run is already cached, so the
  // forward fixpoint never recomputes and the second run counts hits.
  synth::Benchmark B = synth::generate(synth::paperSuite()[0]);
  escape::EscapeAnalysis A(B.P);
  Config Options;
  Options.Execution.MaxItersPerQuery = 32;
  tracer::QueryDriver<escape::EscapeAnalysis> Driver(B.P, A, Options);

  std::vector<QueryOutcome> First = Driver.run(B.EscChecks);
  unsigned FirstForwardRuns = Driver.stats().ForwardRuns;
  EXPECT_GT(FirstForwardRuns, 0u);

  std::vector<QueryOutcome> Second = Driver.run(B.EscChecks);
  EXPECT_EQ(Driver.stats().ForwardRuns, 0u)
      << "revisited abstractions must not recompute their forward runs";
  EXPECT_GT(Driver.stats().CacheHits, 0u);
  EXPECT_EQ(Driver.stats().CacheMisses, 0u);

  ASSERT_EQ(First.size(), Second.size());
  for (size_t I = 0; I < First.size(); ++I) {
    EXPECT_EQ(First[I].V, Second[I].V);
    EXPECT_EQ(First[I].Iterations, Second[I].Iterations);
    EXPECT_EQ(First[I].CheapestParam, Second[I].CheapestParam);
  }
}

//===----------------------------------------------------------------------===//
// ForwardRunCache unit tests
//===----------------------------------------------------------------------===//

using IntCache = ForwardRunCache<int>;

IntCache::Key key(std::initializer_list<bool> Bits, uint32_t Salt = 0) {
  IntCache::Key K;
  K.Bits = Bits;
  K.Salt = Salt;
  return K;
}

TEST(ForwardRunCache, LookupCountsHitsAndMisses) {
  IntCache Cache;
  EXPECT_EQ(Cache.lookup(key({true})), nullptr);
  EXPECT_EQ(Cache.counters().Misses, 1u);
  int *Run = Cache.insert(key({true}), std::make_unique<int>(7));
  ASSERT_NE(Run, nullptr);
  EXPECT_EQ(*Cache.lookup(key({true})), 7);
  EXPECT_EQ(Cache.counters().Hits, 1u);
  // The salt separates otherwise-equal abstractions (§6 ungrouped mode).
  EXPECT_EQ(Cache.lookup(key({true}, /*Salt=*/5)), nullptr);
  EXPECT_EQ(Cache.counters().Misses, 2u);
}

TEST(ForwardRunCache, LruEvictionRespectsCapacity) {
  IntCache Cache(/*Capacity=*/2);
  Cache.insert(key({true, false}), std::make_unique<int>(1));
  Cache.beginEpoch(); // unpin entry 1
  Cache.insert(key({false, true}), std::make_unique<int>(2));
  Cache.beginEpoch(); // unpin entry 2
  // Entry 1 is least recently used; inserting a third entry evicts it.
  Cache.insert(key({true, true}), std::make_unique<int>(3));
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.counters().Evictions, 1u);
  Cache.beginEpoch();
  EXPECT_EQ(Cache.lookup(key({true, false})), nullptr); // evicted
  EXPECT_NE(Cache.lookup(key({false, true})), nullptr);
  EXPECT_NE(Cache.lookup(key({true, true})), nullptr);
}

TEST(ForwardRunCache, LookupRefreshesRecency) {
  IntCache Cache(2);
  Cache.insert(key({true, false}), std::make_unique<int>(1));
  Cache.insert(key({false, true}), std::make_unique<int>(2));
  Cache.beginEpoch();
  EXPECT_NE(Cache.lookup(key({true, false})), nullptr); // refresh entry 1
  Cache.beginEpoch();
  Cache.insert(key({true, true}), std::make_unique<int>(3));
  // Entry 2 was the least recently used one.
  Cache.beginEpoch();
  EXPECT_NE(Cache.lookup(key({true, false})), nullptr);
  EXPECT_EQ(Cache.lookup(key({false, true})), nullptr);
}

TEST(ForwardRunCache, PinnedEntriesAreNeverEvicted) {
  IntCache Cache(1);
  // Both entries touched in the current epoch: the cache overshoots its
  // capacity rather than evict a run the current round still references.
  Cache.insert(key({true, false}), std::make_unique<int>(1));
  int *Pinned = Cache.insert(key({false, true}), std::make_unique<int>(2));
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.counters().Evictions, 0u);
  EXPECT_EQ(*Pinned, 2);
  // Next epoch unpins: the next insert shrinks the cache back to its cap.
  Cache.beginEpoch();
  Cache.insert(key({true, true}), std::make_unique<int>(3));
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Cache.counters().Evictions, 2u);
}

TEST(ForwardRunCache, OvershootKeepsGrowingWhileEverythingIsPinned) {
  IntCache Cache(1);
  // One round that touches three distinct abstractions: all three stay
  // resident (3x overshoot), every pointer stays valid, nothing is
  // evicted until the epoch rolls over.
  int *A = Cache.insert(key({true, false, false}), std::make_unique<int>(1));
  int *B = Cache.insert(key({false, true, false}), std::make_unique<int>(2));
  int *C = Cache.insert(key({false, false, true}), std::make_unique<int>(3));
  EXPECT_EQ(Cache.size(), 3u);
  EXPECT_EQ(Cache.counters().Evictions, 0u);
  EXPECT_EQ(*A, 1);
  EXPECT_EQ(*B, 2);
  EXPECT_EQ(*C, 3);
  // After unpinning, one insert drains the overshoot back to capacity in
  // LRU order (A, then B, then C are the stalest).
  Cache.beginEpoch();
  int *D = Cache.insert(key({true, true, true}), std::make_unique<int>(4));
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Cache.counters().Evictions, 3u);
  EXPECT_EQ(*D, 4);
  Cache.beginEpoch();
  EXPECT_EQ(Cache.lookup(key({true, false, false})), nullptr);
  EXPECT_NE(Cache.lookup(key({true, true, true})), nullptr);
}

TEST(ForwardRunCache, ResidentBytesGaugeTracksInsertReplaceAndEviction) {
  IntCache Cache(/*Capacity=*/1);
  EXPECT_EQ(Cache.residentBytes(), 0u);
  // Plain runs report sizeof(RunT); real forward runs report
  // approxMemoryBytes(), which shrinks when dead-variable pruning
  // collapses interned states (see ForwardTest).
  Cache.insert(key({true}), std::make_unique<int>(1));
  EXPECT_EQ(Cache.residentBytes(), sizeof(int));
  // Replacing a resident key in a later round swaps the charge instead of
  // double-counting. (A same-round replacement defers the old run instead;
  // see ReplacingAPinnedRunDefersItsBytesUntilEpochEnd.)
  Cache.beginEpoch();
  Cache.insert(key({true}), std::make_unique<int>(2));
  EXPECT_EQ(Cache.residentBytes(), sizeof(int));
  // Eviction releases the evicted run's bytes.
  Cache.beginEpoch();
  Cache.insert(key({false}), std::make_unique<int>(3));
  EXPECT_EQ(Cache.counters().Evictions, 1u);
  EXPECT_EQ(Cache.residentBytes(), sizeof(int));
}

TEST(ForwardRunCache, ReplacingAPinnedRunDefersItsBytesUntilEpochEnd) {
  // Regression: replacing a key that was looked up this round must keep
  // the old run alive (the driver may hold a raw pointer into it) and keep
  // its bytes charged to the gauge until beginEpoch() actually frees it -
  // releasing the charge early made residentBytes() under-report live
  // memory, and freeing the run early was a use-after-free.
  IntCache Cache;
  int *Old = Cache.insert(key({true}), std::make_unique<int>(1));
  // Same round: the old run is pinned by this lookup.
  EXPECT_EQ(Cache.lookup(key({true})), Old);
  int *New = Cache.insert(key({true}), std::make_unique<int>(2));
  EXPECT_NE(New, Old);
  EXPECT_EQ(*Old, 1); // still alive and readable
  EXPECT_EQ(Cache.residentBytes(), 2 * sizeof(int)); // both charged
  // The epoch roll frees the deferred run and reconciles the gauge.
  Cache.beginEpoch();
  EXPECT_EQ(Cache.residentBytes(), sizeof(int));
  EXPECT_EQ(*Cache.lookup(key({true})), 2);
}

TEST(ForwardRunCache, EvictUnpinnedReleasesBytesAndCountsEvictions) {
  IntCache Cache;
  Cache.insert(key({true, false}), std::make_unique<int>(1));
  Cache.insert(key({false, true}), std::make_unique<int>(2));
  Cache.beginEpoch(); // unpin both
  int *Pinned = Cache.insert(key({true, true}), std::make_unique<int>(3));
  // The degradation ladder's relief valve: both unpinned entries go, the
  // pinned one stays, and the gauge drops by exactly what was freed.
  EXPECT_EQ(Cache.evictUnpinned(), 2u);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Cache.counters().Evictions, 2u);
  EXPECT_EQ(Cache.residentBytes(), sizeof(int));
  EXPECT_EQ(*Pinned, 3);
}

TEST(ForwardRunCache, MinDataEpochTreatsOlderEntriesAsMisses) {
  IntCache Cache;
  IntCache::Key K = key({true});
  K.ProgramEpoch = 4;
  Cache.insert(K, std::make_unique<int>(1), /*DataEpoch=*/2);
  uint64_t Served = 0;
  // Fresh enough for a check last dirtied at epoch 2, stale for one
  // dirtied at epoch 3.
  EXPECT_NE(Cache.lookup(K, /*MinDataEpoch=*/2, &Served), nullptr);
  EXPECT_EQ(Served, 2u);
  EXPECT_EQ(Cache.lookup(K, /*MinDataEpoch=*/3), nullptr);
  EXPECT_EQ(Cache.counters().Misses, 1u);
  // Recomputing against the new version overwrites in place.
  Cache.insert(K, std::make_unique<int>(9), /*DataEpoch=*/4);
  EXPECT_NE(Cache.lookup(K, /*MinDataEpoch=*/3), nullptr);
}

TEST(ForwardRunCache, MigrateEpochCarriesRunsBytesAndDataEpochs) {
  IntCache Cache;
  IntCache::Key A = key({true});
  A.ProgramEpoch = 1;
  IntCache::Key B = key({false});
  B.ProgramEpoch = 1;
  IntCache::Key Other = key({true});
  Other.ProgramEpoch = 7; // a different program's entries stay put
  Cache.insert(A, std::make_unique<int>(1), /*DataEpoch=*/1);
  Cache.insert(B, std::make_unique<int>(2), /*DataEpoch=*/1);
  Cache.insert(Other, std::make_unique<int>(3), /*DataEpoch=*/7);
  uint64_t BytesBefore = Cache.residentBytes();

  EXPECT_EQ(Cache.migrateEpoch(1, 2), 2u);
  EXPECT_EQ(Cache.size(), 3u);
  EXPECT_EQ(Cache.residentBytes(), BytesBefore);
  Cache.beginEpoch();
  EXPECT_EQ(Cache.lookup(A), nullptr); // old epoch keys are gone
  A.ProgramEpoch = B.ProgramEpoch = 2;
  EXPECT_EQ(*Cache.lookup(A), 1);
  EXPECT_EQ(*Cache.lookup(B), 2);
  EXPECT_EQ(*Cache.lookup(Other), 3);
  // Data epochs rode along (the runs were computed on version 1's IR and
  // remain exact for checks not dirtied since).
  uint64_t Served = 0;
  EXPECT_NE(Cache.lookup(A, /*MinDataEpoch=*/1, &Served), nullptr);
  EXPECT_EQ(Served, 1u);
  EXPECT_EQ(Cache.migrateEpoch(3, 3), 0u); // self-migration is a no-op
}

TEST(ForwardRunCache, InsertOverResidentKeyReplacesInPlace) {
  IntCache Cache(2);
  Cache.insert(key({true}), std::make_unique<int>(1));
  Cache.insert(key({false}), std::make_unique<int>(2));
  // Re-inserting an already-resident key must replace the run without
  // growing the cache or evicting the other entry.
  int *Replaced = Cache.insert(key({true}), std::make_unique<int>(7));
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.counters().Evictions, 0u);
  EXPECT_EQ(*Replaced, 7);
  Cache.beginEpoch();
  EXPECT_EQ(*Cache.lookup(key({true})), 7);
  EXPECT_EQ(*Cache.lookup(key({false})), 2);
}

} // namespace
