//===- QueryDriver.h - The TRACER algorithm --------------------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TRACER (Algorithm 1): the iterative forward-backward analysis that
/// resolves each query either with a minimum-cost abstraction that proves
/// it or with an impossibility verdict, plus the multi-query optimization
/// of §6 (queries whose sets of unviable abstractions coincide are grouped
/// and share forward runs).
///
/// The driver is generic over an Analysis bundle supplying both the forward
/// client (§3.2) and the backward meta-analysis client (§4.1):
///
/// \code
///   struct Analysis {
///     using Param = ...;
///     using State = ...;
///     struct StateHash { size_t operator()(const State &) const; };
///     // -- forward analysis (Figure 3/4/5)
///     State transfer(const ir::Command &, const State &, const Param &)
///         const;
///     State initialState() const;                  // d_I
///     // -- queries
///     formula::Dnf notQ(ir::CheckId) const;        // failure condition
///     // -- backward meta-analysis (Figures 7-11)
///     formula::Formula wpAtom(const ir::Command &, formula::AtomId) const;
///     bool evalAtom(formula::AtomId, const Param &, const State &) const;
///     bool isParamAtom(formula::AtomId) const;
///     std::string atomName(formula::AtomId) const;
///     meta::WpTable &wpTable() const;              // shared literal wps
///     // -- parameter-space codec (P, cost order |.|)
///     uint32_t numParamBits() const;
///     // (bit, value of that bit that makes the atom true)
///     std::pair<uint32_t, bool> decodeParamAtom(formula::AtomId) const;
///     Param paramFromBits(const std::vector<bool> &) const;
///     uint32_t paramCost(const Param &) const;     // = popcount
///     std::string paramToString(const Param &) const;
///   };
/// \endcode
///
/// The driver takes its knobs straight from optabs::Config (the Execution,
/// Budgets and Observability sections; the strategy name is parsed once, at
/// construction). The search strategies of the paper's §7 comparison differ
/// only in how the next abstraction is chosen after a failed proof, so all
/// three run through the same round loop, and two policy functions are the
/// only code that reads the strategy: choose() groups the open queries and
/// picks each group's abstraction (TRACER and EliminateCurrent solve a
/// minimum-cost model of the learned viable CNF; GreedyGrow keeps a
/// per-query bit-vector), and learn() folds a failed step back in (TRACER
/// conjoins what the backward meta-analysis rules out, EliminateCurrent
/// adds one clause ruling out the current abstraction, and GreedyGrow grows
/// its bits by every parameter the failure is blamed on). Every verdict
/// leaves through finish().
///
/// Concurrency (Config::Execution.NumThreads): run() calls runRound() until
/// every query resolves or the run's budget ends, then endRun(). Each round
/// is a sequence of barrier-separated stages, one member function each,
/// sharing one Round struct: degrade() (memory-pressure rung), plan()
/// (sequential: choose() plus cache resolution), forward() (stage A,
/// parallel per distinct abstraction), schedule() (sequential: empty-viable
/// verdicts, one step per query), classify() (B1, parallel per query,
/// read-only), extract() (B2, parallel per forward run), backward() (B3,
/// parallel per counterexample trace, one BackwardMetaAnalysis instance per
/// worker), merge() (sequential, in query order). All results and
/// non-timing statistics are bitwise independent of the worker count because
/// every parallel stage writes into pre-sized slots that the sequential merge
/// folds in the same order the single-threaded driver would. Completed
/// forward runs are memoized across rounds, queries, and run() calls in a
/// ForwardRunCache keyed by the abstraction bit-vector. The one structure
/// the backward workers share is the analysis's wp table
/// (meta/WpTable.h): every worker of every run() - and every other driver
/// over the same analysis, concurrently or later - reads and fills it.
/// Its entries are pure functions of (analysis, command, literal), so
/// which worker built one cannot change any result.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_TRACER_QUERYDRIVER_H
#define OPTABS_TRACER_QUERYDRIVER_H

#include "dataflow/Forward.h"
#include "ir/CheckReach.h"
#include "ir/Liveness.h"
#include "meta/Backward.h"
#include "support/Budget.h"
#include "support/Config.h"
#include "support/FaultInjection.h"
#include "support/Invariants.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "tracer/EventTrace.h"
#include "tracer/ForwardRunCache.h"
#include "tracer/MinCostSat.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace optabs {
namespace tracer {

/// Per-query verdicts. Unresolved corresponds to the paper's queries that
/// exhausted the time budget (Figure 12's third category).
enum class Verdict : uint8_t { Proven, Impossible, Unresolved };

inline const char *verdictName(Verdict V) {
  switch (V) {
  case Verdict::Proven:
    return "proven";
  case Verdict::Impossible:
    return "impossible";
  case Verdict::Unresolved:
    return "unresolved";
  }
  return "?";
}

/// Outcome of one query.
struct QueryOutcome {
  ir::CheckId Check;
  Verdict V = Verdict::Unresolved;
  unsigned Iterations = 0; ///< CEGAR iterations (forward runs) consumed
  double Seconds = 0;      ///< attributed resolution time
  uint32_t CheapestCost = 0;     ///< |p| of the proving abstraction
  std::string CheapestParam;     ///< canonical form, for Table 4 grouping
  /// Bit-vector of the proving abstraction (Proven only; empty otherwise).
  /// The witness the certificate checker re-validates independently.
  std::vector<bool> CheapestBits;
  /// For Unresolved verdicts caused by the resource governor: which
  /// resource ran out, and at which site. Empty when the query resolved or
  /// was given up for a non-budget reason (e.g. a missing trace witness).
  std::optional<support::Exhausted> Exhaustion;
  /// Replay metadata for the "verdict" event-trace line this outcome
  /// produced (the analysis service re-emits stored verdict lines when it
  /// serves a cached verdict across program versions, so incremental traces
  /// stay line-identical to a cold run). TraceRound is the "round" field;
  /// TraceForm is 0 when no verdict line applies, 1 for the short form
  /// (round/query/verdict/iterations, the empty-viable path) and 2 for the
  /// full form (adds cost/param). Stamped even when tracing is disabled.
  unsigned TraceRound = 0;
  uint8_t TraceForm = 0;
};

/// The one builder of the event trace's "verdict" line for query \p Query
/// under trace label \p Label. \p R is a QueryOutcome, or the service's
/// stored copy of one: both carry V, Iterations, CheapestCost,
/// CheapestParam, TraceRound and TraceForm. The driver and the service's
/// verdict replay both build the line here, so a replayed line equals the
/// cold one by construction.
template <typename VerdictRecord>
JsonObject verdictEvent(const std::string &Label, uint32_t Query,
                        const VerdictRecord &R) {
  JsonObject O = eventPrefix("verdict", Label);
  O.field("round", R.TraceRound)
      .field("query", Query)
      .field("verdict", verdictName(R.V))
      .field("iterations", R.Iterations);
  if (R.TraceForm == 2)
    O.field("cost", R.CheapestCost).field("param", R.CheapestParam);
  return O;
}

// The strategy enum and its one name table live in support/Config.h.
using optabs::parseStrategy;
using optabs::SearchStrategy;
using optabs::strategyName;

/// Wall-clock seconds attributed to each pipeline stage of the TRACER
/// driver, accumulated across rounds. Always collected (two steady_clock
/// reads per stage per round); independent of the metrics layer.
struct PhaseSeconds {
  double Plan = 0;     ///< grouping, min-cost solves, cache resolution
  double Forward = 0;  ///< stage A: parallel forward fixpoints
  double Classify = 0; ///< stage B1: parallel query classification
  double Extract = 0;  ///< stage B2: counterexample trace extraction
  double Backward = 0; ///< stage B3: parallel backward meta-analysis
  double Merge = 0;    ///< sequential ordered merge + verdicts

  double sum() const {
    return Plan + Forward + Classify + Extract + Backward + Merge;
  }

  PhaseSeconds &operator+=(const PhaseSeconds &O) {
    Plan += O.Plan;
    Forward += O.Forward;
    Classify += O.Classify;
    Extract += O.Extract;
    Backward += O.Backward;
    Merge += O.Merge;
    return *this;
  }
};

/// Aggregate statistics of one driver run.
struct DriverStats {
  unsigned Rounds = 0;
  unsigned ForwardRuns = 0;  ///< forward fixpoints actually computed
  unsigned BackwardRuns = 0; ///< meta-analysis trace runs
  unsigned SolverCalls = 0;
  size_t MaxFormulaCubes = 0; ///< largest backward formula encountered
  uint64_t CacheHits = 0;      ///< forward-run requests served memoized
  uint64_t CacheMisses = 0;    ///< forward-run requests that computed
  uint64_t CacheEvictions = 0; ///< LRU evictions (capacity overflow)
  /// Queries that ended Unresolved because a resource budget ran out
  /// (steps, wall clock, memory, or cancellation) — the count of outcomes
  /// carrying an Exhaustion record.
  unsigned BudgetExhausted = 0;
  /// Degradation-ladder rung applications triggered by memory pressure.
  unsigned Degradations = 0;
  /// Per-stage wall-clock breakdown.
  PhaseSeconds Phases;
  /// Every invariant violation detected during the run (empty on a healthy
  /// run). Violations never abort: the violating computation recovers
  /// along a sound path (see support/Invariants.h) and the record lands
  /// here and in the event trace.
  std::vector<support::InvariantViolation> Violations;
};

template <typename Analysis> class QueryDriver {
public:
  using Param = typename Analysis::Param;
  using State = typename Analysis::State;
  using Forward = dataflow::ForwardAnalysis<Analysis>;
  using Backward = meta::BackwardMetaAnalysis<Analysis>;

  /// Reads \p C's Execution, Budgets and Observability sections. An
  /// unknown strategy name falls back to Tracer - Config::validate()
  /// rejects it before any well-behaved caller gets this far.
  QueryDriver(const ir::Program &P, const Analysis &A,
              const Config &C = Config())
      : P(P), A(A), Execution(C.Execution), Budgets(C.Budgets),
        Observability(C.Observability) {
    parseStrategy(Execution.Strategy, Strategy);
  }

  /// Shares \p Token with the caller: every kernel polls it cooperatively
  /// and unwinds at its next unit of work once it is requested; affected
  /// queries end Unresolved with an `Exhausted{cancelled, ...}` record.
  /// Cancellation is inherently schedule-dependent, so the worker-count
  /// determinism guarantee only covers runs where it never fires.
  void setCancelToken(std::shared_ptr<support::CancelToken> Token) {
    Cancel = std::move(Token);
  }

  /// Service injection: runs this driver against a thread pool and a
  /// forward-run cache owned by someone else (the AnalysisService shares
  /// one pool and one cache shard across every session of a program)
  /// instead of the driver's private ones. Under borrowed execution the
  /// driver never resets the cache's capacity or counters (DriverStats
  /// reports per-run deltas instead), stamps \p ProgramEpoch / \p Family
  /// into every cache key so shards shared across program registrations
  /// and analysis families stay disjoint, and sizes its per-worker scratch
  /// from the borrowed pool (Execution.NumThreads is ignored). The
  /// borrowed cache's single-threaded contract carries over: the owner
  /// must not run two drivers against one cache concurrently.
  /// The trailing trace parameters thread the service's request context
  /// into the run: while \p TraceRecorder is non-null, the borrowed
  /// cache's lookups during run() are recorded as trace events attributed
  /// to \p TraceCtx / \p TraceBatch (support/Trace.h). Every probe happens
  /// in the sequential plan phase, so the recorded sequence is identical
  /// at any worker count; a null recorder costs one pointer test per
  /// lookup. A non-null \p SharedLiveness / \p SharedReach (the owner's
  /// tables for this program, which must outlive every run the shared
  /// cache holds) is used instead of the driver building its own; runs
  /// computed here point at them, so they stay valid after the driver is
  /// gone.
  void borrowExecution(support::ThreadPool *Pool,
                       ForwardRunCache<Forward> *SharedCache,
                       uint64_t ProgramEpoch = 0, uint64_t Family = 0,
                       const std::vector<uint64_t> *CheckMinDataEpochs =
                           nullptr,
                       support::FlightRecorder *TraceRecorder = nullptr,
                       support::TraceContext TraceCtx = {},
                       uint64_t TraceBatch = 0,
                       const ir::CommandLiveness *SharedLiveness = nullptr,
                       const ir::CheckReach *SharedReach = nullptr) {
    if (SharedLiveness)
      Liveness = SharedLiveness;
    if (SharedReach)
      Reach = SharedReach;
    BorrowedPool = Pool;
    BorrowedCache = SharedCache;
    CacheEpochScope = ProgramEpoch;
    CacheFamilyScope = Family;
    this->CheckMinDataEpochs = CheckMinDataEpochs;
    if (SharedCache)
      SharedCache->setTraceSink(TraceRecorder, TraceCtx, TraceBatch);
  }

  /// Resolves all \p Queries; the result vector is parallel to the input.
  std::vector<QueryOutcome> run(const std::vector<ir::CheckId> &Queries) {
    if ((!Observability.MetricsPath.empty() ||
         !Observability.ProfilePath.empty()) &&
        !support::metricsEnabled())
      support::setMetricsEnabled(true);
    if (!Liveness)
      Liveness = &OwnedLiveness.emplace(P);
    if (!Reach)
      Reach = &OwnedReach.emplace(P);
    std::vector<QueryOutcome> Outcomes;
    {
      // Closed before export: open spans are skipped by the exporters.
      support::ScopedSpan RunSpan("tracer.run");
      RunState S(Queries);
      beginRun(S);
      while (S.Unresolved > 0 &&
             S.Total.seconds() < Budgets.TimeBudgetSeconds &&
             !S.CancelTok->requested())
        runRound(S);
      endRun(S);
      Outcomes = std::move(S.Outcomes);
    }
    exportMetrics();
    return Outcomes;
  }

  const DriverStats &stats() const { return Stats; }
  double totalSeconds() const { return TotalSeconds; }

  /// The per-query viable CNFs as of the end of the last run() call
  /// (parallel to its outcome vector; empty CNF = nothing learned). Input
  /// to the certificate checker's minimality / impossibility / eliminated
  /// checks. GreedyGrow learns no viable sets, so its entries are empty.
  const std::vector<Cnf> &finalViableSets() const { return LastViable; }

private:
  using CacheKey = typename ForwardRunCache<Forward>::Key;

  /// What the driver knows about one query across rounds.
  struct QueryRec {
    Cnf Viable; ///< learned viable set (stays empty under GreedyGrow)
    /// GreedyGrow's abstraction: every parameter blamed so far (all false
    /// under the other strategies).
    std::vector<bool> Grown;
    bool Done = false;
    formula::Dnf NotQ;
  };

  /// What one query learned this round; produced by the parallel stages,
  /// folded by the sequential merge.
  enum class StepKind : uint8_t {
    Proven,     ///< no failing state under the round's abstraction
    IterBudget, ///< would exceed MaxItersPerQuery
    Eliminate,  ///< EliminateCurrent baseline: rule out this abstraction
    Traces,     ///< counterexample traces extracted, backward runs follow
    NoTrace,    ///< defensive: failing state without a witness
    Exhausted,  ///< a resource budget ran out; query ends Unresolved
  };

  /// The step event's "kind" field, indexed by StepKind.
  static constexpr const char *StepKindNames[] = {
      "proven", "iter-budget", "eliminate", "traces", "no-trace", "exhausted"};

  struct TraceResult {
    std::optional<formula::Dnf> Unviable; ///< nullopt = meta timeout
    std::optional<support::Exhausted> Exhaustion; ///< why, if budget
    size_t MaxCubes = 0;
    double Seconds = 0;
  };

  struct MemberStep {
    size_t PlanIdx = 0;
    size_t Query = 0;
    StepKind Kind = StepKind::NoTrace;
    std::optional<support::Exhausted> Exhaustion; ///< set when Exhausted
    std::vector<dataflow::StateId> FailIds; ///< sorted by state value
    /// Extracted counterexamples, with their states as run state ids.
    std::vector<typename Forward::Witness> Traces;
    std::vector<TraceResult> TraceResults;
    double Seconds = 0;
  };

  /// One group of queries and the abstraction they try this round.
  struct GroupPlan {
    std::vector<size_t> Members;
    std::optional<Param> Abs;
    std::vector<bool> Bits;
    size_t Slot = 0;
    /// A failure under this plan rules out exactly its abstraction
    /// (EliminateCurrent) instead of being learned from counterexamples.
    bool Eliminate = false;
    /// Set when the min-cost solve was cut short: its members end
    /// Unresolved, never Impossible (an aborted search proves no UNSAT).
    std::optional<support::Exhausted> SolveExhaustion;
  };

  /// One distinct abstraction of the round and its forward run.
  struct RunSlot {
    CacheKey Key;
    std::optional<Param> Abs;
    Forward *Run = nullptr;         ///< cached, or set after stage A
    std::unique_ptr<Forward> Fresh; ///< built by stage A on a miss
    std::optional<support::Exhausted> Exhaustion; ///< stage A cut short
    double BuildSeconds = 0;
    size_t Users = 0;
    uint64_t MinData = 0;    ///< strongest freshness requested so far
    uint64_t ServedData = 0; ///< data epoch of a cache-served run
    bool FromCache = false;  ///< Run (if set) came from the cache
  };

  /// The state of one run() that outlives its rounds.
  struct RunState {
    explicit RunState(const std::vector<ir::CheckId> &Queries)
        : Queries(Queries), Outcomes(Queries.size()), Recs(Queries.size()),
          Unresolved(Queries.size()) {}

    const std::vector<ir::CheckId> &Queries;
    Timer Total;
    EventTraceWriter Trace;
    std::vector<QueryOutcome> Outcomes;
    std::vector<QueryRec> Recs;
    size_t Unresolved;
    /// A token always exists so injected Cancel faults at gateless sites
    /// (cache.insert, driver.schedule) have something to act on even when
    /// the caller passed none.
    std::shared_ptr<support::CancelToken> CancelTok;
    /// One backward meta-analysis per worker: its scratch (stats, product
    /// buffers, skip memo) never crosses threads. The wp table they fill
    /// belongs to the analysis and is shared (meta/WpTable.h).
    std::vector<std::unique_ptr<Backward>> Bwds;
    /// Likewise one witness-search scratch per worker, reused by every
    /// extraction it runs and never stored with a (cached) forward run.
    std::vector<typename Forward::Scratch> Scratches;
    std::optional<State> Init;
    /// Degradation-ladder state: each memory-pressure event escalates one
    /// (sticky) rung, and the checks run sequentially at round boundaries
    /// against deterministic resident-byte totals, so the ladder walks
    /// identically at any worker count.
    unsigned LadderRung = 0;
    unsigned EffTracesPerIter = 1;
    /// Why the whole run stopped early, applied to every query still open
    /// when the round loop exits.
    std::optional<support::Exhausted> RunExhaustion;
  };

  /// One round's plans, run slots and steps: each stage reads what the
  /// stages before it filled in. Parallel stages write only into
  /// pre-sized slots of their own task.
  struct Round {
    /// Stage attribution: reset at every stage boundary (see nextStage).
    Timer PhaseTimer;
    std::optional<support::ScopedSpan> PhaseSpan;
    std::vector<GroupPlan> Plans;
    std::vector<RunSlot> Slots;
    std::map<CacheKey, size_t> SlotIndex;
    /// One step per (plan, member), in the order the sequential driver
    /// would process them.
    std::vector<MemberStep> Steps;
    /// Per slot, the indices of the steps classified against its run.
    std::vector<std::vector<size_t>> SlotWork;
  };

  /// Resets the per-run statistics and builds the run's state: outcomes,
  /// per-worker scratch, and the `run_begin` event.
  void beginRun(RunState &S) {
    Stats = DriverStats();
    Sink.clear();
    LastViable.clear();
    if (!BorrowedCache) {
      // A borrowed (service-shared) cache keeps its capacity and counters
      // across runs; the stats below report this run's deltas.
      OwnedCache.setCapacity(Execution.ForwardCacheCapacity);
      OwnedCache.resetCounters();
    }
    BaseCounters = cache().counters();
    if (!Observability.EventTracePath.empty())
      S.Trace.open(Observability.EventTracePath,
                   Observability.EventTraceLabel);
    if (S.Trace.enabled())
      S.Trace.write(S.Trace.event("run_begin")
                        .field("queries", S.Queries.size())
                        .field("strategy", strategyName(Strategy))
                        .field("k", Execution.K)
                        .field("threads", effectiveWorkers()));
    for (size_t I = 0; I < S.Queries.size(); ++I) {
      S.Outcomes[I].Check = S.Queries[I];
      S.Recs[I].NotQ = A.notQ(S.Queries[I]);
      S.Recs[I].Grown.assign(A.numParamBits(), false);
    }

    // A borrowed pool is the service's to size.
    unsigned Workers = effectiveWorkers();
    if (!BorrowedPool && (!OwnedPool || OwnedPool->numWorkers() != Workers))
      OwnedPool = std::make_unique<support::ThreadPool>(Workers, &Sink);
    S.CancelTok = Cancel ? Cancel : std::make_shared<support::CancelToken>();
    meta::BackwardConfig BwdConfig;
    BwdConfig.K = Execution.K;
    BwdConfig.ProductSoftCap = Execution.ProductSoftCap;
    BwdConfig.TimeoutSeconds = Budgets.BackwardTimeoutSeconds;
    BwdConfig.StepBudget = Budgets.BackwardStepBudget;
    BwdConfig.Cancel = S.CancelTok.get();
    BwdConfig.Invariants = &Sink;
    for (unsigned W = 0; W < Workers; ++W)
      S.Bwds.push_back(std::make_unique<Backward>(P, A, BwdConfig));
    S.Scratches = std::vector<typename Forward::Scratch>(Workers);
    S.Init.emplace(A.initialState());
    S.EffTracesPerIter = std::max(1u, Execution.TracesPerIteration);
  }

  /// One CEGAR round: the stages in order, each closed by nextStage.
  void runRound(RunState &S) {
    ++Stats.Rounds;
    if (support::metricsEnabled()) {
      static auto &Rounds =
          support::MetricRegistry::global().counter("optabs_rounds_total");
      Rounds.add(1);
    }
    Timer RoundTimer;
    support::ScopedSpan RoundSpan("tracer.round");
    cache().beginEpoch();
    degrade(S);

    Round R;
    R.PhaseSpan.emplace("tracer.plan", /*Publish=*/true);
    plan(S, R);
    nextStage(R, Stats.Phases.Plan, "tracer.forward");
    forward(S, R);
    nextStage(R, Stats.Phases.Forward, "tracer.plan");
    schedule(S, R);
    nextStage(R, Stats.Phases.Plan, "tracer.classify");
    classify(S, R);
    nextStage(R, Stats.Phases.Classify, "tracer.extract");
    extract(S, R);
    nextStage(R, Stats.Phases.Extract, "tracer.backward");
    backward(S, R);
    nextStage(R, Stats.Phases.Backward, "tracer.merge");
    merge(S, R);
    nextStage(R, Stats.Phases.Merge, nullptr);

    if (S.Trace.enabled())
      S.Trace.write(S.Trace.event("round_end")
                        .field("round", Stats.Rounds)
                        .field("unresolved", S.Unresolved)
                        .field("cache_hits",
                               cache().counters().Hits - BaseCounters.Hits)
                        .field("cache_misses",
                               cache().counters().Misses - BaseCounters.Misses)
                        .field("cache_evictions",
                               cache().counters().Evictions -
                                   BaseCounters.Evictions)
                        .field("seconds", RoundTimer.seconds()));
  }

  /// Stage boundary: charges the stage that just ended to \p Phase and
  /// re-opens the published profiler span as \p Next (closes it when
  /// null). The timer reading is always taken (two clock reads per
  /// stage); the span is a no-op when metrics are off. Publishing lets the
  /// root spans of pool workers reparent under the current stage in the
  /// aggregate view.
  static void nextStage(Round &R, double &Phase, const char *Next) {
    Phase += R.PhaseTimer.seconds();
    if (Next)
      R.PhaseSpan.emplace(Next, /*Publish=*/true);
    else
      R.PhaseSpan.reset();
    R.PhaseTimer.reset();
  }

  /// Degradation rung: when the cache's resident bytes exceed the memory
  /// budget, escalate one rung and always evict as immediate relief.
  /// Called right after beginEpoch(), when nothing is pinned, so eviction
  /// reclaims everything cacheable; the deeper rungs additionally shrink
  /// future work. Every rung only under-approximates harder (§5's dropK
  /// argument), so verdicts stay sound.
  void degrade(RunState &S) {
    uint64_t Resident = cache().counters().ResidentBytes;
    if (Budgets.MemoryBudgetBytes == 0 || Resident <= Budgets.MemoryBudgetBytes)
      return;
    S.LadderRung = std::min(S.LadderRung + 1, 3u);
    // With a disk tier armed (service-owned caches), demotion to disk
    // comes before outright eviction: the entries leave memory either
    // way, but spilled runs can re-warm on a later lookup instead of
    // recomputing their fixpoints.
    size_t Evicted = cache().spillUnpinned();
    const char *Action = cache().spillArmed() ? "spill_cache" : "evict_cache";
    if (S.LadderRung >= 2) {
      unsigned NarrowK = std::max(1u, Execution.K / 2);
      for (auto &B : S.Bwds)
        B->setBeamWidth(NarrowK);
      Action = "shrink_beam";
    }
    if (S.LadderRung >= 3) {
      S.EffTracesPerIter = 1;
      Action = "single_trace";
    }
    ++Stats.Degradations;
    if (support::metricsEnabled())
      support::MetricRegistry::global().counter("optabs_degrade_total").add(1);
    if (S.Trace.enabled())
      S.Trace.write(S.Trace.event("degrade")
                        .field("round", Stats.Rounds)
                        .field("rung", S.LadderRung)
                        .field("action", Action)
                        .field("trigger", "memory")
                        .field("resident_bytes", Resident)
                        .field("budget_bytes", Budgets.MemoryBudgetBytes)
                        .field("evicted", Evicted));
  }

  /// Plan: the strategy's choice of groups and abstractions (choose), and
  /// one run slot per distinct abstraction this round. Slots resolve
  /// against the cross-round cache here, in deterministic plan order, so
  /// hit/miss counters are independent of the worker count.
  void plan(RunState &S, Round &R) {
    R.Plans = choose(S);
    if (S.Trace.enabled())
      S.Trace.write(S.Trace.event("round_begin")
                        .field("round", Stats.Rounds)
                        .field("unresolved", S.Unresolved)
                        .field("groups", R.Plans.size()));
    for (GroupPlan &Plan : R.Plans) {
      if (!Plan.Abs)
        continue;
      CacheKey Key;
      Key.Bits = Plan.Bits;
      Key.ProgramEpoch = CacheEpochScope;
      Key.Family = CacheFamilyScope;
      // Without grouping, each query keeps its own runs (the §6
      // baseline); the salt separates them in the shared cache.
      Key.Salt = Execution.GroupQueries
                     ? 0
                     : static_cast<uint32_t>(Plan.Members[0]) + 1;
      // Freshness floor for this group: a cached run computed before the
      // latest IR edit that touched any member's dependence footprint
      // cannot be served (service-injected; 0 standalone).
      uint64_t MinData = 0;
      if (CheckMinDataEpochs)
        for (size_t M : Plan.Members)
          MinData = std::max(MinData,
                             (*CheckMinDataEpochs)[S.Queries[M].index()]);
      auto [It, IsNew] = R.SlotIndex.try_emplace(Key, R.Slots.size());
      if (IsNew) {
        RunSlot Slot;
        Slot.Key = std::move(Key);
        Slot.Abs = Plan.Abs;
        Slot.MinData = MinData;
        Slot.Run = cache().lookup(Slot.Key, MinData, &Slot.ServedData);
        Slot.FromCache = Slot.Run != nullptr;
        R.Slots.push_back(std::move(Slot));
      } else if (RunSlot &Joined = R.Slots[It->second];
                 MinData > Joined.MinData && Joined.Run &&
                 Joined.FromCache && Joined.ServedData < MinData) {
        // A second group needs the same abstraction but fresher data than
        // the cached run an earlier group accepted: discard it and rebuild
        // (the rebuilt run serves both groups).
        Joined.MinData = MinData;
        Joined.Run = nullptr;
        Joined.FromCache = false;
        cache().noteStaleMiss();
      } else {
        // A second group solved to the same abstraction this round.
        Joined.MinData = std::max(Joined.MinData, MinData);
        cache().noteSharedHit();
      }
      Plan.Slot = It->second;
      R.Slots[Plan.Slot].Users += Plan.Members.size();
      if (S.Trace.enabled()) {
        const Cnf &Viable = S.Recs[Plan.Members[0]].Viable;
        S.Trace.write(S.Trace.event("choose")
                          .field("round", Stats.Rounds)
                          .field("members", Plan.Members.size())
                          .field("cost", A.paramCost(*Plan.Abs))
                          .field("bits", bitsToString(Plan.Bits))
                          .field("viable_clauses", Viable.size())
                          .hexField("viable_sig", Viable.signature()));
      }
    }
  }

  /// Stage A: forward fixpoints for every missed abstraction, in parallel;
  /// merged into the cache in plan order.
  void forward(RunState &S, Round &R) {
    std::vector<size_t> ToBuild;
    for (size_t I = 0; I < R.Slots.size(); ++I)
      if (!R.Slots[I].Run)
        ToBuild.push_back(I);
    pool().parallelFor(ToBuild.size(), [&](size_t T, unsigned) {
      support::ScopedSpan TaskSpan("tracer.forward.fixpoint");
      RunSlot &Slot = R.Slots[ToBuild[T]];
      Timer BuildTimer;
      try {
        // Per-task gate: this task alone counts its visits, so the cut
        // point is schedule-independent. A worker's bad_alloc is contained
        // here — it costs this abstraction's queries, not the process.
        support::BudgetGate Gate("forward.visit", Budgets.ForwardStepBudget,
                                 S.CancelTok.get(), 0, &Sink);
        auto Run = std::make_unique<Forward>(P, A, *Slot.Abs, Liveness, Reach);
        Run->run(*S.Init, &Gate);
        if (Run->exhausted())
          Slot.Exhaustion = *Run->exhaustion();
        else
          Slot.Fresh = std::move(Run);
      } catch (const std::bad_alloc &) {
        Slot.Exhaustion =
            support::Exhausted{support::Resource::Memory, "forward.visit"};
      }
      Slot.BuildSeconds = BuildTimer.seconds();
    });
    for (size_t I : ToBuild) {
      ++Stats.ForwardRuns;
      RunSlot &Slot = R.Slots[I];
      if (!Slot.Fresh)
        continue; // exhausted mid-fixpoint: partial runs are never cached
      try {
        injectFault("cache.insert", *S.CancelTok);
        Slot.Run = cache().insert(Slot.Key, std::move(Slot.Fresh),
                                  CacheEpochScope);
      } catch (const std::bad_alloc &) {
        Slot.Exhaustion =
            support::Exhausted{support::Resource::Memory, "cache.insert"};
      }
    }
    if (support::metricsEnabled() && !ToBuild.empty()) {
      static auto &Runs = support::MetricRegistry::global().counter(
          "optabs_forward_runs_total");
      Runs.add(ToBuild.size());
    }
    if (S.Trace.enabled()) {
      std::vector<bool> Built(R.Slots.size(), false);
      for (size_t I : ToBuild)
        Built[I] = true;
      for (size_t I = 0; I < R.Slots.size(); ++I)
        S.Trace.write(S.Trace.event("forward")
                          .field("round", Stats.Rounds)
                          .field("bits", bitsToString(R.Slots[I].Key.Bits))
                          .field("cached", !Built[I])
                          .field("seconds", R.Slots[I].BuildSeconds));
    }
  }

  /// Schedule: ends the members of every plan without an abstraction, then
  /// schedules one step per (plan, member) in the order the sequential
  /// driver would process them. The wall-clock budget and the cancel
  /// token are checked here, at schedule time.
  void schedule(RunState &S, Round &R) {
    // Viable set empty: the analysis cannot prove these queries with any
    // abstraction (Algorithm 1, line 6) — unless the solve was aborted by
    // its budget, in which case nothing was proven unsatisfiable and the
    // members end Unresolved.
    for (const GroupPlan &Plan : R.Plans)
      if (!Plan.Abs)
        for (size_t I : Plan.Members)
          finish(S, I,
                 Plan.SolveExhaustion ? Verdict::Unresolved
                                      : Verdict::Impossible,
                 Plan.SolveExhaustion, 1);

    R.SlotWork.resize(R.Slots.size());
    for (size_t PlanIdx = 0; PlanIdx < R.Plans.size(); ++PlanIdx) {
      const GroupPlan &Plan = R.Plans[PlanIdx];
      if (!Plan.Abs)
        continue;
      const RunSlot &Slot = R.Slots[Plan.Slot];
      for (size_t I : Plan.Members) {
        try {
          injectFault("driver.schedule", *S.CancelTok);
        } catch (const std::bad_alloc &) {
          S.RunExhaustion = support::Exhausted{support::Resource::Memory,
                                               "driver.schedule"};
          return;
        }
        if (S.Total.seconds() >= Budgets.TimeBudgetSeconds)
          return;
        if (S.CancelTok->requested()) {
          S.RunExhaustion =
              support::Exhausted{support::Resource::Cancelled, "driver.run"};
          return;
        }
        MemberStep &Step = R.Steps.emplace_back();
        Step.PlanIdx = PlanIdx;
        Step.Query = I;
        if (Slot.Run) {
          R.SlotWork[Plan.Slot].push_back(R.Steps.size() - 1);
          continue;
        }
        // Stage A ran out of budget (or OOMed) on this abstraction: its
        // members resolve to Unresolved at merge time; nothing is
        // classified against the partial fixpoint.
        Step.Kind = StepKind::Exhausted;
        Step.Exhaustion = Slot.Exhaustion;
      }
    }
  }

  /// Stage B1: classify every step - does the abstraction prove the query?
  /// Read-only on the forward runs, so fully parallel across steps.
  /// D = F_p[s]({d_I}) at the check, intersected with gamma(not q)
  /// (line 9).
  void classify(RunState &S, Round &R) {
    pool().parallelFor(R.Steps.size(), [&](size_t T, unsigned) {
      MemberStep &Step = R.Steps[T];
      if (Step.Kind == StepKind::Exhausted)
        return; // no forward run to classify against
      const GroupPlan &Plan = R.Plans[Step.PlanIdx];
      const RunSlot &Slot = R.Slots[Plan.Slot];
      Timer StepTimer;
      const QueryOutcome &Out = S.Outcomes[Step.Query];
      try {
        for (dataflow::StateId Id : Slot.Run->statesAtCheckIds(Out.Check)) {
          bool IsFail = S.Recs[Step.Query].NotQ.eval([&](formula::AtomId At) {
            return A.evalAtom(At, *Slot.Abs, Slot.Run->state(Id));
          });
          if (IsFail)
            Step.FailIds.push_back(Id);
        }
        if (Step.FailIds.empty()) {
          Step.Kind = StepKind::Proven;
        } else if (Out.Iterations + 1 >= Execution.MaxItersPerQuery) {
          Step.Kind = StepKind::IterBudget;
        } else if (Plan.Eliminate) {
          Step.Kind = StepKind::Eliminate;
        } else {
          Step.Kind = StepKind::Traces;
          // Deterministic choice of counterexample states: smallest state
          // values first, exactly as the sequential driver sorts.
          std::sort(Step.FailIds.begin(), Step.FailIds.end(),
                    [&](dataflow::StateId X, dataflow::StateId Y) {
                      return Slot.Run->state(X) < Slot.Run->state(Y);
                    });
        }
      } catch (const std::bad_alloc &) {
        Step.Kind = StepKind::Exhausted;
        Step.Exhaustion =
            support::Exhausted{support::Resource::Memory, "driver.classify"};
      }
      Step.Seconds = StepTimer.seconds();
    });
  }

  /// Stage B2: counterexample trace extraction (line 13). Extraction only
  /// reads the run and yields each trace's state ids, which stage B3 reads
  /// in place. Steps of one forward run stay on one task, in schedule
  /// order; distinct runs proceed in parallel.
  void extract(RunState &S, Round &R) {
    pool().parallelFor(R.Slots.size(), [&](size_t I, unsigned Worker) {
      const RunSlot &Slot = R.Slots[I];
      for (size_t StepIdx : R.SlotWork[I]) {
        MemberStep &Step = R.Steps[StepIdx];
        if (Step.Kind != StepKind::Traces)
          continue;
        Timer StepTimer;
        const QueryOutcome &Out = S.Outcomes[Step.Query];
        size_t WantTraces = S.EffTracesPerIter;
        try {
          for (dataflow::StateId Id : Step.FailIds) {
            if (Step.Traces.size() >= WantTraces)
              break;
            for (auto &W : Slot.Run->extractWitnesses(
                     Out.Check, Id, WantTraces - Step.Traces.size(),
                     S.Scratches[Worker]))
              Step.Traces.push_back(std::move(W));
          }
          if (Step.Traces.empty()) {
            // Without a counterexample nothing can be learned and retrying
            // the same abstraction would not terminate, so the query is
            // left unresolved. The sink is thread-safe; this stage runs on
            // pool workers.
            support::reportInvariant(
                &Sink, "trace-witness", "QueryDriver::run",
                "failing state at check " + std::to_string(Out.Check.index()) +
                    " has no witnessing trace; query left unresolved");
            Step.Kind = StepKind::NoTrace;
          } else {
            Step.TraceResults.resize(Step.Traces.size());
          }
        } catch (const std::bad_alloc &) {
          Step.Kind = StepKind::Exhausted;
          Step.Exhaustion =
              support::Exhausted{support::Resource::Memory, "driver.extract"};
          Step.Traces.clear();
          Step.TraceResults.clear();
        }
        Step.Seconds += StepTimer.seconds();
      }
    });
  }

  /// Stage B3: backward meta-analysis, one task per counterexample trace
  /// (line 14), on per-worker Backward instances.
  void backward(RunState &S, Round &R) {
    std::vector<std::pair<size_t, size_t>> TraceTasks;
    for (size_t T = 0; T < R.Steps.size(); ++T)
      for (size_t J = 0; J < R.Steps[T].Traces.size(); ++J)
        TraceTasks.emplace_back(T, J);
    pool().parallelFor(TraceTasks.size(), [&](size_t T, unsigned Worker) {
      support::ScopedSpan TaskSpan("tracer.backward.trace");
      auto [StepIdx, J] = TraceTasks[T];
      MemberStep &Step = R.Steps[StepIdx];
      const RunSlot &Slot = R.Slots[R.Plans[Step.PlanIdx].Slot];
      Timer TraceTimer;
      Backward &Bwd = *S.Bwds[Worker];
      TraceResult &Res = Step.TraceResults[J];
      try {
        const typename Forward::Witness &W = Step.Traces[J];
        std::optional<formula::Dnf> F =
            Bwd.run(W.T, *Slot.Abs, Slot.Run->statesOf(W),
                    S.Recs[Step.Query].NotQ);
        Res.MaxCubes = Bwd.stats().MaxCubes;
        if (F)
          Res.Unviable = Bwd.projectToParams(*F, *Slot.Abs, *S.Init);
        else
          Res.Exhaustion = Bwd.lastExhaustion(); // empty on invariant-discard
      } catch (const std::bad_alloc &) {
        Res.Exhaustion =
            support::Exhausted{support::Resource::Memory, "backward.step"};
      }
      Res.Seconds = TraceTimer.seconds();
    });
  }

  /// Merge: folds every step in schedule order - the same order the
  /// sequential driver processes members - so verdicts, viable sets, and
  /// statistics are independent of the worker count.
  void merge(RunState &S, Round &R) {
    for (const MemberStep &Step : R.Steps) {
      const GroupPlan &Plan = R.Plans[Step.PlanIdx];
      const RunSlot &Slot = R.Slots[Plan.Slot];
      QueryOutcome &Out = S.Outcomes[Step.Query];
      QueryRec &Rec = S.Recs[Step.Query];
      double SharedTime =
          Slot.Users ? Slot.BuildSeconds / static_cast<double>(Slot.Users)
                     : 0;
      ++Out.Iterations;
      Out.Seconds += SharedTime + Step.Seconds;
      switch (Step.Kind) {
      case StepKind::Proven:
        // Proven with a minimum abstraction (line 11).
        Out.CheapestCost = A.paramCost(*Plan.Abs);
        Out.CheapestParam = A.paramToString(*Plan.Abs);
        Out.CheapestBits = Plan.Bits;
        finish(S, Step.Query, Verdict::Proven, std::nullopt, 2);
        break;
      case StepKind::IterBudget:
        finish(S, Step.Query, Verdict::Unresolved,
               support::Exhausted{support::Resource::Steps,
                                  "driver.iterations"},
               2);
        break;
      case StepKind::NoTrace:
      case StepKind::Exhausted:
        finish(S, Step.Query, Verdict::Unresolved, Step.Exhaustion, 2);
        break;
      case StepKind::Eliminate:
      case StepKind::Traces: {
        // A trace whose meta-analysis ran out teaches nothing sound, and
        // the traces after it are not counted.
        std::optional<support::Exhausted> Cut;
        for (const TraceResult &Res : Step.TraceResults) {
          ++Stats.BackwardRuns;
          if (support::metricsEnabled()) {
            static auto &Runs = support::MetricRegistry::global().counter(
                "optabs_backward_runs_total");
            Runs.add(1);
          }
          Stats.MaxFormulaCubes = std::max(Stats.MaxFormulaCubes, Res.MaxCubes);
          Out.Seconds += Res.Seconds;
          if (!Res.Unviable) {
            Cut = Res.Exhaustion;
            break;
          }
        }
        if (!learn(Rec, Plan, Step.TraceResults, Out.Check))
          finish(S, Step.Query, Verdict::Unresolved, Cut, 2);
        break;
      }
      }
      if (!S.Trace.enabled())
        continue;
      std::vector<size_t> TraceLens;
      size_t MaxCubes = 0;
      for (size_t J = 0; J < Step.Traces.size(); ++J) {
        TraceLens.push_back(Step.Traces[J].T.size());
        MaxCubes = std::max(MaxCubes, Step.TraceResults[J].MaxCubes);
      }
      S.Trace.write(S.Trace.event("step")
                        .field("round", Stats.Rounds)
                        .field("query", S.Queries[Step.Query].index())
                        .field("kind", StepKindNames[static_cast<size_t>(
                                            Step.Kind)])
                        .field("fail_states", Step.FailIds.size())
                        .field("traces", Step.Traces.size())
                        .field("trace_lens", TraceLens)
                        .field("max_cubes", MaxCubes)
                        .hexField("learned_sig", Rec.Viable.signature()));
      if (Rec.Done)
        S.Trace.write(
            verdictEvent(S.Trace.label(), S.Queries[Step.Query].index(), Out));
    }
  }

  /// End of run: every query still open when the round loop stopped ends
  /// Unresolved, charged to the whole-run budget or cancellation that
  /// stopped it; then the viable sets, statistics and `run_end` event.
  void endRun(RunState &S) {
    if (S.Unresolved > 0 && !S.RunExhaustion)
      S.RunExhaustion =
          S.CancelTok->requested()
              ? support::Exhausted{support::Resource::Cancelled, "driver.run"}
              : support::Exhausted{support::Resource::WallClock,
                                   "driver.run"};
    for (size_t I = 0; I < S.Queries.size(); ++I) {
      if (!S.Recs[I].Done)
        finish(S, I, Verdict::Unresolved, S.RunExhaustion, 0);
      LastViable.push_back(std::move(S.Recs[I].Viable));
    }
    // Cache activity attributable to this run: on a borrowed (shared) cache
    // the process-lifetime counters keep growing across batches, so stats
    // report the delta against the snapshot taken at run() entry.
    ForwardCacheCounters C = cache().counters();
    Stats.CacheHits = C.Hits - BaseCounters.Hits;
    Stats.CacheMisses = C.Misses - BaseCounters.Misses;
    Stats.CacheEvictions = C.Evictions - BaseCounters.Evictions;
    Stats.Violations = Sink.snapshot();
    TotalSeconds = S.Total.seconds();
    if (!S.Trace.enabled())
      return;
    for (const support::InvariantViolation &V : Stats.Violations)
      S.Trace.write(S.Trace.event("invariant_violation")
                        .field("check", V.Check)
                        .field("where", V.Where)
                        .field("message", V.Message));
    S.Trace.write(S.Trace.event("run_end")
                      .field("rounds", Stats.Rounds)
                      .field("forward_runs", Stats.ForwardRuns)
                      .field("backward_runs", Stats.BackwardRuns)
                      .field("solver_calls", Stats.SolverCalls)
                      .field("violations", Stats.Violations.size())
                      .field("budget_exhausted", Stats.BudgetExhausted)
                      .field("degradations", Stats.Degradations)
                      .field("seconds", TotalSeconds));
  }

  /// The one exit of a query: ends query \p I with verdict \p V. \p Why,
  /// when set, is the budget that ran out: it lands on the outcome, in the
  /// stats and metrics, and as a `budget_exhausted` event. \p Form is the
  /// verdict line's form (QueryOutcome::TraceForm): the plan's short form
  /// 1 is written here; the merge's full form 2 is written by the merge,
  /// after the step's own line; 0 (the end-of-run sweep) stamps none.
  /// Called from sequential stages only, so the event stream stays
  /// worker-count independent.
  void finish(RunState &S, size_t I, Verdict V,
              const std::optional<support::Exhausted> &Why, uint8_t Form) {
    QueryOutcome &Out = S.Outcomes[I];
    S.Recs[I].Done = true;
    --S.Unresolved;
    Out.V = V;
    if (Why) {
      Out.Exhaustion = *Why;
      ++Stats.BudgetExhausted;
      if (support::metricsEnabled())
        support::MetricRegistry::global()
            .counter("optabs_budget_exhausted_total")
            .add(1);
      if (S.Trace.enabled())
        S.Trace.write(S.Trace.event("budget_exhausted")
                          .field("round", Stats.Rounds)
                          .field("query", Out.Check.index())
                          .field("resource", support::resourceName(Why->Res))
                          .field("site", Why->Site));
    }
    if (Form == 0)
      return;
    Out.TraceRound = Stats.Rounds;
    Out.TraceForm = Form;
    if (Form == 1 && S.Trace.enabled())
      S.Trace.write(verdictEvent(S.Trace.label(), S.Queries[I].index(), Out));
  }

  /// Realizes an injected fault at a site with no budget gate: Cancel
  /// requests \p Tok, Invariant reports a breakage to the sink, and Alloc
  /// throws bad_alloc from faultPoint, as a failed allocation there would.
  void injectFault(const char *Site, support::CancelToken &Tok) {
    if (auto K = support::faultPoint(Site)) {
      if (*K == support::FaultKind::Cancel)
        Tok.request();
      else
        support::reportInvariant(&Sink, "injected-fault", Site,
                                 "fault injection: forced invariant breakage");
    }
  }

  /// Strategy policy, plan side: groups the open queries and picks each
  /// group's abstraction. TRACER and EliminateCurrent group queries whose
  /// learned viable sets coincide (§6; every query alone when grouping is
  /// off) and try a minimum-cost model of that set; a solve cut short by
  /// its budget leaves the plan without an abstraction and records why.
  /// GreedyGrow learns no viable sets: each query is its own group and
  /// tries its grown bits (equal abstractions still share one run slot).
  std::vector<GroupPlan> choose(RunState &S) {
    const bool Greedy = Strategy == SearchStrategy::GreedyGrow;
    std::map<uint64_t, std::vector<size_t>> Groups;
    for (size_t I = 0; I < S.Recs.size(); ++I)
      if (!S.Recs[I].Done)
        Groups[Execution.GroupQueries && !Greedy
                   ? S.Recs[I].Viable.signature()
                   : static_cast<uint64_t>(I)]
            .push_back(I);
    std::vector<GroupPlan> Plans;
    for (auto &[Key, Members] : Groups) {
      (void)Key;
      GroupPlan &Plan = Plans.emplace_back();
      Plan.Members = std::move(Members);
      Plan.Eliminate = Strategy == SearchStrategy::EliminateCurrent;
      const QueryRec &Rec = S.Recs[Plan.Members[0]];
      std::optional<std::vector<bool>> Chosen;
      if (Greedy) {
        Chosen = Rec.Grown;
      } else {
        ++Stats.SolverCalls;
        support::BudgetGate SolverGate("mincostsat.decision",
                                       Budgets.SolverDecisionBudget,
                                       S.CancelTok.get(), 0, &Sink);
        try {
          if (std::optional<MinCostModel> Model =
                  solveMinCost(Rec.Viable, A.numParamBits(), &SolverGate))
            Chosen = std::move(Model->Assignment);
        } catch (const std::bad_alloc &) {
          SolverGate.exhaust(support::Resource::Memory);
        }
        if (SolverGate.exhausted())
          Plan.SolveExhaustion = SolverGate.why();
      }
      if (Chosen) {
        Plan.Abs = A.paramFromBits(*Chosen);
        Plan.Bits = std::move(*Chosen);
      }
    }
    return Plans;
  }

  /// Strategy policy, learning side: folds a failed step of the query
  /// \p Rec under \p Plan into what the query knows; false when the query
  /// cannot go on. An Eliminate plan rules out exactly its abstraction.
  /// Otherwise \p Results are the unviable sets of the step's traces, in
  /// order, up to the first whose meta-analysis ran out (which ends the
  /// query): TRACER conjoins their negations into the viable set (lines
  /// 13-15; several traces conjoin everything they rule out, §8's
  /// DAG-counterexample direction in trace form), and GreedyGrow blames
  /// every parameter they mention.
  bool learn(QueryRec &Rec, const GroupPlan &Plan,
             const std::vector<TraceResult> &Results, ir::CheckId Check) {
    if (Plan.Eliminate) {
      Rec.Viable.addClause(eliminateClause(Plan.Bits));
      return true;
    }
    const bool Greedy = Strategy == SearchStrategy::GreedyGrow;
    for (const TraceResult &Res : Results) {
      if (!Res.Unviable)
        return false;
      if (Greedy)
        blame(Rec.Grown, *Res.Unviable);
      else
        addUnviable(Rec.Viable, *Res.Unviable);
    }
    // No new blame: retrying the same abstraction cannot help, and greedy
    // refinement cannot conclude impossibility.
    if (Greedy)
      return Rec.Grown != Plan.Bits;
    // Progress (Theorem 3): the current abstraction is always among the
    // eliminated ones, so the next round cannot repeat it. When the
    // learned clauses fail to rule it out, fall back to eliminating it
    // explicitly - weaker learning, but termination (and soundness)
    // survive the violation.
    if (Rec.Viable.eval(Plan.Bits)) {
      support::reportInvariant(
          &Sink, "progress", "QueryDriver::run",
          "meta-analysis failed to eliminate the current abstraction for "
          "check " +
              std::to_string(Check.index()) + "; eliminating it explicitly");
      Rec.Viable.addClause(eliminateClause(Plan.Bits));
    }
    return true;
  }

  /// Conjoins the negation of the unviable DNF into the viable CNF: each
  /// unviable cube becomes one clause of negated literals.
  void addUnviable(Cnf &Viable, const formula::Dnf &Unviable) const {
    for (const formula::Cube &Cube : Unviable.cubes()) {
      std::vector<BoolLit> Clause;
      for (formula::Lit L : Cube.literals()) {
        auto [Bit, ValueWhenTrue] = A.decodeParamAtom(L.atom());
        bool AtomTruePolarity = !L.isNeg();
        // Literal holds iff bit == (ValueWhenTrue == AtomTruePolarity
        // ? true : false)... i.e. the literal constrains the bit to
        // (ValueWhenTrue == AtomTruePolarity). The clause needs its
        // negation.
        bool BitMustBe = (ValueWhenTrue == AtomTruePolarity);
        Clause.push_back(BoolLit{Bit, !BitMustBe});
      }
      Viable.addClause(std::move(Clause));
    }
  }

  /// GreedyGrow's merge: switches on every parameter bit \p Unviable
  /// mentions (the failure is blamed on all of them).
  void blame(std::vector<bool> &Bits, const formula::Dnf &Unviable) const {
    for (const formula::Cube &Cube : Unviable.cubes())
      for (formula::Lit L : Cube.literals())
        Bits[A.decodeParamAtom(L.atom()).first] = true;
  }

  /// A clause satisfied by every assignment except exactly \p Bits: one
  /// negated literal per parameter bit. Used by the EliminateCurrent
  /// baseline and by the progress-violation recovery path.
  std::vector<BoolLit> eliminateClause(const std::vector<bool> &Bits) const {
    std::vector<BoolLit> Clause;
    for (uint32_t Bit = 0; Bit < A.numParamBits(); ++Bit)
      Clause.push_back(
          BoolLit{Bit, Bit < Bits.size() ? !Bits[Bit] : true});
    return Clause;
  }

  unsigned effectiveWorkers() const {
    if (BorrowedPool)
      return BorrowedPool->numWorkers();
    unsigned N = Execution.NumThreads == 0
                     ? support::ThreadPool::hardwareWorkers()
                     : Execution.NumThreads;
    return N < 1 ? 1 : N;
  }

  support::ThreadPool &pool() {
    return BorrowedPool ? *BorrowedPool : *OwnedPool;
  }

  ForwardRunCache<Forward> &cache() {
    return BorrowedCache ? *BorrowedCache : OwnedCache;
  }

  /// Writes the Prometheus dump and/or the Chrome trace when the
  /// corresponding Observability paths are set. Both exports are
  /// cumulative process-wide snapshots, rewritten at the end of every
  /// run(); failures to open the files are silently ignored (observability
  /// must never fail the analysis).
  void exportMetrics() const {
    if (!Observability.MetricsPath.empty())
      support::writeFile(Observability.MetricsPath, [](std::ostream &OS) {
        support::MetricRegistry::global().dumpPrometheus(OS);
      });
    if (!Observability.ProfilePath.empty())
      support::writeFile(Observability.ProfilePath, [](std::ostream &OS) {
        support::Profiler::global().writeChromeTrace(OS);
      });
  }

  const ir::Program &P;
  const Analysis &A;
  Config::ExecutionConfig Execution;
  Config::BudgetConfig Budgets;
  Config::ObservabilityConfig Observability;
  /// Execution.Strategy, parsed once at construction.
  SearchStrategy Strategy = SearchStrategy::Tracer;
  /// Caller-shared cancellation token (see setCancelToken); null = none.
  std::shared_ptr<support::CancelToken> Cancel;
  /// Live-variable sets and statement-to-check reachability are
  /// properties of the program alone: computed once (at the first run(),
  /// unless borrowExecution supplied the owner's tables) and shared by
  /// every forward run this driver builds, which forget dead variables
  /// before interning states and skip subtrees that cannot reach a check
  /// when extracting witnesses (see DESIGN.md).
  std::optional<ir::CommandLiveness> OwnedLiveness;
  const ir::CommandLiveness *Liveness = nullptr;
  std::optional<ir::CheckReach> OwnedReach;
  const ir::CheckReach *Reach = nullptr;
  DriverStats Stats;
  double TotalSeconds = 0;
  ForwardRunCache<Forward> OwnedCache;
  std::unique_ptr<support::ThreadPool> OwnedPool;
  /// Borrowed execution context (see borrowExecution); null = self-owned.
  ForwardRunCache<Forward> *BorrowedCache = nullptr;
  support::ThreadPool *BorrowedPool = nullptr;
  uint64_t CacheEpochScope = 0;
  uint64_t CacheFamilyScope = 0;
  /// Per-check freshness floors (indexed by CheckId), injected by the
  /// service on incremental re-registrations; null = accept any data epoch.
  const std::vector<uint64_t> *CheckMinDataEpochs = nullptr;
  /// Counter snapshot at run() entry; endRun reports deltas against it.
  ForwardCacheCounters BaseCounters;
  support::InvariantSink Sink;
  std::vector<Cnf> LastViable;
};

} // namespace tracer
} // namespace optabs

#endif // OPTABS_TRACER_QUERYDRIVER_H
