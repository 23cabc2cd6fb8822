//===- Config.h - Unified public configuration surface ---------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// optabs::Config is the one public knob surface of the library. Every
/// entry point - the CLI, the analysis service, the experiment harness -
/// carries a Config, and tracer::QueryDriver takes one directly.
///
/// Three rules, enforced in exactly one place each:
///
///  * Precedence: explicit > environment (OPTABS_*) > defaults. Start from
///    Config::fromEnv() (defaults overlaid with the environment) and apply
///    explicit settings on top; nothing else reads OPTABS_* variables.
///  * Validation: validate() returns structured ConfigErrors for every
///    invalid combination (e.g. "an event-trace label requires an
///    event-trace path").
///  * Sections: Execution (how the search runs), Budgets (when it stops),
///    Observability (what it records), Audit (how it is checked), Service
///    (multi-tenant quotas).
///
/// Documented invalid configurations rejected by validate():
///
///   1. execution.strategy not one of StrategyNames
///   2. execution.traces_per_iteration == 0 (at least one counterexample
///      per failed iteration)
///   3. execution.max_iters_per_query == 0 (the CEGAR loop needs a round)
///   4. execution.product_soft_cap == 0 (Dnf::product keeps at least one
///      cube)
///   5. budgets.time_budget_seconds <= 0 (and any negative budget)
///   6. observability.event_trace_label set without an event_trace_path
///   7. observability.service_trace_capacity == 0 while
///      observability.service_trace is on (the flight recorder must be
///      able to hold at least one event)
///   8. observability.service_trace_jsonl_path or _chrome_path set while
///      observability.service_trace is off (the export would be empty)
///   9. observability.slow_query_seconds < 0 (0 disables the slow-query
///      log; negative thresholds are meaningless)
///  10. service.max_pending_per_session == 0 (a tenant must be able to
///      queue at least one job)
///  11. service.max_sessions == 0 (the service must admit a session)
///  12. service.spill_bytes or service.persist_on_shutdown set without a
///      service.cache_dir (the persistent tier has nowhere to write)
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_SUPPORT_CONFIG_H
#define OPTABS_SUPPORT_CONFIG_H

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

namespace optabs {

/// One structured validation (or environment-parse) error: which field is
/// wrong, dotted-path style ("budgets.backward_timeout_seconds"), and why.
struct ConfigError {
  std::string Field;
  std::string Message;
};

/// Renders a list of errors as one human-readable line per error.
std::string formatConfigErrors(const std::vector<ConfigError> &Errors);

/// How the next abstraction is chosen after a failed proof attempt
/// (Config::Execution.Strategy names one). The non-default strategies are
/// the baselines the paper's Related Work contrasts TRACER with.
enum class SearchStrategy : uint8_t {
  /// Algorithm 1: backward meta-analysis eliminates whole sets of
  /// abstractions; next is a minimum-cost viable one.
  Tracer,
  /// Strawman CEGAR: each iteration eliminates exactly the current
  /// abstraction. Sound and (eventually) optimal, but the search space is
  /// 2^N, so it exhausts any budget beyond toy families.
  EliminateCurrent,
  /// Monotone refinement in the style of demand-driven pointer analyses
  /// (Sridharan-Bodik et al.): grow the abstraction by every parameter the
  /// failure is blamed on. Fast, but over-refines (no minimality) and can
  /// never conclude impossibility.
  GreedyGrow,
};

/// The one table of strategy names, indexed by SearchStrategy: what
/// Config::Execution.Strategy, OPTABS_STRATEGY, the CLI, the service
/// protocol and the event trace spell.
inline constexpr const char *StrategyNames[] = {"tracer", "eliminate-current",
                                                "greedy-grow"};

inline const char *strategyName(SearchStrategy S) {
  return StrategyNames[static_cast<size_t>(S)];
}

/// StrategyNames as prose for an error or a help line ("a, b or c").
std::string strategyNameList();

/// Parses a strategy name; false (and \p Out untouched) when unknown.
inline bool parseStrategy(const std::string &Name, SearchStrategy &Out) {
  for (size_t I = 0; I < std::size(StrategyNames); ++I)
    if (Name == StrategyNames[I]) {
      Out = static_cast<SearchStrategy>(I);
      return true;
    }
  return false;
}

struct Config {
  /// How the search executes: the paper's operating point plus the
  /// parallelism and caching knobs of the production driver.
  struct ExecutionConfig {
    unsigned K = 5;                  ///< dropk beam width; 0 = exact
    unsigned MaxItersPerQuery = 100; ///< per-query CEGAR iteration budget
    bool GroupQueries = true;        ///< §6 unviable-set grouping
    size_t ProductSoftCap = 4096;    ///< Dnf::product growth cap
    /// Counterexamples analyzed per failed iteration. 1 reproduces the
    /// paper; larger values conjoin what several traces teach (§8's "DAG
    /// counterexamples" direction).
    unsigned TracesPerIteration = 1;
    /// Strategy name, one of StrategyNames.
    std::string Strategy = "tracer";
    /// Worker threads (1 = sequential, 0 = hardware concurrency).
    unsigned NumThreads = 1;
    /// Forward-run cache entry cap (LRU); 0 = unbounded.
    size_t ForwardCacheCapacity = 0;
  };

  /// When the search stops: deterministic logical-step budgets per kernel,
  /// plus the schedule-dependent wall-clock limits. 0 = unbounded for every
  /// budget but the whole-driver wall clock. A step budget is counted per
  /// task, so it cuts the same work at any worker count; an exhausted
  /// kernel teaches nothing and its queries end Unresolved (never
  /// Impossible).
  struct BudgetConfig {
    double TimeBudgetSeconds = 1e12;   ///< whole-driver wall clock
    double BackwardTimeoutSeconds = 0; ///< per-trace meta-analysis timeout
    uint64_t ForwardStepBudget = 0;    ///< forward state visits per fixpoint
    uint64_t BackwardStepBudget = 0;   ///< backward wp steps per trace
    uint64_t SolverDecisionBudget = 0; ///< MinCostSat branch decisions
    /// Ceiling on the forward-run cache's resident bytes, checked at every
    /// round boundary; exceeding it walks the degradation ladder (spill or
    /// evict the cache, halve the dropk beam, one trace per iteration).
    uint64_t MemoryBudgetBytes = 0;
  };

  /// What the run records. All default from OPTABS_* via fromEnv().
  struct ObservabilityConfig {
    std::string MetricsPath;     ///< Prometheus text dump (OPTABS_METRICS)
    std::string ProfilePath;     ///< Chrome trace JSON (OPTABS_CHROME_TRACE)
    std::string EventTracePath;  ///< JSONL CEGAR trace (OPTABS_EVENT_TRACE)
    std::string EventTraceLabel; ///< label stamped on every event line
    /// Request-scoped tracing in the analysis service (support/Trace.h):
    /// per-job lifecycle timelines in a bounded flight recorder, read
    /// back by the `trace`/`explain` protocol ops. Service-level, never part of
    /// a session's options signature (OPTABS_SERVICE_TRACE, 0/1).
    bool ServiceTrace = false;
    /// Flight-recorder ring capacity in events (oldest evicted first).
    size_t ServiceTraceCapacity = 4096;
    /// Service trace JSONL export written at service shutdown.
    std::string ServiceTraceJsonlPath;
    /// Merged Chrome trace (service track + profiler worker tracks)
    /// written at service shutdown.
    std::string ServiceTraceChromePath;
    /// End-to-end latency above which a job lands in the slow-query log
    /// (a "slow-query" trace event + counter). 0 disables.
    double SlowQuerySeconds = 0;
  };

  /// How verdicts are double-checked (tracer/Certificates.h).
  struct AuditConfig {
    bool Enabled = false; ///< certificate-check every verdict (OPTABS_AUDIT)
  };

  /// Multi-tenant quotas of the analysis service (src/service/).
  struct ServiceConfig {
    unsigned MaxSessions = 64;          ///< concurrently open sessions
    unsigned MaxPendingPerSession = 1024; ///< queued jobs before rejection
    uint64_t MaxJobsPerSession = 0;     ///< lifetime job quota; 0 = unlimited
    /// Directory for the persistent cache tier (snapshots written by the
    /// `cache` op / shutdown persist, spill files written under memory
    /// pressure, warm loads on registration). Empty disables every
    /// on-disk path (OPTABS_CACHE_DIR).
    std::string CacheDir;
    /// Ceiling on bytes of spill files under service.cache_dir; once
    /// reached, cold entries fall back to plain eviction instead of
    /// spilling. Pre-existing spill files count against it (the service
    /// scans the dir on first spill), and the budget is enforced per
    /// worker - shardd workers sharing one dir each apply their own
    /// ceiling against the shared contents. 0 = unbounded
    /// (OPTABS_SPILL_BYTES).
    uint64_t SpillBytes = 0;
    /// Snapshot every registered program to service.cache_dir when the
    /// service shuts down, so the next process starts warm
    /// (OPTABS_PERSIST_ON_SHUTDOWN, 0/1).
    bool PersistOnShutdown = false;
  };

  ExecutionConfig Execution;
  BudgetConfig Budgets;
  ObservabilityConfig Observability;
  AuditConfig Audit;
  ServiceConfig Service;

  /// The built-in defaults (the paper's k=5 operating point, sequential,
  /// unbounded budgets, no observability).
  static Config defaults() { return Config(); }

  /// Defaults overlaid with the OPTABS_* environment: OPTABS_AUDIT,
  /// OPTABS_METRICS, OPTABS_CHROME_TRACE, OPTABS_EVENT_TRACE,
  /// OPTABS_THREADS, OPTABS_K, OPTABS_STRATEGY, OPTABS_STEP_BUDGET (arms
  /// all three step budgets), OPTABS_TIME_BUDGET_SECONDS,
  /// OPTABS_CACHE_CAPACITY, OPTABS_MEMORY_BUDGET_MB, OPTABS_SERVICE_TRACE
  /// (0/1, observability.service_trace), OPTABS_CACHE_DIR (service.cache_dir),
  /// OPTABS_SPILL_BYTES (service.spill_bytes), OPTABS_PERSIST_ON_SHUTDOWN
  /// (0/1, service.persist_on_shutdown). Malformed values are
  /// reported through \p Errors (when non-null) and leave the default in
  /// place. This is the only function in the codebase that reads OPTABS_*
  /// configuration variables.
  static Config fromEnv(std::vector<ConfigError> *Errors = nullptr);

  /// Structural validation; empty result = valid. See the file comment for
  /// the documented rejected combinations.
  std::vector<ConfigError> validate() const;

  /// True when \p Name is one of StrategyNames.
  static bool isKnownStrategy(const std::string &Name);
};

} // namespace optabs

#endif // OPTABS_SUPPORT_CONFIG_H
