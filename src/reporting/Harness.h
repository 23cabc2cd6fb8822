//===- Harness.h - Experiment harness shared by the benches ----*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a synthetic benchmark through both client analyses the way §6 runs
/// the Java benchmarks through Chord, each as its client-table entry
/// (service/Clients.h) plans it:
///
///  * thread-escape: one TRACER driver over all field-access queries;
///  * type-state (stress property): queries are (check, site) pairs for
///    every may-pointed application site of every call-site check; one
///    TypestateAnalysis instance per tracked site, queries of one site
///    resolved together.
///
/// The per-query outcomes feed every table and figure of the evaluation;
/// the bench binaries only format them.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_REPORTING_HARNESS_H
#define OPTABS_REPORTING_HARNESS_H

#include <optabs/optabs.h>

#include "synth/Generator.h" // internal: the synthetic benchmark suite

#include <string>
#include <vector>

namespace optabs {
namespace reporting {

/// Outcome of one query, client-agnostic.
struct QueryStat {
  tracer::Verdict V = tracer::Verdict::Unresolved;
  unsigned Iterations = 0;
  double Seconds = 0;
  uint32_t Cost = 0;          ///< |p| of the cheapest abstraction (proven)
  std::string ParamKey;       ///< canonical cheapest abstraction (proven)
  /// When the query went Unresolved because a resource ran out, which one
  /// ("steps", "wall_clock", "memory", "cancelled") and at which charge
  /// site (e.g. "forward.visit"); empty otherwise.
  std::string ExhaustedResource;
  std::string ExhaustedSite;
};

/// All outcomes of one client on one benchmark, with its audit evidence.
struct ClientResults : tracer::AuditTally {
  std::vector<QueryStat> Queries;
  double TotalSeconds = 0;
  unsigned ForwardRuns = 0;
  unsigned BackwardRuns = 0;
  uint64_t CacheHits = 0;      ///< forward-run cache hits (memoized runs)
  uint64_t CacheMisses = 0;    ///< forward-run cache misses (computed runs)
  uint64_t CacheEvictions = 0; ///< forward-run cache LRU evictions
  /// Per-stage wall-clock breakdown summed over every driver run of this
  /// client (tracer::DriverStats::Phases); feeds the phase columns of the
  /// CSV summary export.
  tracer::PhaseSeconds Phases;
  unsigned BudgetExhausted = 0; ///< queries that hit a resource budget
  unsigned Degradations = 0;    ///< memory-pressure ladder escalations

  unsigned count(tracer::Verdict V) const {
    unsigned N = 0;
    for (const QueryStat &Q : Queries)
      N += Q.V == V;
    return N;
  }
};

/// One benchmark run end to end.
struct BenchRun {
  synth::BenchConfig Config;
  // Table 1 statistics.
  uint32_t Procs = 0;
  uint32_t Commands = 0;
  uint32_t Vars = 0;   ///< log2 |P| for type-state
  uint32_t Sites = 0;  ///< log2 |P| for thread-escape
  uint32_t Fields = 0;
  uint32_t TsQueries = 0;
  uint32_t EscQueries = 0;

  ClientResults Ts, Esc;
};

/// Knobs for a harness run: the unified optabs::Config plus the client
/// to run. Poke Cfg directly:
///
///   HarnessOptions O;
///   O.Cfg.Execution.NumThreads = 4;
///   O.Cfg.Audit.Enabled = true;
///   O.Cfg.Observability.EventTracePath = "/tmp/trace.jsonl";
///
/// Execution/Budgets/Observability reach the drivers as a Config copy;
/// Audit.Enabled arms invariant recording plus certificate checking;
/// the Observability paths are honored per client (the harness stamps
/// each driver run's event-trace label from the client table itself; the
/// event-trace file is appended to, never truncated).
struct HarnessOptions {
  /// The configuration surface. The default constructor resolves
  /// Config::fromEnv() (so the OPTABS_* precedence chain applies: audit
  /// arms from OPTABS_AUDIT, metrics from OPTABS_METRICS, ...) and then
  /// pins the harness operating point; fromConfig() takes an explicit
  /// Config verbatim.
  Config Cfg;
  /// The one client to run, by its client-table name (service/Clients.h);
  /// empty runs every client. runBenchmark throws std::invalid_argument
  /// on a name the table does not list.
  std::string Client;

  HarnessOptions();
};

/// Generates and runs one benchmark through every client (or the one
/// Options.Client names), in client-table order.
BenchRun runBenchmark(const synth::BenchConfig &Config,
                      const HarnessOptions &Options = HarnessOptions());

} // namespace reporting
} // namespace optabs

#endif // OPTABS_REPORTING_HARNESS_H
