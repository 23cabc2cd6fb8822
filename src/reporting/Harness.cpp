//===- Harness.cpp - Experiment harness shared by the benches -----------------===//

#include "reporting/Harness.h"

#include "support/Timer.h" // internal: wall-clock attribution

#include <cstdlib>

namespace optabs {
namespace reporting {

using namespace ir;

namespace {

QueryStat statOf(const tracer::QueryOutcome &O) {
  QueryStat S;
  S.V = O.V;
  S.Iterations = O.Iterations;
  S.Seconds = O.Seconds;
  S.Cost = O.CheapestCost;
  S.ParamKey = O.CheapestParam;
  if (O.Exhaustion) {
    S.ExhaustedResource = support::resourceName(O.Exhaustion->Res);
    S.ExhaustedSite = O.Exhaustion->Site;
  }
  return S;
}

/// Folds one driver run under \p Cfg into the client results: its
/// per-query stats, its counters, and its audit evidence, noted under the
/// run's event-trace label.
template <typename Analysis>
void foldRun(const ir::Program &P, const Analysis &A, const Config &Cfg,
             const tracer::QueryDriver<Analysis> &Driver,
             const std::vector<tracer::QueryOutcome> &Outcomes,
             ClientResults &Out) {
  for (const tracer::QueryOutcome &O : Outcomes)
    Out.Queries.push_back(statOf(O));
  const tracer::DriverStats &S = Driver.stats();
  Out.ForwardRuns += S.ForwardRuns;
  Out.BackwardRuns += S.BackwardRuns;
  Out.CacheHits += S.CacheHits;
  Out.CacheMisses += S.CacheMisses;
  Out.CacheEvictions += S.CacheEvictions;
  Out.Phases += S.Phases;
  Out.BudgetExhausted += S.BudgetExhausted;
  Out.Degradations += S.Degradations;
  tracer::auditRun(P, A, Cfg, Driver, Outcomes,
                   Cfg.Observability.EventTraceLabel, Out);
}

void runEscape(const synth::Benchmark &B, const HarnessOptions &Options,
               ClientResults &Out) {
  Timer Total;
  escape::EscapeAnalysis A(B.P);
  Config Cfg = Options.Cfg;
  Cfg.Observability.EventTraceLabel = "escape";
  tracer::QueryDriver<escape::EscapeAnalysis> Driver(B.P, A, Cfg);
  foldRun(B.P, A, Cfg, Driver, Driver.run(B.EscChecks), Out);
  Out.TotalSeconds = Total.seconds();
}

void runTypestate(synth::Benchmark &B, const HarnessOptions &Options,
                  ClientResults &Out) {
  Timer Total;
  std::string Err;
  typestate::TypestateSpec Spec = *typestate::specFor("", B.P, Err);
  pointer::PointsToResult Pt = pointer::runPointsTo(B.P);

  double Budget = Options.Cfg.Budgets.TimeBudgetSeconds;
  for (auto &[Site, Checks] : typestate::checksBySite(B.P, B.TsChecks, Pt)) {
    double Remaining = Budget - Total.seconds();
    if (Remaining <= 0) {
      // The shared wall-clock budget is spent. Record a clean exhaustion
      // verdict per query instead of constructing a driver doomed to burn
      // setup time resolving nothing.
      for (size_t I = 0; I < Checks.size(); ++I) {
        QueryStat S;
        S.V = tracer::Verdict::Unresolved;
        S.ExhaustedResource = "wall_clock";
        S.ExhaustedSite = "harness.budget";
        Out.Queries.push_back(std::move(S));
        ++Out.BudgetExhausted;
      }
      continue;
    }
    typestate::TypestateAnalysis A(B.P, Spec, AllocId(Site), Pt);
    Config PerSite = Options.Cfg;
    PerSite.Budgets.TimeBudgetSeconds = Remaining;
    PerSite.Observability.EventTraceLabel = typestate::siteTraceLabel(Site);
    tracer::QueryDriver<typestate::TypestateAnalysis> Driver(B.P, A,
                                                             PerSite);
    foldRun(B.P, A, PerSite, Driver, Driver.run(Checks), Out);
  }
  Out.TotalSeconds = Total.seconds();
}

} // namespace

HarnessOptions::HarnessOptions() {
  // Resolve the standard precedence chain (explicit > OPTABS_* > defaults),
  // then pin the operating point of §6 at laptop scale: bounded per-query
  // iterations standing in for the paper's 1000-minute timeout. Neither
  // knob has an OPTABS_* variable, except the time budget, which the
  // environment overrides.
  Cfg = Config::fromEnv();
  Cfg.Execution.MaxItersPerQuery = 32;
  if (Cfg.Budgets.TimeBudgetSeconds == Config().Budgets.TimeBudgetSeconds)
    Cfg.Budgets.TimeBudgetSeconds = 180;
}

HarnessOptions HarnessOptions::fromConfig(const Config &C) {
  HarnessOptions O;
  O.Cfg = C;
  return O;
}

BenchRun runBenchmark(const synth::BenchConfig &Config,
                      const HarnessOptions &Options) {
  synth::Benchmark B = synth::generate(Config);
  BenchRun Run;
  Run.Config = Config;
  Run.Procs = B.P.numProcs();
  Run.Commands = B.P.numCommands();
  Run.Vars = B.P.numVars();
  Run.Sites = B.P.numAllocs();
  Run.Fields = B.P.numFields();
  Run.EscQueries = static_cast<uint32_t>(B.EscChecks.size());

  if (Options.RunEscape)
    runEscape(B, Options, Run.Esc);
  if (Options.RunTypestate) {
    runTypestate(B, Options, Run.Ts);
    Run.TsQueries = static_cast<uint32_t>(Run.Ts.Queries.size());
  } else {
    Run.TsQueries = static_cast<uint32_t>(B.TsChecks.size());
  }
  return Run;
}

} // namespace reporting
} // namespace optabs
