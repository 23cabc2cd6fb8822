//===- Harness.cpp - Experiment harness shared by the benches -----------------===//

#include "reporting/Harness.h"

#include "support/Timer.h" // internal: wall-clock attribution

#include <cstdlib>
#include <map>

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

/// Folds one driver run into the client results: its per-query stats,
/// its counters, and its audit evidence (invariant records, certificate
/// checks).
template <typename Analysis>
void foldRun(const ir::Program &P, const Analysis &A,
             const HarnessOptions &Options,
             const tracer::QueryDriver<Analysis> &Driver,
             const std::vector<tracer::QueryOutcome> &Outcomes,
             const std::string &Label, ClientResults &Out) {
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
  const auto &Violations = S.Violations;
  Out.InvariantViolations += Violations.size();
  for (const auto &V : Violations)
    Out.AuditNotes.push_back(Label + ": invariant [" + V.Check + "] in " +
                             V.Where + ": " + V.Message);
  if (!Options.Cfg.Audit.Enabled)
    return;
  tracer::CertificateOptions CertOpts;
  // GreedyGrow never promises minimal abstractions, so a cost mismatch
  // against the (empty) viable CNF would be a false alarm.
  CertOpts.CheckMinimality =
      Options.Cfg.Execution.Strategy != "greedy-grow";
  tracer::CertificateChecker<Analysis> Checker(P, A, CertOpts);
  tracer::CertificateReport Report =
      Checker.check(Outcomes, Driver.finalViableSets());
  Out.CertificatesChecked += Report.ProvenChecked + Report.ImpossibleChecked +
                             Report.MinimalityChecked +
                             Report.EliminatedSampled;
  Out.CertificateFailures += static_cast<unsigned>(Report.Issues.size());
  for (const tracer::CertificateIssue &Issue : Report.Issues)
    Out.AuditNotes.push_back(Label + ": certificate [" + Issue.Kind +
                             "] query " + std::to_string(Issue.Query) + ": " +
                             Issue.Detail);
}

/// The type-state queries of \p B by tracked site: a TRACER query is a
/// (check, site) pair for every allocation site the receiver may point to
/// (§6), and the queries of one site share an analysis instance and a
/// driver run.
std::map<uint32_t, std::vector<CheckId>>
checksBySite(const synth::Benchmark &B, const pointer::PointsToResult &Pt) {
  std::map<uint32_t, std::vector<CheckId>> BySite;
  for (CheckId Check : B.TsChecks)
    Pt.pointsTo(B.P.checkSite(Check).Var).forEach([&](size_t H) {
      BySite[static_cast<uint32_t>(H)].push_back(Check);
    });
  return BySite;
}

void runEscape(const synth::Benchmark &B, const HarnessOptions &Options,
               ClientResults &Out) {
  Timer Total;
  escape::EscapeAnalysis A(B.P);
  Config Cfg = Options.Cfg;
  if (!Cfg.Observability.EventTracePath.empty())
    Cfg.Observability.EventTraceLabel = "escape";
  tracer::QueryDriver<escape::EscapeAnalysis> Driver(B.P, A, Cfg);
  foldRun(B.P, A, Options, Driver, Driver.run(B.EscChecks), "escape", Out);
  Out.TotalSeconds = Total.seconds();
}

void runTypestate(const synth::Benchmark &B, const HarnessOptions &Options,
                  ClientResults &Out) {
  Timer Total;
  pointer::PointsToResult Pt = pointer::runPointsTo(B.P);
  typestate::TypestateSpec Spec = typestate::TypestateSpec::stress();

  double Budget = Options.Cfg.Budgets.TimeBudgetSeconds;
  for (auto &[SiteIdx, Checks] : checksBySite(B, Pt)) {
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
    typestate::TypestateAnalysis A(B.P, Spec, AllocId(SiteIdx), Pt);
    Config PerSite = Options.Cfg;
    PerSite.Budgets.TimeBudgetSeconds = Remaining;
    std::string Label = "typestate/site=" + std::to_string(SiteIdx);
    if (!PerSite.Observability.EventTracePath.empty())
      PerSite.Observability.EventTraceLabel = Label;
    tracer::QueryDriver<typestate::TypestateAnalysis> Driver(B.P, A,
                                                             PerSite);
    foldRun(B.P, A, Options, Driver, Driver.run(Checks), Label, Out);
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
