//===- Harness.cpp - Experiment harness shared by the benches -----------------===//

#include "reporting/Harness.h"

#include "support/Timer.h" // internal: wall-clock attribution

#include <cstdlib>
#include <stdexcept>
#include <type_traits>

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

/// Runs client \p A over \p Checks of \p P as its table entry plans it,
/// under the §6 stress property: one driver per group of checks, whose
/// per-query stats, counters and audit evidence (noted under the run's
/// event-trace label) fold into \p Out. The groups share one wall-clock
/// budget; once it is spent, every remaining query records a clean
/// exhaustion verdict instead of constructing a driver doomed to burn
/// setup time resolving nothing.
template <typename A>
void runClient(ir::Program &P, const std::vector<CheckId> &Checks,
               const HarnessOptions &Options, ClientResults &Out) {
  using T = service::ClientTraits<A>;
  Timer Total;
  std::string Err;
  std::optional<typename T::Context> Ctx = T::context("", P, Err);
  double Budget = Options.Cfg.Budgets.TimeBudgetSeconds;
  for (auto &[G, Queries] : T::groups(P, *Ctx, Checks)) {
    double Remaining = Budget - Total.seconds();
    if (Remaining <= 0) {
      for (size_t I = 0; I < Queries.size(); ++I) {
        QueryStat S;
        S.V = tracer::Verdict::Unresolved;
        S.ExhaustedResource = "wall_clock";
        S.ExhaustedSite = "harness.budget";
        Out.Queries.push_back(std::move(S));
        ++Out.BudgetExhausted;
      }
      continue;
    }
    std::unique_ptr<A> An = T::analysis(P, *Ctx, G);
    Config Cfg = Options.Cfg;
    Cfg.Budgets.TimeBudgetSeconds = Remaining;
    Cfg.Observability.EventTraceLabel = T::traceLabel(G);
    tracer::QueryDriver<A> Driver(P, *An, Cfg);
    std::vector<tracer::QueryOutcome> Outcomes = Driver.run(Queries);
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
    tracer::auditRun(P, *An, Cfg, Driver, Outcomes,
                     Cfg.Observability.EventTraceLabel, Out);
  }
  Out.TotalSeconds = Total.seconds();
}

/// The one place the harness names a client: the suite's checks for
/// client \p A, and the BenchRun fields its results and query count fill
/// (the paper-table benches read them by client).
template <typename A> auto slotOf(synth::Benchmark &B, BenchRun &Run) {
  using Clients = service::PerClient<service::ClientTraits>;
  static_assert(std::tuple_size_v<Clients> == 2,
                "a client added to the table needs its BenchRun slot here");
  if constexpr (std::is_same_v<A, escape::EscapeAnalysis>)
    return std::tie(B.EscChecks, Run.Esc, Run.EscQueries);
  else
    return std::tie(B.TsChecks, Run.Ts, Run.TsQueries);
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

BenchRun runBenchmark(const synth::BenchConfig &Config,
                      const HarnessOptions &Options) {
  if (!Options.Client.empty() &&
      !service::withClient(Options.Client, [](auto) {}))
    throw std::invalid_argument("harness client must be " +
                                service::clientNames() + ", got '" +
                                Options.Client + "'");
  synth::Benchmark B = synth::generate(Config);
  BenchRun Run;
  Run.Config = Config;
  Run.Procs = B.P.numProcs();
  Run.Commands = B.P.numCommands();
  Run.Vars = B.P.numVars();
  Run.Sites = B.P.numAllocs();
  Run.Fields = B.P.numFields();
  // A client left out reports its check count; a client run, its number
  // of (check, group) queries.
  service::forEachClient([&](auto T) {
    using A = typename decltype(T)::Analysis;
    auto [Checks, Out, Queries] = slotOf<A>(B, Run);
    Queries = static_cast<uint32_t>(Checks.size());
    if (!Options.Client.empty() && Options.Client != T.Name)
      return;
    runClient<A>(B.P, Checks, Options, Out);
    Queries = static_cast<uint32_t>(Out.Queries.size());
  });
  return Run;
}

} // namespace reporting
} // namespace optabs
