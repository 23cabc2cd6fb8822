//===- optabs_cli.cpp - Command-line driver for the optabs library ------------===//
//
// Runs the optimum-abstraction search on a textual mini-IR program:
//
//   optabs-cli PROGRAM.opt --client=escape [options]
//   optabs-cli PROGRAM.opt --client=typestate
//       [--property="init=closed; open: closed->opened, opened->ERR; ..."]
//
// Options (every setting is a field of optabs::Config, with the standard
// precedence explicit flag > OPTABS_* environment > default):
//   --client=escape|typestate   which parametric analysis to run (required)
//   --property=SPEC             type-state automaton; without it the §6
//                               stress property (must-alias precision) runs
//   --k=N                       dropk beam width (default 5; 0 = exact)
//   --strategy=NAME             search strategy, one of StrategyNames
//                               (support/Config.h; default tracer)
//   --max-iters=N               per-query iteration budget (default 100)
//   --traces-per-iter=N         counterexamples per failed iteration
//   --threads=N                 worker threads (1 = sequential, 0 = all)
//   --audit                     validate every verdict with the certificate
//                               checker and fail (exit 1) on any invariant
//                               violation or certificate mismatch
//   --event-trace=PATH          write a JSONL CEGAR event trace to PATH
//                               (truncated once at startup)
//   --metrics=PATH              enable the metrics layer and write a
//                               Prometheus-style text dump of all counters,
//                               gauges and histograms to PATH
//   --chrome-trace=PATH         enable the metrics layer and write a Chrome
//                               trace-event JSON of all profiler spans to
//                               PATH (load in chrome://tracing or Perfetto)
//   --step-budget=N             deterministic logical-step budget applied to
//                               every kernel (forward state visits, backward
//                               cube expansions, solver decisions); a query
//                               that exhausts it goes Unresolved with the
//                               exhausted resource and site reported
//   --memory-budget-mb=N        resident-bytes ceiling for the forward-run
//                               cache; pressure triggers the graceful-
//                               degradation ladder (evict cache, shrink
//                               beam, single trace per iteration)
//   --faults=SPEC               arm the deterministic fault-injection
//                               registry, e.g. "forward.visit:alloc@3;
//                               backward.step:cancel" (also armed by the
//                               OPTABS_FAULTS environment variable)
//   --stats                     print program statistics and exit
//   --verbose                   print the program before the report
//
// Every check(v[, state]) command in the program becomes a query. For the
// escape client the query is "is v thread-local here"; for the type-state
// client one query is posed per (check, may-pointed allocation site) and
// asks that the object's type-state be the check's payload (or that no
// error occurred, under the stress property).
//
//===----------------------------------------------------------------------===//

#include <optabs/optabs.h>

#include <fstream>
#include <iostream>
#include <sstream>

using namespace optabs;
using namespace optabs::ir;

namespace {

struct CliOptions {
  std::string ProgramPath;
  std::string Client;
  std::string Property;
  Config Cfg; // audit lives in Cfg.Audit.Enabled
  bool Stats = false;
  bool Verbose = false;
  // Raw flag values that parseArgs folds into the fields above.
  std::vector<std::string> Positionals;
  uint64_t StepBudget = 0, MemoryBudgetMb = 0;
};

/// Declares every flag on \p Args, parses argv into \p Opts and checks
/// the result. Stops early, successfully, when \p Args saw --help.
bool parseArgs(int Argc, char **Argv, support::ArgParser &Args,
               CliOptions &Opts, std::string &Err) {
  Config &C = Opts.Cfg;
  Args.positional(&Opts.Positionals)
      .option("--client", &Opts.Client, "escape or typestate")
      .option("--property", &Opts.Property, "type-state automaton spec")
      .option("--k", &C.Execution.K, "dropk beam width (0 = exact)")
      .option("--strategy", &C.Execution.Strategy,
              strategyNameList().c_str())
      .option("--max-iters", &C.Execution.MaxItersPerQuery,
              "per-query iteration budget")
      .option("--traces-per-iter", &C.Execution.TracesPerIteration,
              "counterexamples per failed iteration")
      .option("--threads", &C.Execution.NumThreads,
              "worker threads (1 = sequential, 0 = hardware)")
      .option("--step-budget", &Opts.StepBudget,
              "logical-step budget for every kernel")
      .option("--memory-budget-mb", &Opts.MemoryBudgetMb,
              "forward-cache resident ceiling")
      .option("--event-trace", &C.Observability.EventTracePath,
              "JSONL CEGAR trace output")
      .option("--metrics", &C.Observability.MetricsPath,
              "Prometheus text dump output")
      .option("--chrome-trace", &C.Observability.ProfilePath,
              "Chrome trace-event JSON output")
      .callback(
          "--faults",
          [](const std::string &V, std::string &CbErr) {
            return support::FaultRegistry::global().arm(V, CbErr);
          },
          "deterministic fault-injection spec")
      .flag("--audit", &C.Audit.Enabled, "certificate-check every verdict")
      .flag("--stats", &Opts.Stats, "print program statistics and exit")
      .flag("--verbose", &Opts.Verbose, "print the program first");
  if (!Args.parse(Argc, Argv, Err))
    return false;
  if (Args.helpRequested())
    return true;
  if (Opts.StepBudget > 0) {
    C.Budgets.ForwardStepBudget = Opts.StepBudget;
    C.Budgets.BackwardStepBudget = Opts.StepBudget;
    C.Budgets.SolverDecisionBudget = Opts.StepBudget;
  }
  if (Opts.MemoryBudgetMb > 0)
    C.Budgets.MemoryBudgetBytes = Opts.MemoryBudgetMb * 1024 * 1024;
  if (Opts.Positionals.size() > 1) {
    Err = "multiple program files given";
    return false;
  }
  if (Opts.Positionals.empty()) {
    Err = "no program file given";
    return false;
  }
  Opts.ProgramPath = Opts.Positionals[0];
  bool TakesProperty = true;
  bool KnownClient = service::withClient(
      Opts.Client, [&](auto T) { TakesProperty = T.TakesProperty; });
  if (!KnownClient && !(Opts.Stats && Opts.Client.empty())) {
    Err = "--client must be " + service::clientNames();
    return false;
  }
  if (!TakesProperty && !Opts.Property.empty()) {
    Err = "the " + Opts.Client + " client takes no property";
    return false;
  }
  std::vector<ConfigError> Invalid = C.validate();
  if (!Invalid.empty()) {
    Err = formatConfigErrors(Invalid);
    return false;
  }
  return true;
}

void printOutcome(const Program &P, const tracer::QueryOutcome &O,
                  const std::string &Extra) {
  const CheckSite &Site = P.checkSite(O.Check);
  std::cout << "  " << commandToString(P, Site.Command) << " in "
            << P.proc(Site.Proc).Name << Extra << ": "
            << tracer::verdictName(O.V);
  if (O.V == tracer::Verdict::Proven)
    std::cout << " with " << O.CheapestParam << " (|p| = " << O.CheapestCost
              << ")";
  if (O.Exhaustion)
    std::cout << " (exhausted " << support::resourceName(O.Exhaustion->Res)
              << " at " << O.Exhaustion->Site << ")";
  std::cout << " [" << O.Iterations << " iteration(s)]\n";
}

/// Prints the audit notes and, under --audit, the summary; exit status 1
/// when an audited run failed.
int finishAudit(const CliOptions &Opts, const tracer::AuditTally &Tally) {
  for (const std::string &Note : Tally.AuditNotes)
    std::cerr << Note << "\n";
  if (!Opts.Cfg.Audit.Enabled)
    return 0;
  std::cout << "audit: " << Tally.CertificatesChecked
            << " certificate check(s), " << Tally.CertificateFailures
            << " failure(s), " << Tally.InvariantViolations
            << " invariant violation(s)\n";
  return Tally.CertificateFailures > 0 || Tally.InvariantViolations > 0;
}

/// Runs client \p A over \p Checks as its table entry plans it: one
/// driver per group of checks, each outcome printed with its group's name
/// and the run's audit evidence folded into one tally.
template <typename A>
int runClient(Program &P, const CliOptions &Opts,
              const std::vector<CheckId> &Checks) {
  using T = service::ClientTraits<A>;
  std::string Err;
  std::optional<typename T::Context> Ctx = T::context(Opts.Property, P, Err);
  if (!Ctx) {
    std::cerr << "error: " << Err << "\n";
    return 2;
  }
  std::cout << T::title(Opts.Property, Checks.size()) << ", strategy "
            << Opts.Cfg.Execution.Strategy << ", k = " << Opts.Cfg.Execution.K
            << "\n";
  tracer::AuditTally Tally;
  for (const auto &[G, Queries] : T::groups(P, *Ctx, Checks)) {
    std::unique_ptr<A> An = T::analysis(P, *Ctx, G);
    Config Cfg = Opts.Cfg;
    Cfg.Observability.EventTraceLabel = T::traceLabel(G);
    tracer::QueryDriver<A> Driver(P, *An, Cfg);
    std::vector<tracer::QueryOutcome> Outcomes = Driver.run(Queries);
    std::string Name = T::groupName(P, G);
    for (const auto &O : Outcomes)
      printOutcome(P, O, Name.empty() ? "" : " (" + Name + ")");
    tracer::auditRun(P, *An, Cfg, Driver, Outcomes, "audit", Tally);
  }
  return finishAudit(Opts, Tally);
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Opts;
  std::vector<ConfigError> EnvErrors;
  Opts.Cfg = Config::fromEnv(&EnvErrors);
  for (const ConfigError &E : EnvErrors)
    std::cerr << "warning: " << E.Field << ": " << E.Message << "\n";
  std::string Err;
  support::ArgParser Args("optabs-cli PROGRAM.opt");
  if (!parseArgs(Argc, Argv, Args, Opts, Err)) {
    std::cerr << "error: " << Err << "\n" << Args.usage();
    return 2;
  }
  if (Args.helpRequested()) {
    std::cout << Args.help();
    return 0;
  }

  if (!Opts.Cfg.Observability.EventTracePath.empty()) {
    // Truncate once here; the drivers append, so the per-site type-state
    // runs interleave into one file.
    std::ofstream Truncate(Opts.Cfg.Observability.EventTracePath,
                           std::ios::trunc);
    if (!Truncate) {
      std::cerr << "error: cannot write event trace '"
                << Opts.Cfg.Observability.EventTracePath << "'\n";
      return 2;
    }
  }

  std::ifstream In(Opts.ProgramPath);
  if (!In) {
    std::cerr << "error: cannot open '" << Opts.ProgramPath << "'\n";
    return 2;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();

  Program P;
  if (!parseProgram(Buffer.str(), P, Err)) {
    std::cerr << Opts.ProgramPath << ": " << Err << "\n";
    return 2;
  }
  if (Opts.Verbose)
    printProgram(std::cout, P);
  if (Opts.Stats) {
    std::cout << "procs: " << P.numProcs() << "\ncommands: "
              << P.numCommands() << "\nvariables: " << P.numVars()
              << "\nallocation sites: " << P.numAllocs() << "\nfields: "
              << P.numFields() << "\nchecks: " << P.numChecks() << "\n";
    if (Opts.Client.empty())
      return 0;
  }
  std::vector<CheckId> Checks;
  for (uint32_t I = 0; I < P.numChecks(); ++I)
    Checks.push_back(CheckId(I));
  int Status = 0;
  service::withClient(Opts.Client, [&](auto T) {
    Status = runClient<typename decltype(T)::Analysis>(P, Opts, Checks);
  });
  return Status;
}
