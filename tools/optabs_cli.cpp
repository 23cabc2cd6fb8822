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
//   --strategy=tracer|eliminate-current|greedy-grow
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
};

int usage(const char *Msg = nullptr) {
  if (Msg)
    std::cerr << "error: " << Msg << "\n";
  std::cerr << "usage: optabs-cli PROGRAM.opt --client=escape|typestate "
               "[--property=SPEC] [--k=N]\n"
               "       [--strategy=tracer|eliminate-current|greedy-grow] "
               "[--max-iters=N]\n"
               "       [--traces-per-iter=N] [--threads=N] [--audit] "
               "[--event-trace=PATH]\n"
               "       [--metrics=PATH] [--chrome-trace=PATH] "
               "[--step-budget=N]\n"
               "       [--memory-budget-mb=N] [--faults=SPEC] [--stats] "
               "[--verbose]\n";
  return 2;
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts, std::string &Err) {
  Config &C = Opts.Cfg;
  std::vector<std::string> Positionals;
  uint64_t StepBudget = 0, MemoryBudgetMb = 0;
  support::ArgParser Args;
  Args.positional(&Positionals)
      .option("--client", &Opts.Client, "escape or typestate")
      .option("--property", &Opts.Property, "type-state automaton spec")
      .option("--k", &C.Execution.K, "dropk beam width (0 = exact)")
      .option("--strategy", &C.Execution.Strategy,
              "tracer, eliminate-current or greedy-grow")
      .option("--max-iters", &C.Execution.MaxItersPerQuery,
              "per-query iteration budget")
      .option("--traces-per-iter", &C.Execution.TracesPerIteration,
              "counterexamples per failed iteration")
      .option("--threads", &C.Execution.NumThreads,
              "worker threads (1 = sequential, 0 = hardware)")
      .option("--step-budget", &StepBudget,
              "logical-step budget for every kernel")
      .option("--memory-budget-mb", &MemoryBudgetMb,
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
  if (StepBudget > 0) {
    C.Budgets.ForwardStepBudget = StepBudget;
    C.Budgets.BackwardStepBudget = StepBudget;
    C.Budgets.SolverDecisionBudget = StepBudget;
  }
  if (MemoryBudgetMb > 0)
    C.Budgets.MemoryBudgetBytes = MemoryBudgetMb * 1024 * 1024;
  if (Positionals.size() > 1) {
    Err = "multiple program files given";
    return false;
  }
  if (Positionals.empty()) {
    Err = "no program file given";
    return false;
  }
  Opts.ProgramPath = Positionals[0];
  bool KnownClient = Opts.Client == "escape" || Opts.Client == "typestate";
  if (!KnownClient && !(Opts.Stats && Opts.Client.empty())) {
    Err = "--client must be 'escape' or 'typestate'";
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

/// Runs one driver of \p A over \p Queries, labelled \p Label in the event
/// trace: prints each outcome with \p Extra after its check and folds the
/// run's audit evidence into \p Tally.
template <typename Analysis>
void runDriver(const Program &P, const Analysis &A, Config Cfg,
               const std::string &Label, const std::vector<CheckId> &Queries,
               const std::string &Extra, tracer::AuditTally &Tally) {
  Cfg.Observability.EventTraceLabel = Label;
  tracer::QueryDriver<Analysis> Driver(P, A, Cfg);
  std::vector<tracer::QueryOutcome> Outcomes = Driver.run(Queries);
  for (const auto &O : Outcomes)
    printOutcome(P, O, Extra);
  tracer::auditRun(P, A, Cfg, Driver, Outcomes, "audit", Tally);
}

int runEscape(const Program &P, const CliOptions &Opts,
              const std::vector<CheckId> &Checks) {
  std::cout << "thread-escape analysis, " << Checks.size()
            << " queries, strategy " << Opts.Cfg.Execution.Strategy
            << ", k = " << Opts.Cfg.Execution.K << "\n";
  tracer::AuditTally Tally;
  runDriver(P, escape::EscapeAnalysis(P), Opts.Cfg, "escape", Checks, "",
            Tally);
  return finishAudit(Opts, Tally);
}

int runTypestate(Program &P, const CliOptions &Opts,
                 const std::vector<CheckId> &Checks) {
  std::string Err;
  std::optional<typestate::TypestateSpec> Spec =
      typestate::specFor(Opts.Property, P, Err);
  if (!Spec) {
    std::cerr << "error: " << Err << "\n";
    return 2;
  }
  pointer::PointsToResult Pt = pointer::runPointsTo(P);
  std::cout << "type-state analysis ("
            << (Opts.Property.empty() ? "stress property"
                                      : "property automaton")
            << "), strategy " << Opts.Cfg.Execution.Strategy
            << ", k = " << Opts.Cfg.Execution.K << "\n";
  tracer::AuditTally Tally;
  for (const auto &[H, Queries] : typestate::checksBySite(P, Checks, Pt))
    runDriver(P, typestate::TypestateAnalysis(P, *Spec, AllocId(H), Pt),
              Opts.Cfg, typestate::siteTraceLabel(H), Queries,
              " (site " + P.allocName(AllocId(H)) + ")", Tally);
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
  if (!parseArgs(Argc, Argv, Opts, Err))
    return usage(Err.c_str());

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
  if (Opts.Client == "escape")
    return runEscape(P, Opts, Checks);
  return runTypestate(P, Opts, Checks);
}
