//===- bench_incremental.cpp - Warm re-registration speedup ------------------===//
//
// The incremental re-analysis acceptance gate: on a K-procedure program
// (one escape check per procedure), a one-procedure edit followed by
// re-registration and a full re-query must be at least 5x faster through
// the incremental path (diff, migrate, replay, re-run only the dirty
// check) than on a cold service that registers the edited version fresh
// (every check recomputed) - with bitwise-identical verdicts.
//
// Emits BENCH_incremental.json (schema below; the "full_*" fields are the
// cold service; bench/BENCH_incremental_baseline.json holds a reference
// run) and exits 1 when the speedup gate
// or the verdict-identity check fails. OPTABS_PERF_ADVISORY=1 demotes the
// speedup gate to a warning, matching bench/perf_smoke.py; the identity
// check is never advisory.
//
// Usage: bench_incremental [OUTPUT_JSON]
//
//===----------------------------------------------------------------------===//

#include "BenchArgs.h"
#include "service/AnalysisService.h"
#include "support/Timer.h"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

using namespace optabs;

namespace {

constexpr unsigned NumProcs = 20;

/// main calls p01..p20; each procedure allocates two objects, links them
/// through a field (the figure-6 shape, so every check needs a
/// non-trivial abstraction), and checks the reachable one.
std::string makeProgram(bool EditLastProc) {
  std::string Text = "proc main {\n";
  for (unsigned I = 1; I <= NumProcs; ++I)
    Text += "  call p" + std::to_string(I) + ";\n";
  Text += "}\n";
  for (unsigned I = 1; I <= NumProcs; ++I) {
    std::string N = std::to_string(I);
    Text += "proc p" + N + " {\n";
    Text += "  u" + N + " = new ha" + N + ";\n";
    Text += "  v" + N + " = new hb" + N + ";\n";
    Text += "  v" + N + ".f = u" + N + ";\n";
    if (EditLastProc && I == NumProcs)
      Text += "  v" + N + ".f = u" + N + ";\n"; // the one-proc edit
    Text += "  check(u" + N + ");\n";
    Text += "}\n";
  }
  return Text;
}

struct Pass {
  std::vector<service::QueryResult> Results;
  double ReQuerySeconds = 0;
  uint64_t ForwardRuns = 0; ///< forward fixpoints in the timed region
  service::ServiceStats Stats;
};

/// Registers the edited version and queries every check (the timed
/// region). \p Warm first registers version 1 and queries every check
/// untimed, so the edit goes through incremental re-registration; a cold
/// pass starts from a fresh service.
Pass runPass(bool Warm) {
  service::AnalysisService::Options Opts;
  Opts.AutoDispatch = false;
  service::AnalysisService Svc(std::move(Opts));
  service::SessionSpec Spec;
  Spec.Program = "p";
  Spec.Client = "escape";
  service::Session S;
  auto Open = [&] {
    std::string Err;
    S = Svc.openSession(Spec, Err);
    if (!S.valid())
      std::abort();
  };
  auto QueryAll = [&] {
    std::vector<std::future<service::QueryResult>> Futures;
    for (uint32_t C = 0; C < NumProcs; ++C)
      Futures.push_back(S.submit({C, 0, 0}));
    Svc.drain();
    std::vector<service::QueryResult> Out;
    for (auto &F : Futures)
      Out.push_back(F.get());
    return Out;
  };
  if (Warm) {
    if (!Svc.registerProgram("p", makeProgram(false)).Ok)
      std::abort();
    Open();
    QueryAll(); // warm the caches against version 1 (untimed)
  }

  uint64_t RunsBefore = Svc.stats().ForwardRuns;
  Pass P;
  Timer T;
  if (!Svc.registerProgram("p", makeProgram(true)).Ok)
    std::abort();
  if (!Warm)
    Open(); // a session needs a registered program
  P.Results = QueryAll();
  P.ReQuerySeconds = T.seconds();
  P.Stats = Svc.stats();
  P.ForwardRuns = P.Stats.ForwardRuns - RunsBefore;
  return P;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string OutPath = "BENCH_incremental.json";
  if (std::optional<int> Exit = bench::parseOutputPath(
          Argc, Argv, "bench_incremental [OUTPUT_JSON]", OutPath))
    return *Exit;

  Pass Cold = runPass(/*Warm=*/false);
  Pass Warm = runPass(/*Warm=*/true);

  bool Identical = Cold.Results.size() == Warm.Results.size();
  for (size_t I = 0; Identical && I < Cold.Results.size(); ++I) {
    const service::QueryResult &A = Cold.Results[I];
    const service::QueryResult &B = Warm.Results[I];
    Identical = A.Status == B.Status && A.V == B.V &&
                A.Iterations == B.Iterations &&
                A.CheapestCost == B.CheapestCost &&
                A.CheapestParam == B.CheapestParam;
    if (!Identical)
      std::cerr << "FAIL: verdict " << I
                << " diverged between incremental re-registration and a "
                   "cold service\n";
  }

  double Speedup = Warm.ReQuerySeconds > 0
                       ? Cold.ReQuerySeconds / Warm.ReQuerySeconds
                       : 0;
  std::ofstream Out(OutPath);
  Out << "{\n"
      << "  \"benchmark\": \"incremental_reregister\",\n"
      << "  \"procs\": " << NumProcs << ",\n"
      << "  \"checks\": " << NumProcs << ",\n"
      << "  \"full_requery_seconds\": " << Cold.ReQuerySeconds << ",\n"
      << "  \"warm_requery_seconds\": " << Warm.ReQuerySeconds << ",\n"
      << "  \"speedup\": " << Speedup << ",\n"
      << "  \"full_forward_runs\": " << Cold.ForwardRuns << ",\n"
      << "  \"warm_forward_runs\": " << Warm.ForwardRuns << ",\n"
      << "  \"entries_migrated\": " << Warm.Stats.EntriesMigrated << ",\n"
      << "  \"verdicts_replayed\": " << Warm.Stats.VerdictsReplayed << ",\n"
      << "  \"procs_dirty\": " << Warm.Stats.ProceduresDirty << "\n"
      << "}\n";

  std::cout << "incremental re-register: cold service "
            << Cold.ReQuerySeconds << "s (" << Cold.ForwardRuns
            << " forward runs), warm " << Warm.ReQuerySeconds << "s ("
            << Warm.ForwardRuns << " forward runs), speedup " << Speedup << "x, "
            << Warm.Stats.VerdictsReplayed << " verdicts replayed\n";

  if (!Identical)
    return 1;
  // The dirty set is one procedure, so the warm pass must re-run only a
  // small fraction of the fixpoints the cold pass recomputes.
  if (Warm.ForwardRuns * 2 >= Cold.ForwardRuns) {
    std::cerr << "FAIL: warm pass recomputed " << Warm.ForwardRuns
              << " of " << Cold.ForwardRuns
              << " forward runs - invalidation is not proportional to the "
                 "edit\n";
    return 1;
  }
  if (Speedup < 5.0) {
    std::cerr << "FAIL: warm re-register speedup " << Speedup
              << "x is below the 5x gate\n";
    if (!std::getenv("OPTABS_PERF_ADVISORY"))
      return 1;
    std::cerr << "OPTABS_PERF_ADVISORY set - reporting only\n";
  }
  return 0;
}
