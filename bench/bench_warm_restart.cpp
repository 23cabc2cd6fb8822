//===- bench_warm_restart.cpp - Warm-restart time to first verdict -----------===//
//
// The persistent cache tier's acceptance gate: on the 20-procedure suite
// (one escape check per procedure, the figure-6 shape), a service that
// restarts against a populated cache directory must reach its first
// verdict at least 3x faster than the cold start that populated it -
// with bitwise-identical verdicts, answered entirely by replay (zero
// forward fixpoints).
//
// Emits BENCH_warm.json and exits 1 when the speedup gate, the zero-
// recompute check, or the verdict-identity check fails.
// OPTABS_PERF_ADVISORY=1 demotes the speedup gate to a warning, matching
// bench/perf_smoke.py; the identity and recompute checks are never
// advisory.
//
// Usage: bench_warm_restart [OUTPUT_JSON]
//
//===----------------------------------------------------------------------===//

#include "BenchArgs.h"
#include "service/AnalysisService.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

using namespace optabs;

namespace {

constexpr unsigned NumProcs = 20;

/// main calls p01..p20; each procedure allocates two objects, links them
/// through a field (so every check needs a non-trivial abstraction), and
/// checks the reachable one. Same shape as bench_incremental.
std::string makeProgram() {
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
    Text += "  check(u" + N + ");\n";
    Text += "}\n";
  }
  return Text;
}

struct Pass {
  std::vector<service::QueryResult> Results;
  double FirstVerdictSeconds = 0; ///< register -> first future resolved
  uint64_t ForwardRuns = 0;
  uint64_t VerdictsReplayed = 0;
};

/// One service lifetime against \p CacheDir: register (a warm start
/// loads snapshots here), submit every check, and time how long the
/// first verdict takes. When \p Persist, snapshot the caches before the
/// service dies (the artifact the next lifetime restarts from).
Pass runLife(const std::string &CacheDir, bool Persist) {
  service::AnalysisService::Options Opts;
  Opts.AutoDispatch = false;
  Opts.Base.Service.CacheDir = CacheDir;
  service::AnalysisService Svc(std::move(Opts));

  Pass P;
  Timer T;
  if (!Svc.registerProgram("p", makeProgram()).Ok)
    std::abort();
  service::SessionSpec Spec;
  Spec.Program = "p";
  Spec.Client = "escape";
  std::string Err;
  service::Session S = Svc.openSession(Spec, Err);
  if (!S.valid())
    std::abort();
  std::vector<std::future<service::QueryResult>> Futures;
  for (uint32_t C = 0; C < NumProcs; ++C)
    Futures.push_back(S.submit({C, 0, 0}));
  Svc.drain();
  Futures.front().wait();
  P.FirstVerdictSeconds = T.seconds();
  for (auto &F : Futures)
    P.Results.push_back(F.get());
  P.ForwardRuns = Svc.stats().ForwardRuns;
  P.VerdictsReplayed = Svc.stats().VerdictsReplayed;

  if (Persist) {
    service::CacheOpResult R = Svc.cacheOp("persist");
    if (!R.Ok) {
      std::cerr << "FAIL: persist refused: " << R.Error << "\n";
      std::abort();
    }
  }
  return P;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string OutPath = "BENCH_warm.json";
  if (std::optional<int> Exit = bench::parseOutputPath(
          Argc, Argv, "bench_warm_restart [OUTPUT_JSON]", OutPath))
    return *Exit;
  std::string CacheDir = "/tmp/optabs-bench-warm-" +
                         std::to_string(static_cast<long>(::getpid()));
  ::mkdir(CacheDir.c_str(), 0700);

  Pass Cold = runLife(CacheDir, /*Persist=*/true);
  Pass Warm = runLife(CacheDir, /*Persist=*/false);

  std::string Cleanup = "rm -rf '" + CacheDir + "'";
  if (::system(Cleanup.c_str()) != 0)
    std::cerr << "warning: could not remove " << CacheDir << "\n";

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
                << " diverged between the cold and warm lifetimes\n";
  }

  double Speedup = Warm.FirstVerdictSeconds > 0
                       ? Cold.FirstVerdictSeconds / Warm.FirstVerdictSeconds
                       : 0;
  std::ofstream Out(OutPath);
  Out << "{\n"
      << "  \"benchmark\": \"warm_restart\",\n"
      << "  \"procs\": " << NumProcs << ",\n"
      << "  \"checks\": " << NumProcs << ",\n"
      << "  \"cold_first_verdict_seconds\": " << Cold.FirstVerdictSeconds
      << ",\n"
      << "  \"warm_first_verdict_seconds\": " << Warm.FirstVerdictSeconds
      << ",\n"
      << "  \"speedup\": " << Speedup << ",\n"
      << "  \"cold_forward_runs\": " << Cold.ForwardRuns << ",\n"
      << "  \"warm_forward_runs\": " << Warm.ForwardRuns << ",\n"
      << "  \"verdicts_replayed\": " << Warm.VerdictsReplayed << "\n"
      << "}\n";

  std::cout << "warm restart: cold " << Cold.FirstVerdictSeconds << "s ("
            << Cold.ForwardRuns << " forward runs), warm "
            << Warm.FirstVerdictSeconds << "s (" << Warm.ForwardRuns
            << " forward runs, " << Warm.VerdictsReplayed
            << " verdicts replayed), speedup " << Speedup << "x\n";

  if (!Identical)
    return 1;
  // The warm lifetime must answer from the snapshot alone - a single
  // recomputed fixpoint means the load path silently dropped artifacts.
  if (Warm.ForwardRuns != 0) {
    std::cerr << "FAIL: warm lifetime recomputed " << Warm.ForwardRuns
              << " forward runs - the snapshot did not fully warm the "
                 "caches\n";
    return 1;
  }
  if (Speedup < 3.0) {
    std::cerr << "FAIL: warm-restart speedup " << Speedup
              << "x is below the 3x gate\n";
    if (!std::getenv("OPTABS_PERF_ADVISORY"))
      return 1;
    std::cerr << "OPTABS_PERF_ADVISORY set - reporting only\n";
  }
  return 0;
}
