//===- bench_suite_summary.cpp - Canonical machine-readable suite summary -----===//
//
// Runs the full paper suite through both clients at one worker thread and
// at the hardware worker count, and emits one canonical BENCH_suite.json:
// end-to-end wall clock, the driver's per-phase seconds, the forward-run
// cache hit rate, and the verdict mix per thread count. CI uploads the
// file as an artifact and the perf-smoke job diffs the phase columns
// against the checked-in baseline (bench/BENCH_baseline.json).
//
// Verdict counts must be identical across thread counts (the driver is
// deterministic); the bench exits nonzero if they diverge, so the summary
// doubles as a determinism check.
//
// Usage: bench_suite_summary [out.json]   (stdout when no argument)
//
//===----------------------------------------------------------------------===//

#include "BenchArgs.h"
#include "reporting/Harness.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace optabs;

namespace {

struct SuiteRun {
  unsigned Threads = 0;
  double WallSeconds = 0;
  tracer::PhaseSeconds Phases;
  uint64_t CacheHits = 0, CacheMisses = 0;
  unsigned Proven = 0, Impossible = 0, Unresolved = 0;
};

SuiteRun runSuite(unsigned Threads) {
  SuiteRun R;
  R.Threads = Threads;
  reporting::HarnessOptions Options;
  Options.Cfg.Execution.NumThreads = Threads;
  Timer Wall;
  for (const synth::BenchConfig &Config : synth::paperSuite()) {
    reporting::BenchRun Run = reporting::runBenchmark(Config, Options);
    for (const reporting::ClientResults *C : {&Run.Ts, &Run.Esc}) {
      R.Phases += C->Phases;
      R.CacheHits += C->CacheHits;
      R.CacheMisses += C->CacheMisses;
      R.Proven += C->count(tracer::Verdict::Proven);
      R.Impossible += C->count(tracer::Verdict::Impossible);
      R.Unresolved += C->count(tracer::Verdict::Unresolved);
    }
  }
  R.WallSeconds = Wall.seconds();
  return R;
}

std::string num(double V) {
  std::ostringstream S;
  S.precision(6);
  S << std::fixed << V;
  return S.str();
}

void writeRun(std::ostream &OS, const SuiteRun &R, bool Last) {
  double Lookups = static_cast<double>(R.CacheHits + R.CacheMisses);
  OS << "    {\n"
     << "      \"threads\": " << R.Threads << ",\n"
     << "      \"wall_seconds\": " << num(R.WallSeconds) << ",\n"
     << "      \"phase_seconds\": {\n"
     << "        \"plan\": " << num(R.Phases.Plan) << ",\n"
     << "        \"forward\": " << num(R.Phases.Forward) << ",\n"
     << "        \"classify\": " << num(R.Phases.Classify) << ",\n"
     << "        \"extract\": " << num(R.Phases.Extract) << ",\n"
     << "        \"backward\": " << num(R.Phases.Backward) << ",\n"
     << "        \"merge\": " << num(R.Phases.Merge) << "\n"
     << "      },\n"
     << "      \"cache\": {\n"
     << "        \"hits\": " << R.CacheHits << ",\n"
     << "        \"misses\": " << R.CacheMisses << ",\n"
     << "        \"hit_rate\": "
     << num(Lookups > 0 ? R.CacheHits / Lookups : 0) << "\n"
     << "      },\n"
     << "      \"verdicts\": {\n"
     << "        \"proven\": " << R.Proven << ",\n"
     << "        \"impossible\": " << R.Impossible << ",\n"
     << "        \"unresolved\": " << R.Unresolved << "\n"
     << "      }\n"
     << "    }" << (Last ? "\n" : ",\n");
}

} // namespace

int main(int Argc, char **Argv) {
  std::string OutPath;
  if (std::optional<int> Exit = bench::parseOutputPath(
          Argc, Argv, "bench_suite_summary [out.json]", OutPath))
    return *Exit;
  const unsigned MaxThreads = std::max(1u, support::ThreadPool::hardwareWorkers());
  std::vector<SuiteRun> Runs;
  Runs.push_back(runSuite(1));
  if (MaxThreads > 1)
    Runs.push_back(runSuite(MaxThreads));

  for (const SuiteRun &R : Runs)
    if (R.Proven != Runs[0].Proven || R.Impossible != Runs[0].Impossible ||
        R.Unresolved != Runs[0].Unresolved) {
      std::cerr << "verdict mix diverges at " << R.Threads
                << " threads - driver determinism broken\n";
      return 1;
    }

  std::ofstream File;
  if (!OutPath.empty()) {
    File.open(OutPath);
    if (!File) {
      std::cerr << "cannot open " << OutPath << "\n";
      return 1;
    }
  }
  std::ostream &OS = OutPath.empty() ? std::cout : File;

  OS << "{\n"
     << "  \"suite\": \"paperSuite\",\n"
     << "  \"benchmarks\": " << synth::paperSuite().size() << ",\n"
     << "  \"hardware_workers\": " << MaxThreads << ",\n"
     << "  \"runs\": [\n";
  for (size_t I = 0; I < Runs.size(); ++I)
    writeRun(OS, Runs[I], I + 1 == Runs.size());
  OS << "  ]\n}\n";
  return 0;
}
