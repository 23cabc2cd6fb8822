//===- bench_parallel_scaling.cpp - Driver speedup vs worker count ------------===//
//
// Measures how the parallel TRACER driver scales on the Table-2
// scalability workload: the full paper suite, both clients, at 1/2/4/8
// worker threads. Reports wall-clock per thread count, speedup over the
// sequential driver, and the forward-run cache hit rate (hits over
// lookups). Because the driver merges deterministically, every row
// resolves the same queries to the same verdicts - only the wall clock
// changes; the bench asserts that.
//
// Usage: bench_parallel_scaling [out.csv]
// With an argument, additionally writes one aggregate summary row per
// (benchmark, client, thread count) through the shared CSV path.
//
//===----------------------------------------------------------------------===//

#include "BenchArgs.h"
#include "reporting/Csv.h"
#include "reporting/Harness.h"
#include "support/TablePrinter.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

using namespace optabs;
using reporting::BenchRun;
using reporting::ClientResults;

namespace {

struct Row {
  unsigned Threads = 0;
  double Seconds = 0;
  unsigned Proven = 0, Impossible = 0, Unresolved = 0;
  uint64_t Hits = 0, Misses = 0;
  tracer::PhaseSeconds Phases;
};

void accumulate(Row &R, const ClientResults &C) {
  R.Seconds += C.TotalSeconds;
  R.Proven += C.count(tracer::Verdict::Proven);
  R.Impossible += C.count(tracer::Verdict::Impossible);
  R.Unresolved += C.count(tracer::Verdict::Unresolved);
  R.Hits += C.CacheHits;
  R.Misses += C.CacheMisses;
  R.Phases += C.Phases;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string OutPath;
  if (std::optional<int> Exit = bench::parseOutputPath(
          Argc, Argv, "bench_parallel_scaling [out.csv]", OutPath))
    return *Exit;
  std::ofstream Csv;
  if (!OutPath.empty()) {
    Csv.open(OutPath);
    if (!Csv) {
      std::cerr << "cannot open " << OutPath << "\n";
      return 1;
    }
    reporting::writeCsvSummaryHeader(Csv);
  }

  // On a single-hardware-thread container the pool worker counts are pure
  // oversubscription: "speedup" would measure scheduler noise, not
  // scaling. Annotate the CSV rows so downstream plots can filter, and
  // skip the speedup sanity check below.
  const unsigned HW = support::ThreadPool::hardwareWorkers();

  const std::vector<synth::BenchConfig> &Suite = synth::paperSuite();
  std::vector<Row> Rows;
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    reporting::HarnessOptions Options;
    Options.Cfg.Execution.NumThreads = Threads;
    Row R;
    R.Threads = Threads;
    for (const synth::BenchConfig &Config : Suite) {
      BenchRun Run = reporting::runBenchmark(Config, Options);
      accumulate(R, Run.Ts);
      accumulate(R, Run.Esc);
      if (Csv.is_open()) {
        std::string Label = "threads=" + std::to_string(Threads) +
                            " hw=" + std::to_string(HW);
        reporting::writeCsvSummaryRow(Csv, Config.Name, "typestate", Label,
                                      Run.Ts);
        reporting::writeCsvSummaryRow(Csv, Config.Name, "thread-escape",
                                      Label, Run.Esc);
      }
    }
    Rows.push_back(R);
  }

  // Determinism cross-check: verdict mixes must be identical at every
  // worker count.
  bool Deterministic = true;
  for (const Row &R : Rows)
    Deterministic = Deterministic && R.Proven == Rows[0].Proven &&
                    R.Impossible == Rows[0].Impossible &&
                    R.Unresolved == Rows[0].Unresolved &&
                    R.Hits == Rows[0].Hits && R.Misses == Rows[0].Misses;

  TablePrinter T;
  T.setHeader({"threads", "wall", "speedup", "proven", "imposs.", "unres.",
               "cache hit rate"});
  for (const Row &R : Rows) {
    double Speedup = R.Seconds > 0 ? Rows[0].Seconds / R.Seconds : 0;
    double Lookups = static_cast<double>(R.Hits + R.Misses);
    T.addRow({TablePrinter::cell((long long)R.Threads),
              formatDuration(R.Seconds),
              TablePrinter::cell(Speedup, 2) + "x",
              TablePrinter::cell((long long)R.Proven),
              TablePrinter::cell((long long)R.Impossible),
              TablePrinter::cell((long long)R.Unresolved),
              Lookups > 0 ? TablePrinter::percent(R.Hits / Lookups, 1)
                          : "-"});
  }
  T.print(std::cout,
          "Parallel scaling: full suite, both clients, per worker count");

  // Where the wall clock goes: the driver's per-stage timers, summed over
  // both clients. The parallel stages (forward, classify, backward) should
  // shrink with real hardware threads; plan and merge are sequential.
  TablePrinter Phases;
  Phases.setHeader({"threads", "plan", "forward", "classify", "extract",
                    "backward", "merge"});
  for (const Row &R : Rows)
    Phases.addRow({TablePrinter::cell((long long)R.Threads),
                   formatDuration(R.Phases.Plan),
                   formatDuration(R.Phases.Forward),
                   formatDuration(R.Phases.Classify),
                   formatDuration(R.Phases.Extract),
                   formatDuration(R.Phases.Backward),
                   formatDuration(R.Phases.Merge)});
  Phases.print(std::cout, "Per-phase wall clock (tracer strategy rounds)");

  std::cout << "hardware threads: " << HW
            << " (speedup is bounded by this)\n";
  std::cout << (Deterministic
                    ? "verdicts and cache counters identical at every "
                      "worker count\n"
                    : "DETERMINISM VIOLATION: results differ across worker "
                      "counts\n");

  // Speedup sanity: with real hardware parallelism, the parallel driver
  // must not be catastrophically slower than sequential. Skipped on one
  // hardware thread, where every multi-worker row is oversubscribed and
  // the ratio is meaningless.
  bool SpeedupOk = true;
  if (HW > 1) {
    double Best = 0;
    for (const Row &R : Rows)
      if (R.Seconds > 0)
        Best = std::max(Best, Rows[0].Seconds / R.Seconds);
    SpeedupOk = Best >= 0.5;
    if (!SpeedupOk)
      std::cout << "SPEEDUP REGRESSION: best parallel speedup " << Best
                << "x is below the 0.5x sanity floor\n";
  } else {
    std::cout << "single hardware thread: speedup column reflects "
              << "oversubscription noise; sanity check skipped\n";
  }
  return (Deterministic && SpeedupOk) ? 0 : 1;
}
