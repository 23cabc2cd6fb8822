//===- bench_fig13_k_sensitivity.cpp - Reproduces Figure 13 -------------------===//
//
// Figure 13 of the paper shows the effect of the beam width k in {1,5,10}
// on the running time of the thread-escape analysis over the four smallest
// benchmarks (the larger ones exhaust memory at k = 1 and k = 10). Shape
// expectations: k = 1 does cheap backward passes but needs many more
// CEGAR iterations; k = 10 needs few iterations but each backward pass
// tracks large formulas; k = 5 is the sweet spot with the fewest
// unresolved queries and the best overall time.
//
//===----------------------------------------------------------------------===//

#include "reporting/Harness.h"
#include "support/TablePrinter.h"

#include <iostream>

using namespace optabs;
using tracer::Verdict;

int main() {
  TablePrinter T;
  T.setHeader({"benchmark", "k", "time", "fwd runs", "proven", "impossible",
               "unresolved"});
  std::vector<std::pair<std::string, double>> Chart;
  for (const auto &Config : synth::smallSuite()) {
    for (unsigned K : {1u, 5u, 10u}) {
      reporting::HarnessOptions Options;
      Options.Client = "escape";
      Options.Cfg.Execution.K = K;
      reporting::BenchRun Run = reporting::runBenchmark(Config, Options);
      T.addRow({Config.Name, TablePrinter::cell((long long)K),
                TablePrinter::cell(Run.Esc.TotalSeconds, 2) + "s",
                TablePrinter::cell((long long)Run.Esc.ForwardRuns),
                TablePrinter::cell((long long)Run.Esc.count(Verdict::Proven)),
                TablePrinter::cell(
                    (long long)Run.Esc.count(Verdict::Impossible)),
                TablePrinter::cell(
                    (long long)Run.Esc.count(Verdict::Unresolved))});
      Chart.push_back({Config.Name + " k=" + std::to_string(K),
                       Run.Esc.TotalSeconds});
    }
    T.addRule();
  }
  T.print(std::cout, "Figure 13: effect of k on the thread-escape analysis "
                     "(four smallest benchmarks)");
  std::cout << '\n';
  printBarChart(std::cout, "Running time (seconds):", Chart);
  return 0;
}
