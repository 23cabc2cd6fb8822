//===- bench_ablation_grouping.cpp - Ablation of the §6 grouping -------------===//
//
// §6 of the paper: the implementation maintains groups of unresolved
// queries with identical sets of unviable abstractions so that one forward
// run serves the whole group. This ablation compares grouping on/off on
// the thread-escape client. Shape expectation: grouping never increases
// and typically reduces the number of forward runs (the dominant cost),
// hence the total time.
//
//===----------------------------------------------------------------------===//

#include "escape/Escape.h"
#include "reporting/Harness.h"
#include "support/TablePrinter.h"

#include <iostream>

using namespace optabs;

int main() {
  TablePrinter T;
  T.setHeader({"benchmark", "grouping", "time", "forward runs",
               "backward runs", "solver calls"});
  const auto &Suite = synth::paperSuite();
  for (size_t I = 0; I < 4; ++I) {
    for (bool Grouping : {true, false}) {
      synth::Benchmark B = synth::generate(Suite[I]);
      escape::EscapeAnalysis A(B.P);
      Config Options;
      Options.Execution.MaxItersPerQuery = 24;
      Options.Execution.GroupQueries = Grouping;
      tracer::QueryDriver<escape::EscapeAnalysis> Driver(B.P, A, Options);
      Driver.run(B.EscChecks);
      T.addRow({Suite[I].Name, Grouping ? "on" : "off",
                TablePrinter::cell(Driver.totalSeconds(), 2) + "s",
                TablePrinter::cell((long long)Driver.stats().ForwardRuns),
                TablePrinter::cell((long long)Driver.stats().BackwardRuns),
                TablePrinter::cell((long long)Driver.stats().SolverCalls)});
    }
    T.addRule();
  }
  T.print(std::cout, "Ablation B: query grouping on/off (thread-escape)");
  return 0;
}
