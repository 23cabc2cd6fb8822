//===- bench_ablation_multitrace.cpp - §8's DAG-counterexample direction ------===//
//
// §8 of the paper proposes generalizing the meta-analysis from single
// abstract counterexample traces to DAG counterexamples. This ablation
// evaluates a trace-level approximation of that idea: analyze the traces
// of several distinct failing states per CEGAR iteration and conjoin all
// the learned unviability conditions. Shape expectation: more traces per
// iteration reduce the number of forward runs (the dominant cost) at the
// price of extra backward passes; the benefit concentrates on queries
// whose failures have several independent causes (confusers).
//
//===----------------------------------------------------------------------===//

#include "escape/Escape.h"
#include "reporting/Harness.h"
#include "support/Stats.h"
#include "support/TablePrinter.h"

#include <iostream>

using namespace optabs;
using tracer::Verdict;

int main() {
  TablePrinter T;
  T.setHeader({"benchmark", "traces/iter", "fwd runs", "bwd runs",
               "avg iters (proven)", "unresolved", "time"});
  const auto &Suite = synth::paperSuite();
  for (size_t I = 2; I < 6; ++I) { // hedc .. avrora
    synth::Benchmark B = synth::generate(Suite[I]);
    escape::EscapeAnalysis A(B.P);
    for (unsigned M : {1u, 2u, 4u}) {
      Config Options;
      Options.Execution.MaxItersPerQuery = 24;
      Options.Execution.TracesPerIteration = M;
      tracer::QueryDriver<escape::EscapeAnalysis> Driver(B.P, A, Options);
      auto Outcomes = Driver.run(B.EscChecks);
      MinMaxAvg ProvenIters;
      unsigned Unresolved = 0;
      for (const auto &O : Outcomes) {
        if (O.V == Verdict::Proven)
          ProvenIters.add(O.Iterations);
        Unresolved += O.V == Verdict::Unresolved;
      }
      T.addRow({Suite[I].Name, TablePrinter::cell((long long)M),
                TablePrinter::cell((long long)Driver.stats().ForwardRuns),
                TablePrinter::cell((long long)Driver.stats().BackwardRuns),
                TablePrinter::cell(ProvenIters.avg(), 1),
                TablePrinter::cell((long long)Unresolved),
                TablePrinter::cell(Driver.totalSeconds(), 2) + "s"});
    }
    T.addRule();
  }
  T.print(std::cout, "Ablation C: counterexample traces analyzed per "
                     "iteration (thread-escape)");
  return 0;
}
