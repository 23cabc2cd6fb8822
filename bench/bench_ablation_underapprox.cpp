//===- bench_ablation_underapprox.cpp - Ablation of §6's key claim ------------===//
//
// §6 of the paper: "We found that underapproximation is crucial to the
// scalability of our backward meta-analysis: disabling it caused our
// technique to timeout for all queries even on our smallest benchmark."
// This ablation runs the thread-escape analysis on the two smallest
// benchmarks with the beam search disabled (k = 0, exact backward
// formulas) against the paper's operating point (k = 5), under a fixed
// wall-clock budget, and reports resolution counts, time, and the largest
// backward formula tracked. Shape expectation: k = 0 tracks formulas that
// are orders of magnitude larger and resolves (far) fewer queries per
// second; at the paper's scale it times out outright.
//
//===----------------------------------------------------------------------===//

#include "escape/Escape.h"
#include "reporting/Harness.h"
#include "support/TablePrinter.h"

#include <iostream>

using namespace optabs;
using tracer::Verdict;

int main() {
  TablePrinter T;
  T.setHeader({"benchmark", "k", "time", "resolved", "unresolved",
               "max formula (cubes)"});
  const auto &Suite = synth::paperSuite();
  for (size_t I = 0; I < 2; ++I) { // tsp, elevator
    for (unsigned K : {5u, 0u}) {
      synth::Benchmark B = synth::generate(Suite[I]);
      escape::EscapeAnalysis A(B.P);
      Config Options;
      Options.Execution.K = K;
      Options.Execution.MaxItersPerQuery = 24;
      Options.Budgets.TimeBudgetSeconds = 30;
      // Exact mode: no soft caps.
      Options.Execution.ProductSoftCap = K == 0 ? 0 : 4096;
      Options.Budgets.BackwardTimeoutSeconds = 5;
      tracer::QueryDriver<escape::EscapeAnalysis> Driver(B.P, A, Options);
      auto Outcomes = Driver.run(B.EscChecks);
      unsigned Resolved = 0, Unresolved = 0;
      for (const auto &O : Outcomes)
        (O.V == Verdict::Unresolved ? Unresolved : Resolved) += 1;
      T.addRow({Suite[I].Name, K ? std::to_string(K) : std::string("off (exact)"),
                TablePrinter::cell(Driver.totalSeconds(), 2) + "s",
                TablePrinter::cell((long long)Resolved),
                TablePrinter::cell((long long)Unresolved),
                TablePrinter::cell(
                    (long long)Driver.stats().MaxFormulaCubes)});
    }
    T.addRule();
  }
  T.print(std::cout,
          "Ablation A: under-approximation on/off (thread-escape, 30s "
          "budget per configuration)");
  return 0;
}
