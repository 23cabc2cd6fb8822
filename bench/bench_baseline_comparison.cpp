//===- bench_baseline_comparison.cpp - TRACER vs. Related-Work baselines ------===//
//
// The paper's Related Work positions TRACER against (a) CEGAR that learns
// nothing beyond the current abstraction's failure and (b) refinement
// analyses that monotonically grow the abstraction wherever blame falls
// ("a drawback ... is that they can refine much more than necessary") and
// that can never declare impossibility. This bench runs all three
// strategies on the thread-escape client. Shape expectations: the
// eliminate-current baseline exhausts its iteration budget on almost
// everything (the family is 2^N); greedy-grow proves quickly but reports
// no impossibilities and finds more expensive abstractions; TRACER
// resolves everything cheaply and minimally.
//
//===----------------------------------------------------------------------===//

#include "escape/Escape.h"
#include "reporting/Harness.h"
#include "support/Stats.h"
#include "support/TablePrinter.h"

#include <iostream>

using namespace optabs;
using tracer::SearchStrategy;
using tracer::Verdict;

int main() {
  TablePrinter T;
  T.setHeader({"benchmark", "strategy", "proven", "impossible", "unresolved",
               "avg iters", "avg |p| (proven)", "time"});
  const auto &Suite = synth::paperSuite();
  for (size_t I = 0; I < 4; ++I) {
    synth::Benchmark B = synth::generate(Suite[I]);
    escape::EscapeAnalysis A(B.P);
    for (SearchStrategy S :
         {SearchStrategy::Tracer, SearchStrategy::GreedyGrow,
          SearchStrategy::EliminateCurrent}) {
      Config Options;
      Options.Execution.Strategy = tracer::strategyName(S);
      Options.Execution.MaxItersPerQuery = 24;
      Options.Budgets.TimeBudgetSeconds = 60;
      tracer::QueryDriver<escape::EscapeAnalysis> Driver(B.P, A, Options);
      auto Outcomes = Driver.run(B.EscChecks);
      unsigned Proven = 0, Impossible = 0, Unresolved = 0;
      MinMaxAvg Iters, Cost;
      for (const auto &O : Outcomes) {
        Iters.add(O.Iterations);
        switch (O.V) {
        case Verdict::Proven:
          ++Proven;
          Cost.add(O.CheapestCost);
          break;
        case Verdict::Impossible:
          ++Impossible;
          break;
        case Verdict::Unresolved:
          ++Unresolved;
          break;
        }
      }
      T.addRow({Suite[I].Name, tracer::strategyName(S),
                TablePrinter::cell((long long)Proven),
                TablePrinter::cell((long long)Impossible),
                TablePrinter::cell((long long)Unresolved),
                TablePrinter::cell(Iters.avg(), 1),
                Cost.empty() ? "-" : TablePrinter::cell(Cost.avg(), 2),
                TablePrinter::cell(Driver.totalSeconds(), 2) + "s"});
    }
    T.addRule();
  }
  T.print(std::cout,
          "Baseline comparison: TRACER vs eliminate-current CEGAR vs "
          "greedy monotone refinement (thread-escape)");
  std::cout << "\nNote: greedy-grow's |p| is the abstraction it happens to "
               "find, not a minimum; it\ncannot distinguish impossible "
               "queries from hard ones.\n";
  return 0;
}
