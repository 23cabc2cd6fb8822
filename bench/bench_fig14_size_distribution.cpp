//===- bench_fig14_size_distribution.cpp - Reproduces Figure 14 ---------------===//
//
// Figure 14 of the paper shows, for the three largest benchmarks, the
// distribution of cheapest-abstraction sizes of proven thread-escape
// queries. Shape expectations: heavily concentrated on 1-2 L-sites, with
// a long sparse tail of queries that genuinely need many sites.
//
//===----------------------------------------------------------------------===//

#include "reporting/Aggregates.h"
#include "reporting/Harness.h"
#include "support/TablePrinter.h"

#include <iostream>

using namespace optabs;

int main() {
  const auto &Suite = synth::paperSuite();
  // The paper's largest three: antlr, avrora, lusearch.
  for (size_t I = 4; I < Suite.size(); ++I) {
    reporting::HarnessOptions Options;
    Options.Client = "escape";
    reporting::BenchRun Run = reporting::runBenchmark(Suite[I], Options);
    Histogram H = reporting::cheapestSizeHistogram(Run.Esc);
    std::vector<std::pair<std::string, double>> Entries;
    for (const auto &[Size, Count] : H.buckets())
      Entries.push_back({"|p| = " + std::to_string(Size),
                         static_cast<double>(Count)});
    std::cout << "Figure 14 (" << Suite[I].Name
              << "): distribution of cheapest-abstraction sizes over "
              << H.total() << " proven thread-escape queries\n";
    printBarChart(std::cout, "", Entries);
    std::cout << '\n';
  }
  return 0;
}
