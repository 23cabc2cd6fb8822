//===- BenchArgs.h - Command line of the result-file benches ---*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command line of a bench binary that writes one result file: an
/// optional output path and `--help`, parsed by support::ArgParser, so a
/// flag is never taken for the path and an unknown one is refused.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_BENCH_BENCHARGS_H
#define OPTABS_BENCH_BENCHARGS_H

#include "support/Args.h"

#include <iostream>
#include <optional>
#include <string>
#include <vector>

namespace optabs {
namespace bench {

/// Parses `[OUT]` against \p Synopsis ("bench_x [OUT.json]"), setting
/// \p OutPath when a path is given. Returns the code to exit with when the
/// bench must not run: 0 after printing help, 2 after printing a usage
/// error (an unknown flag or a second path).
inline std::optional<int> parseOutputPath(int Argc, char **Argv,
                                          const char *Synopsis,
                                          std::string &OutPath) {
  support::ArgParser Args(Synopsis);
  std::vector<std::string> Paths;
  Args.positional(&Paths);
  std::string Err;
  if (Args.parse(Argc, Argv, Err) && Args.helpRequested()) {
    std::cout << Args.help();
    return 0;
  }
  if (Err.empty() && Paths.size() > 1)
    Err.append("unexpected argument '").append(Paths[1]).append("'");
  if (!Err.empty()) {
    std::cerr << "error: " << Err << "\n" << Args.usage();
    return 2;
  }
  if (!Paths.empty())
    OutPath = Paths[0];
  return std::nullopt;
}

} // namespace bench
} // namespace optabs

#endif // OPTABS_BENCH_BENCHARGS_H
