//===- main.cpp - perfbench: the serving-path benchmark ------------------===//
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             --tools-dir=DIR [--reference=FILE] --run-dir=DIR
//             [--ledger=FILE] [--record-reference=FILE]
//
// --trace=0 prints every end-to-end metric, --trace=1 every per-layer
// metric (and writes the ledger JSON to --ledger). The last line of
// stdout is one JSON object: correct, attempted, failed, metrics.
// --record-reference runs one cycle of the workload in process, checks it,
// and writes its answers as a reference answer file.
//
//===----------------------------------------------------------------------===//

#include "Runs.h"

#include "support/Args.h"

#include <cstdio>
#include <ftw.h>
#include <iostream>
#include <limits.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace perfbench;

namespace {

std::string absolute(const std::string &Path) {
  if (Path.empty() || Path[0] == '/')
    return Path;
  char Buf[PATH_MAX];
  if (!::getcwd(Buf, sizeof(Buf)))
    return Path;
  return std::string(Buf) + "/" + Path;
}

bool makeDirs(const std::string &Path) {
  for (size_t I = 1; I <= Path.size(); ++I)
    if (I == Path.size() || Path[I] == '/') {
      std::string Prefix = Path.substr(0, I);
      if (::mkdir(Prefix.c_str(), 0755) != 0 && errno != EEXIST)
        return false;
    }
  return true;
}

void removeTree(const std::string &Path) {
  ::nftw(
      Path.c_str(),
      [](const char *P, const struct stat *, int, struct FTW *) {
        return ::remove(P);
      },
      16, FTW_DEPTH | FTW_PHYS);
}

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void printResult(const RunOutput &Out) {
  std::string S = std::string("{\"correct\": ") +
                  (Out.Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(Out.Attempted) +
                  ", \"failed\": " + std::to_string(Out.Failed) +
                  ", \"metrics\": {";
  for (size_t I = 0; I < Out.Metrics.size(); ++I) {
    const Metric &M = Out.Metrics[I];
    S += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " +
         jsonNumber(M.Value) + ", \"unit\": \"" + M.Unit + "\"}";
  }
  S += "}}";
  std::cout << S << std::endl;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  uint64_t Trace = 0;
  std::string Ledger;
  optabs::support::ArgParser Parser;
  Parser.option("--workload", &O.Workload, "suite-cold|tenants-hot|edit-requery");
  Parser.option("--seed", &O.Seed, "workload seed");
  Parser.option("--seconds", &O.Seconds, "timed-phase length");
  Parser.option("--trace", &Trace, "0: end-to-end metrics, 1: per-layer");
  Parser.option("--tools-dir", &O.ToolsDir, "directory of optabs-shardd");
  Parser.option("--reference", &O.Reference, "reference answer file");
  Parser.option("--run-dir", &O.RunDir, "scratch directory");
  Parser.option("--ledger", &Ledger, "ledger JSON output (--trace=1)");
  Parser.option("--record-reference", &O.RecordReference,
                "write the reference answers of one cycle here");
  std::string Err;
  if (!Parser.parse(Argc, Argv, Err) || O.ToolsDir.empty() ||
      O.RunDir.empty() || O.Seconds <= 0) {
    std::cerr << "error: " << (Err.empty() ? "missing arguments" : Err)
              << "\nusage: perfbench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 --tools-dir=DIR --run-dir=DIR "
                 "[--reference=FILE] [--ledger=FILE] "
                 "[--record-reference=FILE]\n";
    return 2;
  }
  O.Trace = Trace != 0;
  O.ToolsDir = absolute(O.ToolsDir);
  O.Reference = absolute(O.Reference);
  O.RecordReference = absolute(O.RecordReference);
  O.LedgerPath = absolute(Ledger);
  O.RunDir = absolute(O.RunDir);
  // Created here and removed at exit, so it must not exist yet: the
  // benchmark never deletes anything it did not create.
  if (!makeDirs(O.RunDir.substr(0, O.RunDir.rfind('/'))) ||
      ::mkdir(O.RunDir.c_str(), 0755) != 0 || ::chdir(O.RunDir.c_str()) != 0) {
    std::cerr << "error: cannot create run directory " << O.RunDir
              << " (it must not exist yet)\n";
    return 1;
  }

  RunOutput Out;
  bool Ok = !O.RecordReference.empty() ? recordReferenceRun(O, Err)
            : O.Trace                  ? runTraced(O, Out, Err)
                                       : runEndToEnd(O, Out, Err);
  if (::chdir((O.RunDir + "/..").c_str()) == 0)
    removeTree(O.RunDir);
  if (!Ok) {
    std::cerr << "error: " << Err << "\n";
    return 1;
  }
  if (O.RecordReference.empty())
    printResult(Out);
  return 0;
}
