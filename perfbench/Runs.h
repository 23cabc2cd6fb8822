//===- Runs.h - The untraced end-to-end run and the traced ledger run -*- C++ -*-===//

#ifndef OPTABS_PERFBENCH_RUNS_H
#define OPTABS_PERFBENCH_RUNS_H

#include "Client.h"
#include "Verify.h"
#include "Workloads.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = DefaultSeed;
  double Seconds = 10;
  bool Trace = false;
  std::string ToolsDir;  ///< holds optabs-shardd and optabs-serve
  std::string Reference; ///< reference answer file (may be absent)
  std::string RunDir;    ///< scratch directory, created and removed
  std::string RecordReference; ///< write reference answers here instead
  std::string LedgerPath;      ///< traced run: ledger JSON output
};

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
};

/// What one invocation prints as its last line.
struct RunOutput {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
};

/// Servers, sockets and scratch files of one invocation. All paths are
/// relative to the run directory, the process's working directory while
/// it runs (unix socket paths must stay short).
class Environment {
public:
  explicit Environment(const Options &O) : O(O) {}

  /// optabs-shardd --shards=N --worker-threads=1, listening on a fresh
  /// socket, connected through \p Ex. \p WorkerArgs go to every worker.
  bool startShardd(ServerProcess &Server, SocketExecutor &Ex, unsigned Shards,
                   const std::string &CacheDir, const std::string &WorkerArgs,
                   std::string &Err);
  /// optabs-serve --listen=unix:... --threads=1 plus \p ExtraArgs.
  bool startServe(ServerProcess &Server, SocketExecutor &Ex,
                  const std::vector<std::string> &ExtraArgs, std::string &Err);

private:
  std::string freshSocket();

  const Options &O;
  unsigned Sockets = 0;
};

struct JobTally {
  uint64_t TimedFailed = 0;   ///< not done, or a wrong verdict
  uint64_t UntimedFailed = 0;
  uint64_t TimedResolved = 0; ///< proven or impossible
};

/// Verifies every job record against the independent checks. Jobs that
/// did not end "done" are printed to stdout.
JobTally verifyJobs(const ScriptRun &Run, const Workload &W, Verifier &V);

/// Reports a job's verdict key for the reference file.
void recordReference(const ScriptRun &Run, const Workload &W,
                     ReferenceAnswers &Ref);

/// The untraced run: every end_to_end metric of BENCHMARK.json.
bool runEndToEnd(const Options &O, RunOutput &Out, std::string &Err);

/// The traced run: replays the workload's script on the rung ladder and
/// reports every per_layer metric; writes the ledger JSON.
bool runTraced(const Options &O, RunOutput &Out, std::string &Err);

/// Runs one traced-script replay in process, checks it, and writes its
/// answers (merged into --reference's) to O.RecordReference.
bool recordReferenceRun(const Options &O, std::string &Err);

/// Loads the reference answers when the file exists.
std::unique_ptr<ReferenceAnswers> loadReference(const Options &O,
                                                std::string &Err);

/// The minimality-enumeration budget: cheaper abstractions times program
/// commands (Verifier).
inline constexpr uint64_t MaxEnumerationWork = 250000;

} // namespace perfbench

#endif // OPTABS_PERFBENCH_RUNS_H
