//===- optabs_shardd.cpp - Multi-process shard supervisor -----------------===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `optabs-shardd`: speaks the same versioned JSONL protocol as
/// `optabs-serve`, but fans the work out over N worker processes (each an
/// `optabs-serve --listen=unix:...`), restarting dead or hung ones and
/// requeueing their jobs. All supervision logic lives in
/// service/ShardRouter.{h,cpp}; this file is flag parsing plus the IO
/// loop. See DESIGN.md §13 for the topology and failure model.
///
///   optabs-shardd --shards=4 --worker-threads=2 < session.jsonl
///   optabs-shardd --shards=4 --listen=unix:/run/optabs.sock
///
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"
#include "service/ShardRouter.h"
#include "service/Transport.h"
#include "support/Args.h"

#include <iostream>
#include <string>
#include <unistd.h>
#include <vector>

using namespace optabs;

namespace {

/// The directory this binary lives in, so the default worker path is the
/// sibling optabs-serve regardless of the caller's cwd.
std::string selfDirectory() {
  char Buf[4096];
  ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N <= 0)
    return ".";
  Buf[N] = '\0';
  std::string Path(Buf);
  size_t Slash = Path.rfind('/');
  return Slash == std::string::npos ? "." : Path.substr(0, Slash);
}

} // namespace

int main(int Argc, char **Argv) {
  service::ShardRouterOptions RO;
  service::ProcessShardHost::Options HO;
  uint64_t Shards = 2;
  uint64_t WorkerThreads = 1;
  uint64_t RequestTimeoutMs = 120000;
  uint64_t Retries = RO.MaxRequestRetries;
  uint64_t BackoffInitialMs = RO.BackoffInitialMs;
  uint64_t BackoffMaxMs = RO.BackoffMaxMs;
  uint64_t BackoffResetMs = RO.BackoffResetMs;
  uint64_t ReadTimeoutMs = 0;
  uint64_t MaxLineBytes = service::DefaultMaxLineBytes;
  uint64_t StealThreshold = 0;
  bool Chaos = false;
  std::string Listen = "stdio";
  std::string Worker = selfDirectory() + "/optabs-serve";
  std::string SocketDir = "/tmp";
  std::string WorkerArgsJoined; // space-separated extra worker flags
  std::string CacheDir;         // shared on-disk tier for every worker
  uint64_t SpillBytes = 0;
  uint64_t PersistOnShutdown = 0;

  support::ArgParser Parser("optabs-shardd");
  Parser.option("--listen", &Listen,
                "supervisor transport: stdio (default), unix:PATH, tcp:PORT");
  Parser.option("--shards", &Shards, "number of optabs-serve workers");
  Parser.option("--worker", &Worker, "worker binary (default: sibling "
                                     "optabs-serve)");
  Parser.option("--worker-threads", &WorkerThreads,
                "--threads for each worker (0 = hardware)");
  Parser.option("--threads", &WorkerThreads,
                "alias for --worker-threads (drop-in for optabs-serve)");
  Parser.option("--worker-args", &WorkerArgsJoined,
                "extra flags for every worker, space separated");
  Parser.option("--socket-dir", &SocketDir, "where worker sockets live");
  Parser.option("--cache-dir", &CacheDir,
                "shared on-disk cache tier passed to every worker; stolen "
                "or restarted shards re-warm from it");
  Parser.option("--spill-bytes", &SpillBytes,
                "per-worker spill-tier byte budget (0 = unbounded)");
  Parser.option("--persist-on-shutdown", &PersistOnShutdown,
                "workers snapshot their programs on graceful shutdown (0|1)");
  Parser.option("--steal-threshold", &StealThreshold,
                "re-home sessions from a shard with this many pending jobs "
                "to an idle one at drain (0 = off)");
  Parser.option("--request-timeout-ms", &RequestTimeoutMs,
                "per-request deadline before a shard counts as hung");
  Parser.option("--retries", &Retries,
                "restart-and-retry attempts per request");
  Parser.option("--backoff-initial-ms", &BackoffInitialMs,
                "first restart delay");
  Parser.option("--backoff-max-ms", &BackoffMaxMs, "restart delay cap");
  Parser.option("--backoff-reset-ms", &BackoffResetMs,
                "healthy interval that resets the backoff ladder");
  Parser.option("--read-timeout-ms", &ReadTimeoutMs,
                "drop a silent client connection (0 = never)");
  Parser.option("--max-line-bytes", &MaxLineBytes,
                "per-line size cap; longer lines get a structured error");
  Parser.flag("--chaos", &Chaos,
              "accept {\"op\":\"chaos-kill\",\"shard\":K} (tests only)");
  std::string Err;
  if (!Parser.parse(Argc, Argv, Err)) {
    std::cerr << "error: " << Err << "\n" << Parser.usage();
    return 2;
  }
  if (Parser.helpRequested()) {
    std::cout << Parser.help();
    return 0;
  }
  service::ListenSpec ListenSpec;
  if (!service::ListenSpec::parse(Listen, ListenSpec, Err)) {
    std::cerr << "error: " << Err << "\n";
    return 2;
  }
  if (Shards == 0)
    Shards = 1;

  RO.NumShards = static_cast<unsigned>(Shards);
  RO.RequestTimeoutMs = static_cast<int>(RequestTimeoutMs);
  RO.MaxRequestRetries = static_cast<unsigned>(Retries);
  RO.BackoffInitialMs = BackoffInitialMs;
  RO.BackoffMaxMs = BackoffMaxMs;
  RO.BackoffResetMs = BackoffResetMs;
  RO.AllowChaosOps = Chaos;
  RO.StealThreshold = StealThreshold;

  HO.ServeBinary = Worker;
  HO.SocketDir = SocketDir;
  HO.MaxLineBytes = static_cast<size_t>(MaxLineBytes);
  HO.WorkerArgs.push_back("--threads=" + std::to_string(WorkerThreads));
  if (!CacheDir.empty()) {
    HO.WorkerArgs.push_back("--cache-dir=" + CacheDir);
    if (SpillBytes)
      HO.WorkerArgs.push_back("--spill-bytes=" + std::to_string(SpillBytes));
    if (PersistOnShutdown)
      HO.WorkerArgs.push_back("--persist-on-shutdown=1");
  }
  for (size_t I = 0; I < WorkerArgsJoined.size();) {
    size_t J = WorkerArgsJoined.find(' ', I);
    if (J == std::string::npos)
      J = WorkerArgsJoined.size();
    if (J > I)
      HO.WorkerArgs.push_back(WorkerArgsJoined.substr(I, J - I));
    I = J + 1;
  }

  service::installShutdownSignals();

  service::ProcessShardHost Host(HO);
  service::ShardRouter Router(RO, Host);
  if (!Router.start(Err)) {
    std::cerr << "error: " << Err << "\n";
    return 1;
  }

  std::vector<std::string> Out;
  service::ServeExit Exit = service::serveLines(
      ListenSpec, static_cast<size_t>(MaxLineBytes), ReadTimeoutMs,
      [&](const std::string &Line, service::LineChannel &Ch) {
        Out.clear();
        bool KeepGoing = Router.handleLine(Line, Out);
        for (const std::string &Resp : Out)
          Ch.writeLine(Resp);
        return KeepGoing;
      },
      Err);
  if (Exit == service::ServeExit::ListenFailed) {
    std::cerr << "error: " << Err << "\n";
    return 1;
  }

  // Signal or EOF without a shutdown op: run the same graceful path the
  // op runs, so workers drain and dump artifacts.
  if (Exit != service::ServeExit::Shutdown) {
    std::vector<std::string> Dropped;
    Router.handleLine("{\"op\":\"shutdown\"}", Dropped);
  }
  return 0;
}
