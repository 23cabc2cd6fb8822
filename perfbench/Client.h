//===- Client.h - Closed-loop protocol client and script runner --*- C++ -*-===//
//
// Runs a workload's steps against one of two executors that speak the same
// operations:
//
//  * SocketExecutor - one unix-socket connection to optabs-shardd or
//    optabs-serve, one outstanding request line at a time (closed loop);
//  * ServiceExecutor - an in-process service::AnalysisService, the first
//    rung of the traced run.
//
// The runner stamps each submit before its request is written and each
// result as its line is read, so a job's latency is what a client of the
// executor observes.
//
//===----------------------------------------------------------------------===//

#ifndef OPTABS_PERFBENCH_CLIENT_H
#define OPTABS_PERFBENCH_CLIENT_H

#include "Workloads.h"

#include "service/AnalysisService.h"
#include "service/Transport.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

/// One job's answer as the protocol reports it.
struct JobResult {
  uint64_t Job = 0;
  std::string Status; ///< "done" or a failure status
  std::string Verdict;
  uint32_t Cost = 0;
  std::string Param;
  unsigned Iterations = 0;
  std::string Error;
};

struct RegisterReply {
  bool Incremental = false;
  uint32_t DirtyChecks = 0;
};

struct CacheReply {
  uint64_t RunsPersisted = 0;
  uint64_t ResidentBytes = 0;
};

class Executor {
public:
  virtual ~Executor() = default;
  virtual bool registerProgram(const std::string &Name, const std::string &Text,
                               RegisterReply &R, std::string &Err) = 0;
  virtual bool openSession(const std::string &Program, bool Typestate,
                           uint64_t &Session, std::string &Err) = 0;
  virtual bool submit(uint64_t Session, const JobDef &J, bool Typestate,
                      uint64_t &Job, std::string &Err) = 0;
  /// Runs every pending job; \p OnResult sees each result as it arrives.
  virtual bool drain(const std::function<void(const JobResult &)> &OnResult,
                     std::string &Err) = 0;
  virtual bool cache(const std::string &Action, const std::string &Program,
                     CacheReply &R, std::string &Err) = 0;
};

/// A spawned server process. Its stdout and stderr go to \p LogPath. The
/// destructor stops it (SIGTERM, then SIGKILL) together with its direct
/// children and reaps it, so no worker outlives the benchmark.
class ServerProcess {
public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess &) = delete;
  ServerProcess &operator=(const ServerProcess &) = delete;

  bool spawn(const std::vector<std::string> &Argv, const std::string &LogPath,
             std::string &Err);
  pid_t pid() const { return Pid; }
  /// Waits up to \p TimeoutMs for a clean exit (after a shutdown op);
  /// kills the process tree when it does not come.
  bool waitExit(int TimeoutMs);
  void stop();

private:
  pid_t Pid = -1;
};

/// Gives the calling thread and each of \p Servers (every thread of each)
/// a CPU of its own, when the affinity mask has enough of them: a client,
/// a supervisor and its workers then never migrate or share a CPU, which
/// keeps run-to-run spread low. Does nothing on smaller machines.
void pinProcesses(const std::vector<pid_t> &Servers);

class SocketExecutor : public Executor {
public:
  /// Connects to \p SocketPath, retrying until \p TimeoutMs elapses.
  bool connect(const std::string &SocketPath, int TimeoutMs, std::string &Err);

  bool registerProgram(const std::string &Name, const std::string &Text,
                       RegisterReply &R, std::string &Err) override;
  bool openSession(const std::string &Program, bool Typestate,
                   uint64_t &Session, std::string &Err) override;
  bool submit(uint64_t Session, const JobDef &J, bool Typestate,
              uint64_t &Job, std::string &Err) override;
  bool drain(const std::function<void(const JobResult &)> &OnResult,
             std::string &Err) override;
  bool cache(const std::string &Action, const std::string &Program,
             CacheReply &R, std::string &Err) override;

  /// Sends one line and returns its single response line.
  bool call(const std::string &Line, std::string &Resp, std::string &Err);
  /// Sends {"op":"shutdown"} and reads the acknowledgement.
  bool shutdown(std::string &Err);

  uint64_t bytesSent() const { return Sent; }
  uint64_t bytesReceived() const { return Received; }

private:
  bool readLine(std::string &Line, std::string &Err);

  optabs::service::LineChannel Ch;
  uint64_t Sent = 0;
  uint64_t Received = 0;
};

class ServiceExecutor : public Executor {
public:
  explicit ServiceExecutor(optabs::service::AnalysisService::Options Opts);

  bool registerProgram(const std::string &Name, const std::string &Text,
                       RegisterReply &R, std::string &Err) override;
  bool openSession(const std::string &Program, bool Typestate,
                   uint64_t &Session, std::string &Err) override;
  bool submit(uint64_t Session, const JobDef &J, bool Typestate,
              uint64_t &Job, std::string &Err) override;
  bool drain(const std::function<void(const JobResult &)> &OnResult,
             std::string &Err) override;
  bool cache(const std::string &Action, const std::string &Program,
             CacheReply &R, std::string &Err) override;

  optabs::service::AnalysisService &service() { return *Svc; }

private:
  std::unique_ptr<optabs::service::AnalysisService> Svc;
  std::map<uint64_t, optabs::service::Session> Sessions;
  std::vector<std::pair<uint64_t, std::future<optabs::service::QueryResult>>>
      InFlight;
};

/// Everything one executed job left behind.
struct JobRecord {
  JobDef Def;
  uint32_t Program = 0;
  uint32_t Version = 0; ///< index into ScriptRun::Texts
  bool Typestate = false;
  bool Timed = false;
  double SubmittedAt = 0; ///< nowSeconds() before the submit was written
  double LatencyMs = 0;   ///< submit written -> result read
  JobResult R;
};

/// Per-call wall time of one kind of executor operation.
struct OpTimes {
  std::vector<double> Seconds;
  double total() const;
};

/// Drives a workload's steps through an executor, keeping the mapping from
/// workload sessions to server session ids and from programs to their
/// current text version.
class ScriptRun {
public:
  ScriptRun(Executor &Ex, const Workload &W);

  /// Registers every program and opens every session; with a cache dir,
  /// also waits until the snapshots are loaded.
  bool setup(std::string &Err);
  /// Runs \p U; its jobs are recorded with Timed = \p Timed.
  bool run(const Unit &U, bool Timed, std::string &Err);

  std::vector<JobRecord> Jobs;
  /// Every program text a job ran against; Versions[P] is the current one.
  std::vector<std::string> Texts;
  std::vector<uint32_t> Current;
  std::vector<RegisterReply> Reregistrations;
  uint64_t RunsPersisted = 0;
  /// Executor-call wall times by operation name (register, open,
  /// load-wait, submit, drain, persist, evict).
  std::map<std::string, OpTimes> Ops;

private:
  Executor &Ex;
  const Workload &W;
  std::vector<uint64_t> SessionIds;
  /// Jobs submitted since the last drain: executor job id -> Jobs index.
  std::map<uint64_t, size_t> Pending;
};

double nowSeconds();

} // namespace perfbench

#endif // OPTABS_PERFBENCH_CLIENT_H
