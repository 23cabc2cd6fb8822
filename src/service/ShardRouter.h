//===- ShardRouter.h - Shard supervisor for multi-process serving -*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The supervisor behind `optabs-shardd` (DESIGN.md §13): it spawns N
/// `optabs-serve` worker shards, routes the JSONL protocol to them, and
/// treats worker failure as a first-class input instead of a fatal error.
///
///  * Partitioning: sessions are routed by fnv1a(program, client) mod N,
///    so every query against one (program, client) pair lands on the same
///    shard and that shard's ForwardRunCache stays hot. Program
///    registrations are broadcast to all shards (any shard may be asked
///    to open a session on any program).
///
///  * Journaling: the supervisor records every successful registration
///    (name -> latest text), every open session (its original request
///    line), and every in-flight submit. Worker shards are therefore
///    disposable: the journal is exactly the state needed to rebuild one.
///    It holds live state only: a job leaves when its result line is
///    produced (the line waits in an outbox for the next drain), a
///    session when its close is acknowledged. Every walk is O(pending);
///    a bounded ring of retired-job summaries answers `explain`.
///
///  * Failure handling: every request to a shard runs under a
///    per-request timeout with bounded retries. A dead or hung shard is
///    killed and restarted with exponential backoff plus deterministic
///    jitter (capped, and reset after a healthy interval); the restart
///    replays the registration journal, re-opens the shard's sessions,
///    and requeues its unfulfilled jobs. Requeues are never silent: the
///    drain summary carries a "requeued" count and the per-job `explain`
///    response carries a structured requeued note. Re-running a requeued
///    job on a fresh shard cannot change its verdict - §6 grouping makes
///    verdicts batch-composition-independent (DESIGN.md §11), and a
///    worker's state dies with it, so a requeue is exactly-once per
///    surviving incarnation (the idempotency argument in DESIGN.md §13).
///
///  * Work stealing (StealThreshold > 0): at drain time, when one shard's
///    pending depth reaches the threshold while another shard sits idle,
///    the supervisor re-homes whole sessions - replaying the journaled
///    open-session line on the thief, re-submitting the session's pending
///    jobs there, then cancelling the victim's copies. A victim must keep
///    live jobs of another session after the move: moving a shard's only
///    session would relocate the queue, not split it. The move is
///    transactional (any failure aborts with the victim untouched) and
///    verdict-neutral: §6 grouping makes verdicts batch-composition-
///    independent, so a job answers identically no matter which shard
///    runs it. When the shards share a --cache-dir, the thief re-warms
///    the stolen program's forward runs from the common spill tier
///    instead of recomputing them.
///
///  * Cache admin: the {"op":"cache"} family is fanned out to every
///    shard and the per-shard counters summed into one response, so
///    "persist"/"load"/"spill" act on the whole deployment at once.
///
/// The router is single-threaded: one supervisor loop calls handleLine()
/// per request. The ShardHost / ShardEndpoint / RouterClock seams exist
/// so tests can drive every failure path with scripted fakes and a fake
/// clock (tests/ShardRouterTest.cpp) while production uses real
/// subprocesses over Unix sockets (ProcessShardHost below, chaos-tested
/// by tests/ChaosTest.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_SERVICE_SHARDROUTER_H
#define OPTABS_SERVICE_SHARDROUTER_H

#include "service/Transport.h"
#include "support/Prng.h"
#include "support/Subprocess.h"
#include "support/Timer.h"

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace optabs {
namespace service {

class JsonLine;

/// One connected worker shard, as the router sees it. Production wraps a
/// child process plus a socket channel; tests script these.
class ShardEndpoint {
public:
  enum class RecvStatus : uint8_t { Line, Timeout, Closed };

  virtual ~ShardEndpoint() = default;
  /// Sends one request line. False when the shard is unreachable.
  virtual bool sendLine(const std::string &Line) = 0;
  /// Receives one response line, bounded by \p TimeoutMs.
  virtual RecvStatus recvLine(std::string &Out, int TimeoutMs) = 0;
  /// Cheap process-level liveness probe (no IO).
  virtual bool alive() = 0;
  /// Hard-kills the worker (hung shard, chaos injection).
  virtual void kill() = 0;
};

/// Spawns (and respawns) shard workers.
class ShardHost {
public:
  virtual ~ShardHost() = default;
  /// Starts worker \p Shard and returns a connected endpoint, or null
  /// with \p Err. Any previous incarnation of the shard is dead by the
  /// time this is called again.
  virtual std::unique_ptr<ShardEndpoint> spawn(unsigned Shard,
                                               std::string &Err) = 0;
};

/// Time source for backoff; injectable so restart ladders are testable
/// without real sleeps.
class RouterClock {
public:
  virtual ~RouterClock() = default;
  virtual uint64_t nowMs() = 0;
  virtual void sleepMs(uint64_t Ms) = 0;
};

/// The default steady-clock implementation.
class SteadyRouterClock : public RouterClock {
public:
  uint64_t nowMs() override;
  void sleepMs(uint64_t Ms) override;
};

struct ShardRouterOptions {
  unsigned NumShards = 2;
  /// Per request-response round trip to a shard; a shard that does not
  /// answer in time is considered hung, killed, and restarted.
  int RequestTimeoutMs = 120000;
  /// Restart-and-retry attempts per routed request before it fails with
  /// a structured error (the client-side retry bound).
  unsigned MaxRequestRetries = 2;
  /// Exponential restart backoff: initial delay, doubling to the cap,
  /// reset to the initial value when the shard stayed healthy for
  /// BackoffResetMs since its last restart.
  uint64_t BackoffInitialMs = 100;
  uint64_t BackoffMaxMs = 5000;
  uint64_t BackoffResetMs = 60000;
  /// Jitter fraction added on top of the base delay (delay in
  /// [base, base * (1 + Jitter)]), drawn from a deterministic PRNG.
  double BackoffJitter = 0.25;
  uint64_t JitterSeed = 0x0050bacc; ///< deterministic jitter stream
  /// Spawn attempts within one restart episode before giving up.
  unsigned MaxRestartAttempts = 6;
  /// Accept {"op":"chaos-kill","shard":K}: SIGKILL a worker on request.
  /// For the chaos harness only (optabs-shardd --chaos).
  bool AllowChaosOps = false;
  /// Work stealing: when a shard holding more than one session reaches
  /// this pending depth while another shard has nothing pending, drain
  /// re-homes whole sessions to the idle shard first. 0 (the default)
  /// disables stealing, preserving pure hash partitioning.
  uint64_t StealThreshold = 0;
};

/// Monotonic supervisor counters (stats op, tests).
struct ShardRouterStats {
  uint64_t Restarts = 0; ///< successful worker restarts, all shards
  uint64_t Requeued = 0;  ///< job requeue events (a job can recur)
  uint64_t Registered = 0;
  uint64_t SessionsOpened = 0;
  uint64_t Submitted = 0;
  uint64_t Fulfilled = 0;
  uint64_t Failed = 0; ///< jobs failed after retry exhaustion
  uint64_t Pending = 0;
  uint64_t Steals = 0;     ///< sessions re-homed by work stealing
  uint64_t StolenJobs = 0; ///< pending jobs moved along with them
  std::vector<uint64_t> RestartsByShard;
};

/// See the file comment.
class ShardRouter {
public:
  ShardRouter(ShardRouterOptions Opts, ShardHost &Host,
              RouterClock *Clock = nullptr);
  ~ShardRouter();

  ShardRouter(const ShardRouter &) = delete;
  ShardRouter &operator=(const ShardRouter &) = delete;

  /// Spawns every shard (no backoff on first start). False + \p Err when
  /// any shard cannot be brought up at all.
  bool start(std::string &Err);

  /// Routes one protocol request line; appends every response line to
  /// \p Out. Returns false when the request was "shutdown" (the
  /// responses, including the shutdown ack, are still appended).
  bool handleLine(const std::string &Line, std::vector<std::string> &Out);

  /// Which shard serves (program, client) sessions. Deterministic
  /// fnv1a64 - never std::hash, so scripted transcripts are portable.
  unsigned shardFor(const std::string &Program,
                    const std::string &Client) const;

  ShardRouterStats stats() const;

  /// Chaos seam: SIGKILL worker \p Shard and wait until it is gone, as
  /// the chaos-kill op does. Thread-compatible with a concurrent
  /// handleLine only through ProcessShardHost::killWorker - use that from
  /// other threads.
  void killShardForTesting(unsigned Shard);

  /// The shard's next restart delay base (fake-clock backoff tests).
  uint64_t nextBackoffMsForTesting(unsigned Shard) const;

private:
  struct Registration {
    std::string Name;
    std::string Text;
    uint32_t Checks = 0;
    uint32_t Allocs = 0;
  };
  struct SessionRec {
    unsigned Shard = 0;
    uint64_t ShardId = 0;
    std::string OpenLine; ///< original request, replayed verbatim
  };
  struct JobRec {
    uint64_t SupId = 0;
    uint64_t SupSession = 0;
    unsigned Shard = 0;
    uint64_t ShardJob = 0;
    uint32_t Check = 0;
    uint64_t Site = 0;
    int64_t Priority = 0;
    bool HasSite = false;
    bool HasPriority = false;
    bool CancelRequested = false;
    unsigned Requeues = 0;
  };
  /// What `explain` still knows about a job once its result line exists.
  struct RetiredJob {
    uint64_t SupId = 0, SupSession = 0;
    unsigned Shard = 0;
    const char *Status = ""; ///< "fulfilled", "failed" or "cancelled"
    unsigned Requeues = 0;
  };
  using JobMap = std::map<uint64_t, JobRec>;
  struct Shard {
    std::unique_ptr<ShardEndpoint> Ep;
    bool Up = false;
    bool EverStarted = false;
    uint64_t NextBackoffMs = 0;
    uint64_t LastRestartMs = 0;
    uint64_t Restarts = 0;
    /// shard-local job id -> supervisor job id of every job the live
    /// incarnation holds; an entry goes when its job retires.
    std::map<uint64_t, uint64_t> JobsByShardId;
  };

  enum class RpcStatus : uint8_t { Ok, Died, TimedOut };

  bool ensureUp(unsigned I, std::string &Err);
  bool restartShard(unsigned I, std::string &Err);
  bool replayShard(unsigned I);
  RpcStatus rpcOnce(unsigned I, const std::string &Line, std::string &Resp);
  /// ensureUp + rpcOnce with restart-and-retry up to MaxRequestRetries.
  /// \p MakeLine is re-invoked after every ensureUp: a restart renumbers
  /// shard-local session ids (replay re-opens only the live sessions, the
  /// fresh worker mints ids from 1), so any line embedding a shard-local
  /// id must be rebuilt from SessionRec::ShardId per attempt.
  bool rpcWithRetry(unsigned I,
                    const std::function<std::string()> &MakeLine,
                    std::string &Resp, std::string &Err);
  bool rpcWithRetry(unsigned I, const std::string &Line, std::string &Resp,
                    std::string &Err);
  void markDown(unsigned I);
  std::string submitLineFor(const JobRec &J, uint64_t ShardSession) const;
  std::string rewriteResultLine(const JsonLine &ShardResult,
                                const JobRec &J) const;
  /// Produces job \p It's result: \p Line goes to the outbox, a summary
  /// with \p Status to the retired ring, and the job leaves Jobs and its
  /// shard's JobsByShardId.
  void retire(JobMap::iterator It, const char *Status, std::string Line);
  /// retire() with a supervisor-made line: status \p Status, \p Error.
  void synthesizeResult(JobMap::iterator It, const char *Status,
                        const std::string &Error);
  void handleDrain(std::vector<std::string> &Out);
  /// Re-homes session \p SessId from \p Victim to \p Thief: open-session
  /// replay + pending-job re-submission on the thief, then best-effort
  /// close of the victim's copy. All-or-nothing; false leaves every
  /// record pointing at the victim.
  bool stealSession(uint64_t SessId, unsigned Victim, unsigned Thief);
  /// The drain-time rebalance loop (no-op unless StealThreshold > 0).
  void maybeStealWork();

  ShardRouterOptions Opts;
  ShardHost &Host;
  RouterClock *Clock;
  std::unique_ptr<RouterClock> OwnedClock;
  Prng Jitter;
  Timer Uptime;

  std::vector<Shard> Shards;
  std::vector<Registration> Journal; ///< in first-registration order
  std::map<uint64_t, SessionRec> Sessions; ///< open sessions only
  /// Jobs whose result line has not been produced yet, by supervisor id.
  JobMap Jobs;
  /// Produced result lines not yet emitted, by supervisor job id; the
  /// next drain summary emits and clears it.
  std::map<uint64_t, std::string> Outbox;
  /// The most recent retirements, oldest first, for `explain`. Capped at
  /// the worker's default trace capacity, as its per-job log is.
  static constexpr size_t RetiredCapacity = 4096;
  std::deque<RetiredJob> Retired;
  uint64_t NextSession = 1;
  uint64_t NextJob = 1;
  uint64_t RegEpoch = 0; ///< supervisor registration epoch counter
  uint64_t DrainRequeues = 0;
  ShardRouterStats Stats;
};

/// Production ShardHost: each shard is an `optabs-serve --listen=unix:...`
/// child process; endpoints are socket LineChannels. Thread-safe where it
/// matters for chaos tests: killWorker() may be called from another
/// thread while the router (single-threaded) is mid-request.
class ProcessShardHost : public ShardHost {
public:
  struct Options {
    std::string ServeBinary;           ///< path to optabs-serve
    std::string SocketDir = "/tmp";    ///< unix sockets live here
    std::vector<std::string> WorkerArgs; ///< extra worker flags
    int ConnectTimeoutMs = 10000;      ///< spawn-to-accepting budget
    size_t MaxLineBytes = DefaultMaxLineBytes;
  };

  explicit ProcessShardHost(Options O);
  ~ProcessShardHost() override; ///< kills and reaps every worker

  std::unique_ptr<ShardEndpoint> spawn(unsigned Shard,
                                       std::string &Err) override;

  /// SIGKILLs worker \p Shard by pid (thread-safe, does not reap).
  void killWorker(unsigned Shard);

private:
  friend class ProcessShardEndpoint;
  bool workerAlive(unsigned Shard, pid_t Pid);
  void killAndReap(unsigned Shard, pid_t Pid);

  std::mutex M;
  Options O;
  std::map<unsigned, support::ChildProcess> Workers;
  /// Live incarnation's socket file per shard, unlinked when the worker
  /// is killed/replaced so restarts don't litter SocketDir.
  std::map<unsigned, std::string> SocketPaths;
  uint64_t Incarnation = 0; ///< unique socket path per respawn
};

} // namespace service
} // namespace optabs

#endif // OPTABS_SERVICE_SHARDROUTER_H
