//===- ShardRouter.cpp - Shard supervisor for multi-process serving -------===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "service/ShardRouter.h"

#include "service/Protocol.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <set>
#include <thread>
#include <unistd.h>

namespace optabs {
namespace service {

using tracer::JsonObject;

//===----------------------------------------------------------------------===//
// Clock
//===----------------------------------------------------------------------===//

uint64_t SteadyRouterClock::nowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SteadyRouterClock::sleepMs(uint64_t Ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
}

//===----------------------------------------------------------------------===//
// Partitioning
//===----------------------------------------------------------------------===//

namespace {

/// fnv1a64 over (program, '\0', client). Hand-rolled on purpose:
/// std::hash is implementation-defined, and the shard a session lands on
/// is observable in scripted chaos transcripts.
uint64_t sessionHash(const std::string &Program, const std::string &Client) {
  uint64_t H = 0xcbf29ce484222325ULL;
  auto Mix = [&H](const std::string &S) {
    for (char C : S) {
      H ^= static_cast<unsigned char>(C);
      H *= 0x100000001b3ULL;
    }
  };
  Mix(Program);
  H ^= 0;
  H *= 0x100000001b3ULL;
  Mix(Client);
  return H;
}

} // namespace

unsigned ShardRouter::shardFor(const std::string &Program,
                               const std::string &Client) const {
  if (Opts.NumShards <= 1)
    return 0;
  return static_cast<unsigned>(sessionHash(Program, Client) % Opts.NumShards);
}

//===----------------------------------------------------------------------===//
// Construction / lifecycle
//===----------------------------------------------------------------------===//

ShardRouter::ShardRouter(ShardRouterOptions O, ShardHost &H, RouterClock *C)
    : Opts(O), Host(H), Clock(C), Jitter(Opts.JitterSeed) {
  if (Opts.NumShards == 0)
    Opts.NumShards = 1;
  if (!Clock) {
    OwnedClock = std::make_unique<SteadyRouterClock>();
    Clock = OwnedClock.get();
  }
  Shards.resize(Opts.NumShards);
  Stats.RestartsByShard.assign(Opts.NumShards, 0);
}

ShardRouter::~ShardRouter() = default;

bool ShardRouter::start(std::string &Err) {
  for (unsigned I = 0; I < Opts.NumShards; ++I)
    if (!ensureUp(I, Err))
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Restart ladder
//===----------------------------------------------------------------------===//

void ShardRouter::markDown(unsigned I) { Shards[I].Up = false; }

bool ShardRouter::ensureUp(unsigned I, std::string &Err) {
  Shard &Sh = Shards[I];
  if (Sh.Up && Sh.Ep && Sh.Ep->alive())
    return true;
  return restartShard(I, Err);
}

bool ShardRouter::restartShard(unsigned I, std::string &Err) {
  Shard &Sh = Shards[I];
  const bool IsRestart = Sh.EverStarted;
  if (Sh.Ep)
    Sh.Ep->kill();
  Sh.Up = false;

  // A shard that stayed healthy long enough earns a fresh ladder.
  if (IsRestart) {
    if (Sh.NextBackoffMs == 0)
      Sh.NextBackoffMs = Opts.BackoffInitialMs;
    if (Sh.LastRestartMs != 0 &&
        Clock->nowMs() - Sh.LastRestartMs >= Opts.BackoffResetMs)
      Sh.NextBackoffMs = Opts.BackoffInitialMs;
  }

  unsigned Attempts = std::max(1u, Opts.MaxRestartAttempts);
  std::string SpawnErr;
  for (unsigned Attempt = 0; Attempt < Attempts; ++Attempt) {
    // The very first spawn of a shard is not a failure - no delay. Every
    // later attempt sleeps the current ladder step plus jitter, then
    // escalates toward the cap.
    if (IsRestart || Attempt > 0) {
      uint64_t Base =
          Sh.NextBackoffMs ? Sh.NextBackoffMs : Opts.BackoffInitialMs;
      uint64_t Extra = 0;
      if (Opts.BackoffJitter > 0.0)
        Extra = Jitter.nextBelow(
            static_cast<uint64_t>(static_cast<double>(Base) *
                                  Opts.BackoffJitter) +
            1);
      Clock->sleepMs(Base + Extra);
      Sh.NextBackoffMs = std::min(Base * 2, Opts.BackoffMaxMs);
    }
    Sh.EverStarted = true;

    Sh.Ep = Host.spawn(I, SpawnErr);
    if (!Sh.Ep)
      continue;
    // Readiness handshake: the worker answers ping once it is accepting.
    std::string Resp;
    if (!Sh.Ep->sendLine("{\"op\":\"ping\"}") ||
        Sh.Ep->recvLine(Resp, Opts.RequestTimeoutMs) !=
            ShardEndpoint::RecvStatus::Line) {
      Sh.Ep->kill();
      continue;
    }
    Sh.Up = true;
    if (!replayShard(I)) {
      Sh.Ep->kill();
      Sh.Up = false;
      continue;
    }
    Sh.LastRestartMs = Clock->nowMs();
    if (IsRestart) {
      ++Sh.Restarts;
      ++Stats.Restarts;
      ++Stats.RestartsByShard[I];
    }
    return true;
  }
  Err = "shard " + std::to_string(I) + " failed to start after " +
        std::to_string(Attempts) + " attempts" +
        (SpawnErr.empty() ? "" : (": " + SpawnErr));
  return false;
}

//===----------------------------------------------------------------------===//
// RPC
//===----------------------------------------------------------------------===//

ShardRouter::RpcStatus ShardRouter::rpcOnce(unsigned I,
                                            const std::string &Line,
                                            std::string &Resp) {
  Shard &Sh = Shards[I];
  if (!Sh.Ep || !Sh.Up)
    return RpcStatus::Died;
  if (!Sh.Ep->sendLine(Line))
    return RpcStatus::Died;
  switch (Sh.Ep->recvLine(Resp, Opts.RequestTimeoutMs)) {
  case ShardEndpoint::RecvStatus::Line:
    return RpcStatus::Ok;
  case ShardEndpoint::RecvStatus::Closed:
    return RpcStatus::Died;
  case ShardEndpoint::RecvStatus::Timeout:
    // A hung shard is indistinguishable from a slow one; past the
    // deadline we treat it as dead so the restart path can requeue.
    Sh.Ep->kill();
    return RpcStatus::TimedOut;
  }
  return RpcStatus::Died;
}

bool ShardRouter::rpcWithRetry(unsigned I,
                               const std::function<std::string()> &MakeLine,
                               std::string &Resp, std::string &Err) {
  unsigned Tries = Opts.MaxRequestRetries + 1;
  for (unsigned A = 0; A < Tries; ++A) {
    if (!ensureUp(I, Err))
      return false;
    // Build the line after ensureUp: a restart in there renumbered the
    // shard-local session ids, and a line minted before the replay would
    // target a stale id - at best "unknown session", at worst a different
    // session entirely.
    if (rpcOnce(I, MakeLine(), Resp) == RpcStatus::Ok)
      return true;
    markDown(I);
  }
  Err = "shard " + std::to_string(I) + " did not answer after " +
        std::to_string(Tries) + " attempts";
  return false;
}

bool ShardRouter::rpcWithRetry(unsigned I, const std::string &Line,
                               std::string &Resp, std::string &Err) {
  return rpcWithRetry(
      I, [&Line]() { return Line; }, Resp, Err);
}

//===----------------------------------------------------------------------===//
// Replay: rebuild a fresh worker from the journal
//===----------------------------------------------------------------------===//

std::string ShardRouter::submitLineFor(const JobRec &J,
                                       uint64_t ShardSession) const {
  JsonObject O;
  O.field("op", "submit");
  O.field("session", ShardSession);
  O.field("check", J.Check);
  if (J.HasSite)
    O.field("site", J.Site);
  if (J.HasPriority)
    O.field("priority", J.Priority);
  return O.str();
}

void ShardRouter::synthesizeResult(JobMap::iterator It, const char *Status,
                                   const std::string &Error) {
  JsonObject O = response(true);
  O.field("op", "result");
  O.field("job", It->second.SupId);
  O.field("session", It->second.SupSession);
  O.field("status", Status);
  O.field("error", Error);
  retire(It, Status, O.str());
}

void ShardRouter::retire(JobMap::iterator It, const char *Status,
                         std::string Line) {
  const JobRec &J = It->second;
  // Only J's own mapping: a replay may have handed J's stale shard-local
  // id to a requeued job.
  auto &ById = Shards[J.Shard].JobsByShardId;
  if (auto M = ById.find(J.ShardJob); M != ById.end() && M->second == J.SupId)
    ById.erase(M);
  ++(std::strcmp(Status, "failed") == 0 ? Stats.Failed : Stats.Fulfilled);
  if (Retired.size() == RetiredCapacity)
    Retired.pop_front();
  Retired.push_back({J.SupId, J.SupSession, J.Shard, Status, J.Requeues});
  Outbox.emplace(J.SupId, std::move(Line));
  Jobs.erase(It);
}

bool ShardRouter::replayShard(unsigned I) {
  Shard &Sh = Shards[I];
  Sh.JobsByShardId.clear();

  auto Rpc = [&](const std::string &Line, JsonLine &Parsed) -> bool {
    std::string Resp;
    if (rpcOnce(I, Line, Resp) != RpcStatus::Ok)
      return false;
    std::string PErr;
    if (!JsonLine::parse(Resp, Parsed, PErr))
      return false;
    return Parsed.getBool("ok").value_or(false);
  };

  // 1. Registrations, oldest first, so re-registrations land last and the
  //    worker converges on the same latest-epoch view the journal holds.
  for (const Registration &R : Journal) {
    JsonObject O;
    O.field("op", "register-program");
    O.field("name", R.Name);
    O.field("text", R.Text);
    JsonLine Resp;
    if (!Rpc(O.str(), Resp))
      return false;
  }

  // 2. This shard's sessions, in supervisor-id order, replaying the
  //    original open-session lines verbatim (config flags included).
  for (auto &[Id, S] : Sessions) {
    if (S.Shard != I)
      continue;
    JsonLine Resp;
    if (!Rpc(S.OpenLine, Resp))
      return false;
    auto NewId = Resp.getUInt("session");
    if (!NewId)
      return false;
    S.ShardId = *NewId;
  }

  // 3. Requeue the shard's pending jobs, in supervisor-id order. Jobs
  //    whose cancel was already acknowledged are not re-run: they retire
  //    here with the same cancelled result line the worker would have
  //    produced at drain.
  for (auto Next = Jobs.begin(); Next != Jobs.end();) {
    auto It = Next++;
    JobRec &J = It->second;
    if (J.Shard != I)
      continue;
    if (J.CancelRequested) {
      synthesizeResult(It, "cancelled", "cancelled by client");
      continue;
    }
    auto SIt = Sessions.find(J.SupSession);
    if (SIt == Sessions.end())
      return false;
    JsonLine Resp;
    if (!Rpc(submitLineFor(J, SIt->second.ShardId), Resp)) {
      // A deterministic rejection (not a dead shard) would recur on
      // every replay; fail the job rather than loop forever.
      if (!Sh.Up || !Sh.Ep || !Sh.Ep->alive())
        return false;
      synthesizeResult(It, "failed", "shard rejected requeued job");
      continue;
    }
    auto NewJob = Resp.getUInt("job");
    if (!NewJob)
      return false;
    J.ShardJob = *NewJob;
    Sh.JobsByShardId[*NewJob] = J.SupId;
    ++J.Requeues;
    ++Stats.Requeued;
    ++DrainRequeues;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Work stealing
//===----------------------------------------------------------------------===//

bool ShardRouter::stealSession(uint64_t SessId, unsigned Victim,
                               unsigned Thief) {
  SessionRec &S = Sessions[SessId];
  std::string Err;
  if (!ensureUp(Thief, Err))
    return false;
  // No retries inside a steal: a thief restart mid-move would renumber
  // the half-built shard-local ids. Any hiccup aborts; the victim keeps
  // the session and ordinary drain handles it.
  auto Rpc = [&](const std::string &L, JsonLine &P) -> bool {
    std::string Resp, PErr;
    if (rpcOnce(Thief, L, Resp) != RpcStatus::Ok) {
      markDown(Thief);
      return false;
    }
    return JsonLine::parse(Resp, P, PErr) && P.getBool("ok").value_or(false);
  };

  JsonLine OpenResp;
  if (!Rpc(S.OpenLine, OpenResp))
    return false;
  auto NewSess = OpenResp.getUInt("session");
  if (!NewSess)
    return false;

  // Re-submit the session's pending jobs on the thief, in supervisor-id
  // order, collecting the new shard-local ids before committing anything.
  std::vector<std::pair<uint64_t, uint64_t>> Moved; // sup id -> thief job
  bool Failed = false;
  for (auto &[Id, J] : Jobs) {
    if (J.SupSession != SessId || J.CancelRequested)
      continue;
    JsonLine SubResp;
    if (!Rpc(submitLineFor(J, *NewSess), SubResp)) {
      Failed = true;
      break;
    }
    auto NewJob = SubResp.getUInt("job");
    if (!NewJob) {
      Failed = true;
      break;
    }
    Moved.push_back({Id, *NewJob});
  }
  if (Failed) {
    // Roll back: closing the half-built thief session cancels whatever
    // was already submitted there; the victim was never touched.
    JsonObject C;
    C.field("op", "close-session");
    C.field("session", *NewSess);
    JsonLine Dummy;
    Rpc(C.str(), Dummy);
    return false;
  }

  // Commit: re-point the records and drop the victim's job mappings so
  // its (now duplicate) result lines are ignored at collection. Then
  // cancel the victim's copy best-effort - correctness does not depend
  // on it (unmapped results are dropped), it only saves wasted compute.
  for (auto &[SupId, ThiefJob] : Moved) {
    JobRec &J = Jobs[SupId];
    Shards[Victim].JobsByShardId.erase(J.ShardJob);
    J.Shard = Thief;
    J.ShardJob = ThiefJob;
    Shards[Thief].JobsByShardId[ThiefJob] = SupId;
    ++Stats.StolenJobs;
  }
  if (Shards[Victim].Up && Shards[Victim].Ep) {
    JsonObject C;
    C.field("op", "close-session");
    C.field("session", S.ShardId);
    std::string Resp;
    if (rpcOnce(Victim, C.str(), Resp) != RpcStatus::Ok)
      markDown(Victim);
  }
  S.Shard = Thief;
  S.ShardId = *NewSess;
  ++Stats.Steals;
  return true;
}

void ShardRouter::maybeStealWork() {
  if (Opts.StealThreshold == 0 || Opts.NumShards < 2)
    return;
  // Bounded by the session count: every successful steal moves at least
  // one pending job off the victim, and a failed steal ends the loop.
  for (size_t Guard = 0; Guard <= Sessions.size(); ++Guard) {
    // Per-shard depth and lowest session id over the jobs not being
    // cancelled. Such a job lives on its open session's shard (a steal
    // moves them all), so that session is the victim's first to steal.
    std::vector<uint64_t> Pending(Opts.NumShards, 0);
    std::vector<uint64_t> FirstSession(Opts.NumShards, 0);
    for (const auto &[Id, J] : Jobs) {
      if (J.CancelRequested)
        continue;
      if (Pending[J.Shard]++ == 0 || J.SupSession < FirstSession[J.Shard])
        FirstSession[J.Shard] = J.SupSession;
    }
    // Only a shard that keeps live jobs of another session after the move
    // can be a victim: moving a shard's only session relocates its queue
    // instead of splitting it, and the next pass would move it back.
    std::vector<bool> Shared(Opts.NumShards, false);
    for (const auto &[Id, J] : Jobs)
      if (!J.CancelRequested && J.SupSession != FirstSession[J.Shard])
        Shared[J.Shard] = true;
    unsigned Victim = 0, Thief = 0;
    for (unsigned I = 1; I < Opts.NumShards; ++I) {
      if (Shared[I] && (!Shared[Victim] || Pending[I] > Pending[Victim]))
        Victim = I;
      if (Pending[I] < Pending[Thief])
        Thief = I;
    }
    if (!Shared[Victim] || Pending[Victim] < Opts.StealThreshold ||
        Pending[Thief] != 0)
      return;
    if (!stealSession(FirstSession[Victim], Victim, Thief))
      return;
  }
}

//===----------------------------------------------------------------------===//
// Drain
//===----------------------------------------------------------------------===//

void ShardRouter::handleDrain(std::vector<std::string> &Out) {
  // Rebalance before fanning the drains out: a steal is only useful while
  // the jobs are still queued.
  maybeStealWork();

  std::string Err;
  for (unsigned Round = 0; Round <= Opts.MaxRequestRetries; ++Round) {
    std::set<unsigned> Need;
    for (const auto &[Id, J] : Jobs)
      Need.insert(J.Shard);
    if (Need.empty())
      break;

    // Phase 1: issue drain on every shard with outstanding jobs before
    // collecting from any, so worker batches run concurrently - this is
    // where N shards buy N-way throughput (bench_shard_scaling).
    std::vector<unsigned> Sent;
    for (unsigned I : Need) {
      if (!ensureUp(I, Err))
        continue; // replay failed outright; next round retries
      if (!Shards[I].Ep->sendLine("{\"op\":\"drain\"}")) {
        markDown(I);
        continue;
      }
      Sent.push_back(I);
    }

    // Phase 2: collect result lines until each shard's drain summary. A
    // shard dying mid-collection leaves its unanswered jobs in Jobs; the
    // next round restarts it (requeueing them) and drains again.
    for (unsigned I : Sent) {
      Shard &Sh = Shards[I];
      // A healthy worker sends one result line per job it holds plus the
      // summary. Anything past that budget (plus slack for interleaved
      // noise) is a worker streaming garbage - each line landing inside
      // RequestTimeoutMs, so without this bound it would pin the
      // supervisor forever. Treat it like a hung shard.
      uint64_t LineBudget = 2 * Sh.JobsByShardId.size() + 64;
      for (;;) {
        if (LineBudget-- == 0) {
          Sh.Ep->kill();
          markDown(I);
          break;
        }
        std::string Resp;
        ShardEndpoint::RecvStatus RS =
            Sh.Ep->recvLine(Resp, Opts.RequestTimeoutMs);
        if (RS != ShardEndpoint::RecvStatus::Line) {
          if (RS == ShardEndpoint::RecvStatus::Timeout)
            Sh.Ep->kill();
          markDown(I);
          break;
        }
        JsonLine R;
        std::string PErr;
        if (!JsonLine::parse(Resp, R, PErr))
          continue;
        auto ROp = R.getString("op");
        if (ROp && *ROp == "drain")
          break; // the shard's summary: its batch is fully delivered
        if (!ROp || *ROp != "result")
          continue;
        auto ShardJob = R.getUInt("job");
        if (!ShardJob)
          continue;
        auto MIt = Sh.JobsByShardId.find(*ShardJob);
        if (MIt == Sh.JobsByShardId.end())
          continue;
        auto JIt = Jobs.find(MIt->second);
        const char *Status =
            R.getString("status").value_or("") == "cancelled" ? "cancelled"
                                                              : "fulfilled";
        retire(JIt, Status, rewriteResultLine(R, JIt->second));
      }
    }
  }

  // Retry budget exhausted: whatever is still pending fails loudly with
  // its requeue history rather than hanging the client.
  while (!Jobs.empty()) {
    const JobRec &J = Jobs.begin()->second;
    synthesizeResult(Jobs.begin(), "failed",
                     "shard " + std::to_string(J.Shard) +
                         " unavailable after " + std::to_string(J.Requeues) +
                         " requeue(s); job abandoned");
  }

  // Emit the outbox in supervisor job-id order - the same order a single
  // optabs-serve would use, so transcripts diff cleanly against a
  // single-process oracle.
  for (auto &[Id, Line] : Outbox)
    Out.push_back(std::move(Line));
  JsonObject O = response(true);
  O.field("op", "drain");
  O.field("results", Outbox.size());
  Outbox.clear();
  // Requeue events since the previous drain summary: restarts between
  // drains affect the jobs reported here, so they count too.
  O.field("requeued", DrainRequeues);
  Out.push_back(O.str());
  DrainRequeues = 0;
}

std::string ShardRouter::rewriteResultLine(const JsonLine &R,
                                           const JobRec &J) const {
  JsonObject O = response(true);
  O.field("op", "result");
  O.field("job", J.SupId);
  O.field("session", J.SupSession);
  std::string Status = R.getString("status").value_or("failed");
  O.field("status", Status);
  if (Status == "done") {
    O.field("verdict", R.getString("verdict").value_or(""));
    O.field("iterations", R.getUInt("iterations").value_or(0));
    if (auto Cost = R.getUInt("cost")) {
      O.field("cost", *Cost);
      O.field("param", R.getString("param").value_or(""));
    }
    if (auto Ex = R.getString("exhausted")) {
      O.field("exhausted", *Ex);
      O.field("site", R.getString("site").value_or(""));
    }
  } else {
    O.field("error", R.getString("error").value_or(""));
  }
  return O.str();
}

//===----------------------------------------------------------------------===//
// Request routing
//===----------------------------------------------------------------------===//

ShardRouterStats ShardRouter::stats() const {
  ShardRouterStats S = Stats;
  S.Pending = Jobs.size();
  return S;
}

void ShardRouter::killShardForTesting(unsigned Shard) {
  if (Shard < Shards.size() && Shards[Shard].Ep)
    Shards[Shard].Ep->kill();
}

uint64_t ShardRouter::nextBackoffMsForTesting(unsigned Shard) const {
  return Shard < Shards.size() ? Shards[Shard].NextBackoffMs : 0;
}

bool ShardRouter::handleLine(const std::string &Line,
                             std::vector<std::string> &Out) {
  auto Emit = [&Out](const std::string &S) { Out.push_back(S); };
  auto EmitObj = [&Out](const JsonObject &O) { Out.push_back(O.str()); };

  JsonLine Req;
  std::string Err;
  if (!JsonLine::parse(Line, Req, Err)) {
    EmitObj(JsonObject(response(false))
                .field("error", "malformed request: " + Err));
    return true;
  }
  auto Op = Req.getString("op");
  if (!Op) {
    EmitObj(JsonObject(response(false)).field("error", "missing 'op' field"));
    return true;
  }

  if (*Op == "register-program") {
    auto Name = Req.getString("name");
    auto Text = Req.getString("text");
    if (!Name || !Text) {
      Emit(errorLine(*Op, "register-program needs 'name' and 'text'"));
      return true;
    }
    // Broadcast: any shard can be asked to open sessions on any program.
    // The journal is updated only after every shard acked, so a shard
    // that dies mid-broadcast replays the pre-broadcast state and then
    // receives this registration through the per-shard retry below.
    uint32_t Checks = 0, Allocs = 0;
    // A re-registration's dirty set, as workers report it. The fields are
    // optional because they arrive from another process. Every shard
    // diffs the same journal against the same text, so shard 0's answer
    // is forwarded.
    std::optional<bool> Incremental;
    std::optional<uint64_t> DirtyChecks, DirtyProcs;
    std::optional<std::string> Dirty;
    for (unsigned I = 0; I < Opts.NumShards; ++I) {
      std::string Resp, RpcErr;
      if (!rpcWithRetry(I, Line, Resp, RpcErr)) {
        Emit(errorLine(*Op, "registration aborted: " + RpcErr));
        return true;
      }
      JsonLine R;
      std::string PErr;
      if (!JsonLine::parse(Resp, R, PErr) ||
          !R.getBool("ok").value_or(false)) {
        // Worker validation is deterministic over (journal, text), so the
        // first rejection is every shard's rejection: forward it as-is.
        Emit(Resp);
        return true;
      }
      if (I == 0) {
        Checks = static_cast<uint32_t>(R.getUInt("checks").value_or(0));
        Allocs = static_cast<uint32_t>(R.getUInt("allocs").value_or(0));
        Incremental = R.getBool("incremental");
        DirtyChecks = R.getUInt("dirty_checks");
        DirtyProcs = R.getUInt("dirty_procs");
        Dirty = R.getString("dirty");
      }
    }
    auto It = std::find_if(Journal.begin(), Journal.end(),
                           [&](const Registration &R) {
                             return R.Name == *Name;
                           });
    if (It != Journal.end())
      Journal.erase(It); // re-registration: the latest text moves to the end
    Registration R;
    R.Name = *Name;
    R.Text = *Text;
    R.Checks = Checks;
    R.Allocs = Allocs;
    Journal.push_back(std::move(R));
    ++RegEpoch;
    ++Stats.Registered;
    // The epoch is supervisor-minted: restarted workers have divergent
    // internal epochs, and the client must see one consistent stream.
    JsonObject O = response(true);
    O.field("op", *Op);
    O.field("name", *Name);
    O.field("epoch", RegEpoch);
    O.field("checks", Checks);
    O.field("allocs", Allocs);
    if (Incremental)
      O.field("incremental", *Incremental);
    if (DirtyChecks)
      O.field("dirty_checks", *DirtyChecks);
    if (DirtyProcs)
      O.field("dirty_procs", *DirtyProcs);
    if (Dirty)
      O.field("dirty", *Dirty);
    EmitObj(O);
  } else if (*Op == "open-session") {
    std::string Program = Req.getString("program").value_or("");
    std::string Client = Req.getString("client").value_or("");
    unsigned I = shardFor(Program, Client);
    std::string Resp, RpcErr;
    if (!rpcWithRetry(I, Line, Resp, RpcErr)) {
      Emit(errorLine(*Op, RpcErr));
      return true;
    }
    JsonLine R;
    std::string PErr;
    if (!JsonLine::parse(Resp, R, PErr) || !R.getBool("ok").value_or(false)) {
      Emit(Resp); // the worker's structured rejection, id-free
      return true;
    }
    auto ShardId = R.getUInt("session");
    if (!ShardId) {
      Emit(errorLine(*Op, "shard returned a malformed session id"));
      return true;
    }
    uint64_t SupId = NextSession++;
    Sessions[SupId] = SessionRec{I, *ShardId, Line};
    ++Stats.SessionsOpened;
    JsonObject O = response(true);
    O.field("op", *Op);
    O.field("session", SupId);
    EmitObj(O);
  } else if (*Op == "submit") {
    std::string SubErr;
    auto Sub = readSubmit(Req, SubErr);
    if (!Sub) {
      Emit(errorLine(*Op, SubErr));
      return true;
    }
    auto SIt = Sessions.find(Sub->Session);
    if (SIt == Sessions.end()) {
      Emit(errorLine(*Op, "unknown session " + std::to_string(Sub->Session)));
      return true;
    }
    JobRec J;
    J.SupSession = Sub->Session;
    J.Shard = SIt->second.Shard;
    J.Check = Sub->Check;
    J.Site = Sub->Site.value_or(0);
    J.HasSite = Sub->Site.has_value();
    J.Priority = Sub->Priority.value_or(0);
    J.HasPriority = Sub->Priority.has_value();
    std::string Resp, RpcErr;
    if (!rpcWithRetry(
            J.Shard,
            [&]() { return submitLineFor(J, SIt->second.ShardId); }, Resp,
            RpcErr)) {
      Emit(errorLine(*Op, RpcErr));
      return true;
    }
    JsonLine R;
    std::string PErr;
    if (!JsonLine::parse(Resp, R, PErr) || !R.getBool("ok").value_or(false)) {
      Emit(Resp); // worker rejection (queue full, ...), id-free
      return true;
    }
    auto ShardJob = R.getUInt("job");
    if (!ShardJob) {
      Emit(errorLine(*Op, "shard returned a malformed job id"));
      return true;
    }
    J.SupId = NextJob++;
    J.ShardJob = *ShardJob;
    Shards[J.Shard].JobsByShardId[*ShardJob] = J.SupId;
    uint64_t SupId = J.SupId;
    Jobs[SupId] = std::move(J);
    ++Stats.Submitted;
    JsonObject O = response(true);
    O.field("op", *Op);
    O.field("job", SupId);
    EmitObj(O);
  } else if (*Op == "cancel" || *Op == "close-session") {
    auto Sess = Req.getUInt("session");
    auto SIt = Sess ? Sessions.find(*Sess) : Sessions.end();
    if (SIt == Sessions.end()) {
      Emit(errorLine(*Op, "unknown session"));
      return true;
    }
    std::string Resp, RpcErr;
    if (!rpcWithRetry(
            SIt->second.Shard,
            [&]() {
              JsonObject Fwd;
              Fwd.field("op", *Op);
              Fwd.field("session", SIt->second.ShardId);
              return Fwd.str();
            },
            Resp, RpcErr)) {
      Emit(errorLine(*Op, RpcErr));
      return true;
    }
    JsonLine R;
    std::string PErr;
    bool Ok = JsonLine::parse(Resp, R, PErr) &&
              R.getBool("ok").value_or(false);
    if (Ok) {
      // Both ops cancel the session's outstanding work on the worker;
      // remember that so a replay after a crash does not resurrect it.
      // Nothing looks a closed session up again: its jobs are all being
      // cancelled, so it leaves the journal now.
      for (auto &[Id, J] : Jobs)
        if (J.SupSession == *Sess)
          J.CancelRequested = true;
      if (*Op == "close-session")
        Sessions.erase(SIt);
    }
    Emit(Resp); // id-free either way: forward verbatim
  } else if (*Op == "drain") {
    handleDrain(Out);
  } else if (*Op == "ping") {
    unsigned Alive = 0;
    for (Shard &Sh : Shards)
      if (Sh.Up && Sh.Ep && Sh.Ep->alive())
        ++Alive;
    JsonObject O = response(true);
    O.field("op", *Op);
    O.field("server", "optabs-shardd");
    O.field("protocol", ProtocolVersion);
    O.field("uptime_s", Uptime.seconds());
    O.field("shards", Opts.NumShards);
    O.field("alive", Alive);
    O.field("pending", Jobs.size());
    EmitObj(O);
  } else if (*Op == "stats") {
    ShardRouterStats S = stats();
    JsonObject O = response(true);
    O.field("op", *Op);
    O.field("shards", Opts.NumShards);
    O.field("restarts", S.Restarts);
    O.field("requeued", S.Requeued);
    O.field("registered", S.Registered);
    O.field("sessions_opened", S.SessionsOpened);
    O.field("submitted", S.Submitted);
    O.field("fulfilled", S.Fulfilled);
    O.field("failed", S.Failed);
    O.field("pending", S.Pending);
    O.field("steals", S.Steals);
    O.field("stolen_jobs", S.StolenJobs);
    EmitObj(O);
  } else if (*Op == "cache") {
    auto Action = Req.getString("action");
    if (!Action) {
      Emit(errorLine(*Op,
                     "cache needs 'action' (stats|persist|load|spill|evict)"));
      return true;
    }
    // Fan out to every shard and sum the counters: with a shared
    // --cache-dir the shards form one cache deployment, so "persist"
    // snapshots all of it and "stats" reports the whole fleet.
    static const char *const SumKeys[] = {
        "entries",       "resident_bytes",     "runs_persisted",
        "verdicts_persisted", "runs_loaded",   "verdicts_loaded",
        "runs_skipped",  "verdicts_skipped",   "spilled",
        "evicted",       "spill_writes",       "spill_loads"};
    constexpr size_t NumSumKeys = sizeof(SumKeys) / sizeof(SumKeys[0]);
    uint64_t Totals[NumSumKeys] = {};
    std::string Notes;
    for (unsigned I = 0; I < Opts.NumShards; ++I) {
      std::string Resp, RpcErr;
      if (!rpcWithRetry(I, Line, Resp, RpcErr)) {
        Emit(errorLine(*Op, "shard " + std::to_string(I) + ": " + RpcErr));
        return true;
      }
      JsonLine R;
      std::string PErr;
      if (!JsonLine::parse(Resp, R, PErr) ||
          !R.getBool("ok").value_or(false)) {
        // Worker rejections are deterministic over the shared config
        // (unknown action, missing cache dir): forward the first one.
        Emit(Resp);
        return true;
      }
      for (size_t K = 0; K < NumSumKeys; ++K)
        Totals[K] += R.getUInt(SumKeys[K]).value_or(0);
      if (auto N = R.getString("notes"); N && !N->empty()) {
        if (!Notes.empty())
          Notes += ';';
        Notes += "shard" + std::to_string(I) + ": " + *N;
      }
    }
    JsonObject O = response(true);
    O.field("op", *Op);
    O.field("action", *Action);
    O.field("shards", Opts.NumShards);
    for (size_t K = 0; K < NumSumKeys; ++K)
      O.field(SumKeys[K], Totals[K]);
    O.field("notes", Notes);
    EmitObj(O);
  } else if (*Op == "explain") {
    auto JobN = Req.getUInt("job");
    if (!JobN) {
      Emit(errorLine(*Op, "explain needs 'job'"));
      return true;
    }
    RetiredJob J;
    if (auto JIt = Jobs.find(*JobN); JIt != Jobs.end()) {
      const JobRec &P = JIt->second;
      J = {P.SupId, P.SupSession, P.Shard,
           P.CancelRequested ? "cancelled" : "pending", P.Requeues};
    } else {
      auto RIt = std::find_if(
          Retired.rbegin(), Retired.rend(),
          [&](const RetiredJob &R) { return R.SupId == *JobN; });
      if (RIt == Retired.rend()) {
        Emit(errorLine(*Op, "no timeline recorded for job " +
                                std::to_string(*JobN)));
        return true;
      }
      J = *RIt;
    }
    JsonObject O = response(true);
    O.field("op", *Op);
    O.field("job", J.SupId);
    O.field("session", J.SupSession);
    O.field("shard", J.Shard);
    O.field("status", J.Status);
    O.field("requeues", J.Requeues);
    if (J.Requeues > 0)
      O.field("note", "requeued after shard restart; verdict unaffected "
                      "(batch-composition independence)");
    EmitObj(O);
  } else if (*Op == "chaos-kill") {
    if (!Opts.AllowChaosOps) {
      Emit(errorLine(*Op, "chaos ops are disabled (start with --chaos)"));
      return true;
    }
    auto ShardN = Req.getUInt("shard");
    if (!ShardN || *ShardN >= Opts.NumShards) {
      Emit(errorLine(*Op, "chaos-kill needs a valid 'shard'"));
      return true;
    }
    killShardForTesting(static_cast<unsigned>(*ShardN));
    JsonObject O = response(true);
    O.field("op", *Op);
    O.field("shard", *ShardN);
    EmitObj(O);
  } else if (*Op == "shutdown") {
    // Best effort: ask every live worker to run its own graceful path
    // (drain, metrics, trace dumps) before we acknowledge.
    for (unsigned I = 0; I < Opts.NumShards; ++I) {
      Shard &Sh = Shards[I];
      if (!Sh.Up || !Sh.Ep || !Sh.Ep->alive())
        continue;
      std::string Resp;
      if (Sh.Ep->sendLine("{\"op\":\"shutdown\"}"))
        Sh.Ep->recvLine(Resp, Opts.RequestTimeoutMs);
      Sh.Up = false;
    }
    JsonObject O = response(true);
    O.field("op", *Op);
    EmitObj(O);
    return false;
  } else {
    Emit(errorLine(*Op, "unknown op '" + *Op + "'"));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// ProcessShardHost: real optabs-serve workers over unix sockets
//===----------------------------------------------------------------------===//

/// Endpoint over a connected LineChannel; liveness and kill go through
/// the host so they stay pid-exact across respawns.
class ProcessShardEndpoint : public ShardEndpoint {
public:
  ProcessShardEndpoint(LineChannel C, ProcessShardHost &H, unsigned Shard,
                       pid_t Pid)
      : Ch(std::move(C)), H(H), Shard(Shard), Pid(Pid) {}

  bool sendLine(const std::string &Line) override {
    return Ch.writeLine(Line);
  }

  RecvStatus recvLine(std::string &Out, int TimeoutMs) override {
    for (;;) {
      switch (Ch.readLine(Out, TimeoutMs)) {
      case LineChannel::ReadStatus::Line:
        return RecvStatus::Line;
      case LineChannel::ReadStatus::Timeout:
        return RecvStatus::Timeout;
      case LineChannel::ReadStatus::Interrupted:
        continue; // a signal aimed at the supervisor, not this worker
      default:
        return RecvStatus::Closed; // EOF, IO error, oversized response
      }
    }
  }

  bool alive() override { return H.workerAlive(Shard, Pid); }
  void kill() override { H.killAndReap(Shard, Pid); }

private:
  LineChannel Ch;
  ProcessShardHost &H;
  unsigned Shard;
  pid_t Pid;
};

ProcessShardHost::ProcessShardHost(Options Opt) : O(std::move(Opt)) {}

ProcessShardHost::~ProcessShardHost() {
  std::lock_guard<std::mutex> L(M);
  for (auto &[Shard, W] : Workers) {
    W.kill();
    W.reap(5000);
  }
  for (auto &[Shard, Path] : SocketPaths)
    ::unlink(Path.c_str());
}

std::unique_ptr<ShardEndpoint> ProcessShardHost::spawn(unsigned Shard,
                                                       std::string &Err) {
  std::string SockPath;
  {
    std::lock_guard<std::mutex> L(M);
    auto It = Workers.find(Shard);
    if (It != Workers.end()) {
      It->second.kill();
      It->second.reap(5000);
      Workers.erase(It);
    }
    // The previous incarnation was SIGKILLed, so its socket file is an
    // orphan nothing will ever unlink but us.
    auto PIt = SocketPaths.find(Shard);
    if (PIt != SocketPaths.end()) {
      ::unlink(PIt->second.c_str());
      SocketPaths.erase(PIt);
    }
    // A fresh socket path per incarnation: never connect to a socket a
    // dying previous worker might still own.
    SockPath = O.SocketDir + "/optabs-shard-" +
               std::to_string(static_cast<long>(::getpid())) + "-" +
               std::to_string(Shard) + "-" + std::to_string(++Incarnation) +
               ".sock";
  }

  std::vector<std::string> Argv;
  Argv.push_back(O.ServeBinary);
  Argv.push_back("--listen=unix:" + SockPath);
  for (const std::string &A : O.WorkerArgs)
    Argv.push_back(A);

  support::ChildProcess C = support::ChildProcess::spawn(Argv, Err);
  if (!C.valid())
    return nullptr;
  pid_t Pid = C.pid();

  ListenSpec Spec;
  std::string SpecErr;
  if (!ListenSpec::parse("unix:" + SockPath, Spec, SpecErr)) {
    Err = SpecErr;
    C.kill();
    C.reap(5000);
    ::unlink(SockPath.c_str());
    return nullptr;
  }
  std::string ConnErr;
  LineChannel Ch =
      connectChannel(Spec, O.ConnectTimeoutMs, ConnErr, O.MaxLineBytes);
  if (!Ch.valid()) {
    Err = "worker for shard " + std::to_string(Shard) +
          " never started accepting: " + ConnErr;
    C.kill();
    C.reap(5000);
    ::unlink(SockPath.c_str());
    return nullptr;
  }

  {
    std::lock_guard<std::mutex> L(M);
    Workers[Shard] = std::move(C);
    SocketPaths[Shard] = SockPath;
  }
  return std::make_unique<ProcessShardEndpoint>(std::move(Ch), *this, Shard,
                                                Pid);
}

void ProcessShardHost::killWorker(unsigned Shard) {
  std::lock_guard<std::mutex> L(M);
  auto It = Workers.find(Shard);
  if (It != Workers.end())
    It->second.kill();
}

bool ProcessShardHost::workerAlive(unsigned Shard, pid_t Pid) {
  std::lock_guard<std::mutex> L(M);
  auto It = Workers.find(Shard);
  if (It == Workers.end() || It->second.pid() != Pid)
    return false;
  return It->second.alive();
}

void ProcessShardHost::killAndReap(unsigned Shard, pid_t Pid) {
  std::lock_guard<std::mutex> L(M);
  auto It = Workers.find(Shard);
  if (It == Workers.end() || It->second.pid() != Pid)
    return;
  It->second.kill();
  It->second.reap(5000);
  auto PIt = SocketPaths.find(Shard);
  if (PIt != SocketPaths.end()) {
    ::unlink(PIt->second.c_str());
    SocketPaths.erase(PIt);
  }
}

} // namespace service
} // namespace optabs
