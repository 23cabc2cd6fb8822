//===- ShardRouterTest.cpp - Supervisor failure-path tests ----------------===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Every failure path of service/ShardRouter.h driven by scripted fakes:
// worker death during register-program, during a re-register migration,
// with zero pending jobs; hung-shard request timeouts with bounded
// retries; restart-exhaustion failing jobs loudly; cancelled jobs staying
// cancelled across a requeue; retirement of answered jobs and closed
// sessions (explain afterwards, replay and stealing with retired jobs
// around, a long soak); and the exponential backoff ladder (caps,
// jitter bounds, healthy-interval reset) against a fake clock. The real
// subprocess topology is exercised end to end by ChaosTest.cpp; here the
// point is determinism - each scenario is exact, not probabilistic.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"
#include "service/ShardRouter.h"

#include "gtest/gtest.h"

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace optabs {
namespace service {
namespace {

using tracer::JsonObject;

//===----------------------------------------------------------------------===//
// Fakes
//===----------------------------------------------------------------------===//

/// An in-process stand-in for one optabs-serve worker: real protocol
/// responses, scriptable deaths and hangs, full request log.
class FakeShard : public ShardEndpoint {
public:
  // Failure knobs.
  std::function<bool(const std::string &Op, const std::string &Line)>
      DieOnRequest;           ///< true = die instead of answering
  bool HangOnNonPing = false; ///< swallow every non-ping request
  bool GarbageOnDrain = false; ///< answer drain with an endless non-
                               ///< protocol stream, each line "in time"
  uint64_t DirtyChecks = 1;    ///< dirty set size a re-registration reports
  bool Dead = false;
  bool Hung = false;
  bool StreamingGarbage = false;

  // Observable worker state.
  std::vector<std::string> RequestLog;
  std::map<std::string, std::string> Programs;
  std::map<uint64_t, std::string> SessionPrograms;
  struct Job {
    uint64_t Session = 0;
    uint32_t Check = 0;
    bool Cancelled = false;
  };
  std::map<uint64_t, Job> Pending;

  bool sendLine(const std::string &Line) override {
    if (Dead)
      return false;
    RequestLog.push_back(Line);
    JsonLine Req;
    std::string Err;
    if (!JsonLine::parse(Line, Req, Err)) {
      OutQ.push_back(errorLine("", Err));
      return true;
    }
    std::string Op = Req.getString("op").value_or("");
    if (DieOnRequest && DieOnRequest(Op, Line)) {
      Dead = true;
      OutQ.clear();
      return true; // the write "succeeded"; the death shows on recv
    }
    if (HangOnNonPing && Op != "ping") {
      Hung = true;
      return true;
    }
    handle(Op, Req);
    return true;
  }

  RecvStatus recvLine(std::string &Out, int) override {
    if (StreamingGarbage && !Dead) {
      Out = "=== not a protocol line ===";
      return RecvStatus::Line;
    }
    if (!OutQ.empty()) {
      Out = OutQ.front();
      OutQ.pop_front();
      if (DieAfterQueue && OutQ.empty())
        Dead = true; // shutdown ack delivered; the worker exits now
      return RecvStatus::Line;
    }
    if (Hung && !Dead)
      return RecvStatus::Timeout;
    return RecvStatus::Closed;
  }

  bool alive() override { return !Dead; }
  void kill() override {
    Dead = true;
    OutQ.clear();
  }

private:
  void handle(const std::string &Op, const JsonLine &Req) {
    auto Emit = [this](const JsonObject &O) { OutQ.push_back(O.str()); };
    if (Op == "ping") {
      JsonObject O = response(true);
      O.field("op", Op);
      O.field("server", "fake-shard");
      Emit(O);
    } else if (Op == "register-program") {
      std::string Name = Req.getString("name").value_or("");
      bool ReRegistered = Programs.count(Name) != 0;
      Programs[Name] = Req.getString("text").value_or("");
      JsonObject O = response(true);
      O.field("op", Op);
      O.field("name", Name);
      O.field("epoch", ++Epoch);
      O.field("checks", 1);
      O.field("allocs", 2);
      if (ReRegistered) { // the dirty set optabs-serve sends
        O.field("incremental", true);
        O.field("dirty_checks", DirtyChecks);
        O.field("dirty_procs", 1);
        O.field("dirty", "main");
      }
      Emit(O);
    } else if (Op == "open-session") {
      std::string Program = Req.getString("program").value_or("");
      if (!Programs.count(Program)) {
        OutQ.push_back(
            errorLine(Op, "program '" + Program + "' is not registered"));
        return;
      }
      uint64_t Id = NextSession++;
      SessionPrograms[Id] = Program;
      JsonObject O = response(true);
      O.field("op", Op);
      O.field("session", Id);
      Emit(O);
    } else if (Op == "submit") {
      uint64_t Id = NextJob++;
      Job J;
      J.Session = Req.getUInt("session").value_or(0);
      J.Check = static_cast<uint32_t>(Req.getUInt("check").value_or(0));
      Pending[Id] = J;
      JsonObject O = response(true);
      O.field("op", Op);
      O.field("job", Id);
      Emit(O);
    } else if (Op == "cancel" || Op == "close-session") {
      uint64_t Sess = Req.getUInt("session").value_or(0);
      size_t N = 0;
      for (auto &[Id, J] : Pending)
        if (J.Session == Sess && !J.Cancelled) {
          J.Cancelled = true;
          ++N;
        }
      JsonObject O = response(true);
      O.field("op", Op);
      if (Op == "cancel")
        O.field("cancelled", N);
      Emit(O);
    } else if (Op == "drain") {
      if (GarbageOnDrain) {
        StreamingGarbage = true; // recvLine now babbles forever
        return;
      }
      size_t N = 0;
      for (auto &[Id, J] : Pending) {
        JsonObject O = response(true);
        O.field("op", "result");
        O.field("job", Id);
        O.field("session", J.Session);
        if (J.Cancelled) {
          O.field("status", "cancelled");
          O.field("error", "cancelled by client");
        } else {
          O.field("status", "done");
          O.field("verdict", "proven");
          O.field("iterations", 1);
          O.field("cost", J.Check);
          O.field("param", "[P" + std::to_string(J.Check) + "]");
        }
        Emit(O);
        ++N;
      }
      Pending.clear();
      JsonObject O = response(true);
      O.field("op", Op);
      O.field("results", N);
      Emit(O);
    } else if (Op == "shutdown") {
      JsonObject O = response(true);
      O.field("op", Op);
      Emit(O);
      // Dead only after the ack drains, like the real worker.
      DieAfterQueue = true;
    } else {
      OutQ.push_back(errorLine(Op, "unknown op '" + Op + "'"));
    }
  }

  std::deque<std::string> OutQ;
  uint64_t NextSession = 1;
  uint64_t NextJob = 1;
  uint64_t Epoch = 0;
  bool DieAfterQueue = false;
};

class FakeHost : public ShardHost {
public:
  explicit FakeHost(unsigned N)
      : SpawnCount(N, 0), Live(N, nullptr), FailSpawns(N, 0) {}

  /// Called for every new incarnation so tests can arm failure knobs.
  std::function<void(unsigned Shard, unsigned Incarnation, FakeShard &)>
      Configure;
  std::vector<unsigned> SpawnCount;
  std::vector<FakeShard *> Live; ///< latest incarnation (dangles for older)
  std::vector<int> FailSpawns;   ///< fail the next N spawns of a shard

  std::unique_ptr<ShardEndpoint> spawn(unsigned Shard,
                                       std::string &Err) override {
    ++SpawnCount[Shard];
    if (FailSpawns[Shard] > 0) {
      --FailSpawns[Shard];
      Err = "injected spawn failure";
      return nullptr;
    }
    auto S = std::make_unique<FakeShard>();
    if (Configure)
      Configure(Shard, SpawnCount[Shard], *S);
    Live[Shard] = S.get();
    return S;
  }
};

class FakeClock : public RouterClock {
public:
  uint64_t Now = 1000;
  std::vector<uint64_t> Sleeps;
  uint64_t nowMs() override { return Now; }
  void sleepMs(uint64_t Ms) override {
    Sleeps.push_back(Ms);
    Now += Ms;
  }
};

//===----------------------------------------------------------------------===//
// Harness
//===----------------------------------------------------------------------===//

ShardRouterOptions testOptions(unsigned Shards) {
  ShardRouterOptions O;
  O.NumShards = Shards;
  O.RequestTimeoutMs = 1000;
  O.MaxRequestRetries = 2;
  O.BackoffInitialMs = 100;
  O.BackoffMaxMs = 5000;
  O.BackoffResetMs = 60000;
  O.BackoffJitter = 0.0; // exact sleep asserts; jitter has its own test
  O.MaxRestartAttempts = 3;
  return O;
}

std::vector<std::string> run(ShardRouter &R, const std::string &Line) {
  std::vector<std::string> Out;
  R.handleLine(Line, Out);
  return Out;
}

const char *kRegisterFig =
    "{\"op\":\"register-program\",\"name\":\"fig\",\"text\":\"proc main { "
    "check(u); }\"}";

std::string openLine(const std::string &Client) {
  return "{\"op\":\"open-session\",\"program\":\"fig\",\"client\":\"" +
         Client + "\"}";
}

/// First response must be ok:true and parse; returns it.
JsonLine okResponse(const std::vector<std::string> &Out) {
  EXPECT_EQ(Out.size(), 1u);
  JsonLine R;
  std::string Err;
  EXPECT_TRUE(JsonLine::parse(Out.at(0), R, Err)) << Out.at(0);
  EXPECT_TRUE(R.getBool("ok").value_or(false)) << Out.at(0);
  return R;
}

std::string submitLine(uint64_t Session, uint32_t Check) {
  return "{\"op\":\"submit\",\"session\":" + std::to_string(Session) +
         ",\"check\":" + std::to_string(Check) + "}";
}

std::string explainLine(uint64_t Job) {
  return "{\"op\":\"explain\",\"job\":" + std::to_string(Job) + "}";
}

/// Asserts `explain` of \p Job reports \p Status and \p Requeues, with
/// the requeue note exactly when \p Requeues > 0.
void expectExplain(ShardRouter &R, uint64_t Job, const std::string &Status,
                   uint64_t Requeues) {
  JsonLine Exp = okResponse(run(R, explainLine(Job)));
  EXPECT_EQ(Exp.getString("status").value_or(""), Status) << "job " << Job;
  EXPECT_EQ(Exp.getUInt("requeues").value_or(99), Requeues) << "job " << Job;
  EXPECT_EQ(Exp.getString("note").has_value(), Requeues > 0) << "job " << Job;
}

size_t countOp(const std::vector<std::string> &Lines, const std::string &Op) {
  size_t N = 0;
  for (const std::string &L : Lines)
    N += L.find("\"op\":\"" + Op + "\"") != std::string::npos;
  return N;
}

//===----------------------------------------------------------------------===//
// Routing basics
//===----------------------------------------------------------------------===//

TEST(ShardRouterTest, PartitioningIsDeterministicAndCovering) {
  FakeHost Host(4);
  ShardRouter R(testOptions(4), Host);
  // Stable across runs and platforms (fnv1a, not std::hash)...
  EXPECT_EQ(R.shardFor("fig", "escape"), R.shardFor("fig", "escape"));
  // ...and different tenants do spread (sanity, not uniformity).
  bool Spread = false;
  for (int I = 1; I < 16 && !Spread; ++I)
    Spread = R.shardFor("fig", "client" + std::to_string(I)) !=
             R.shardFor("fig", "client0");
  EXPECT_TRUE(Spread);
}

TEST(ShardRouterTest, HappyPathRegistersRoutesAndDrains) {
  FakeHost Host(2);
  ShardRouter R(testOptions(2), Host);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  EXPECT_EQ(Host.SpawnCount[0] + Host.SpawnCount[1], 2u);

  JsonLine Reg = okResponse(run(R, kRegisterFig));
  EXPECT_EQ(Reg.getUInt("epoch").value_or(0), 1u);
  // The broadcast reached both workers.
  EXPECT_TRUE(Host.Live[0]->Programs.count("fig"));
  EXPECT_TRUE(Host.Live[1]->Programs.count("fig"));

  JsonLine Open = okResponse(run(R, openLine("escape")));
  EXPECT_EQ(Open.getUInt("session").value_or(0), 1u);
  JsonLine Sub = okResponse(
      run(R, "{\"op\":\"submit\",\"session\":1,\"check\":7}"));
  EXPECT_EQ(Sub.getUInt("job").value_or(0), 1u);

  std::vector<std::string> Out = run(R, "{\"op\":\"drain\"}");
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_NE(Out[0].find("\"job\":1"), std::string::npos);
  EXPECT_NE(Out[0].find("\"session\":1"), std::string::npos);
  EXPECT_NE(Out[0].find("\"param\":\"[P7]\""), std::string::npos);
  EXPECT_EQ(Out[1],
            "{\"v\":1,\"ok\":true,\"op\":\"drain\",\"results\":1,"
            "\"requeued\":0}");
}

TEST(ShardRouterTest, OutOfRangeCheckIsRejectedNotNarrowed) {
  FakeHost Host(1);
  ShardRouter R(testOptions(1), Host);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  okResponse(run(R, kRegisterFig));
  okResponse(run(R, openLine("escape")));
  // 2^32 narrows to check 0 in 32 bits, and 2^64 wraps to 0 in 64: each
  // must be refused, never served as check 0's verdict.
  for (const char *Check : {"4294967296", "18446744073709551616"}) {
    std::vector<std::string> Out = run(
        R, "{\"op\":\"submit\",\"session\":1,\"check\":" +
               std::string(Check) + "}");
    ASSERT_EQ(Out.size(), 1u);
    EXPECT_NE(Out[0].find("\"ok\":false"), std::string::npos) << Out[0];
  }
  for (const std::string &Line : Host.Live[0]->RequestLog)
    EXPECT_EQ(Line.find("\"op\":\"submit\""), std::string::npos) << Line;
}

TEST(ShardRouterTest, ShutdownReachesEveryWorkerAndStopsTheLoop) {
  FakeHost Host(2);
  ShardRouter R(testOptions(2), Host);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  std::vector<std::string> Out;
  EXPECT_FALSE(R.handleLine("{\"op\":\"shutdown\"}", Out));
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0], "{\"v\":1,\"ok\":true,\"op\":\"shutdown\"}");
  for (unsigned I = 0; I < 2; ++I)
    EXPECT_NE(Host.Live[I]->RequestLog.back().find("shutdown"),
              std::string::npos);
}

//===----------------------------------------------------------------------===//
// Death during register-program
//===----------------------------------------------------------------------===//

TEST(ShardRouterTest, DeathDuringRegisterRestartsAndRetries) {
  FakeHost Host(2);
  // Incarnation 1 of shard 1 dies the moment it sees a registration.
  Host.Configure = [](unsigned Shard, unsigned Inc, FakeShard &S) {
    if (Shard == 1 && Inc == 1)
      S.DieOnRequest = [](const std::string &Op, const std::string &) {
        return Op == "register-program";
      };
  };
  ShardRouter R(testOptions(2), Host);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;

  JsonLine Reg = okResponse(run(R, kRegisterFig));
  EXPECT_EQ(Reg.getUInt("epoch").value_or(0), 1u);
  EXPECT_EQ(Host.SpawnCount[1], 2u); // died once, respawned once
  EXPECT_EQ(R.stats().Restarts, 1u);
  // The journal was not yet updated when the shard died, so the replay
  // sent nothing; the retried broadcast delivered the program.
  EXPECT_TRUE(Host.Live[1]->Programs.count("fig"));
  EXPECT_TRUE(Host.Live[0]->Programs.count("fig"));
}

TEST(ShardRouterTest, ReRegisterReplyCarriesShardZeroDirtySet) {
  FakeHost Host(2);
  // The shards disagree on purpose, to pin whose dirty set is forwarded.
  Host.Configure = [](unsigned Shard, unsigned, FakeShard &S) {
    S.DirtyChecks = Shard == 0 ? 1 : 5;
  };
  ShardRouter R(testOptions(2), Host);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;

  // A first registration has no dirty set to report.
  std::vector<std::string> Out = run(R, kRegisterFig);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0], "{\"v\":1,\"ok\":true,\"op\":\"register-program\","
                    "\"name\":\"fig\",\"epoch\":1,\"checks\":1,"
                    "\"allocs\":2}");

  // A one-store edit: the reply has the shape optabs-serve gives, with
  // shard 0's dirty set.
  Out = run(R, "{\"op\":\"register-program\",\"name\":\"fig\",\"text\":"
               "\"proc main { u.f = v; check(u); }\"}");
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0], "{\"v\":1,\"ok\":true,\"op\":\"register-program\","
                    "\"name\":\"fig\",\"epoch\":2,\"checks\":1,"
                    "\"allocs\":2,\"incremental\":true,\"dirty_checks\":1,"
                    "\"dirty_procs\":1,\"dirty\":\"main\"}");
}

//===----------------------------------------------------------------------===//
// Death during a re-register migration
//===----------------------------------------------------------------------===//

TEST(ShardRouterTest, DeathDuringReRegisterReplaysOldStateThenRetries) {
  FakeHost Host(2);
  ShardRouter R(testOptions(2), Host);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  okResponse(run(R, kRegisterFig));
  okResponse(run(R, openLine("escape")));
  okResponse(run(R, "{\"op\":\"submit\",\"session\":1,\"check\":3}"));
  unsigned Home = R.shardFor("fig", "escape");

  // The session's shard dies on the NEXT registration (the re-register).
  Host.Live[Home]->DieOnRequest = [](const std::string &Op,
                                     const std::string &) {
    return Op == "register-program";
  };
  std::string ReRegister =
      "{\"op\":\"register-program\",\"name\":\"fig\",\"text\":\"proc main "
      "{ check(v); }\"}";
  JsonLine Reg = okResponse(run(R, ReRegister));
  EXPECT_EQ(Reg.getUInt("epoch").value_or(0), 2u);

  // The restart replayed the OLD journal first (program text at the time
  // of death), re-opened the session, requeued the in-flight job - and
  // only then did the retried re-register land.
  FakeShard &S = *Host.Live[Home];
  EXPECT_EQ(S.Programs.at("fig"), "proc main { check(v); }");
  EXPECT_EQ(S.SessionPrograms.size(), 1u);
  ASSERT_EQ(S.Pending.size(), 1u);
  EXPECT_EQ(S.Pending.begin()->second.Check, 3u);
  EXPECT_EQ(R.stats().Requeued, 1u);

  // The requeued job still resolves, and the requeue is not silent.
  std::vector<std::string> Out = run(R, "{\"op\":\"drain\"}");
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_NE(Out[0].find("\"job\":1"), std::string::npos);
  EXPECT_NE(Out[0].find("\"status\":\"done\""), std::string::npos);
  EXPECT_NE(Out[1].find("\"requeued\":1"), std::string::npos);

  JsonLine Exp = okResponse(run(R, "{\"op\":\"explain\",\"job\":1}"));
  EXPECT_EQ(Exp.getUInt("requeues").value_or(0), 1u);
  EXPECT_NE(Exp.getString("note").value_or("").find("requeued"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Death with zero pending jobs
//===----------------------------------------------------------------------===//

TEST(ShardRouterTest, ZeroPendingDeathRestartsWithoutRequeue) {
  FakeHost Host(2);
  ShardRouter R(testOptions(2), Host);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  okResponse(run(R, kRegisterFig));
  okResponse(run(R, openLine("escape")));
  unsigned Home = R.shardFor("fig", "escape");

  Host.Live[Home]->kill();
  // The next request routed there detects the death, restarts, replays
  // the registration and the session - and requeues nothing.
  JsonLine Sub = okResponse(
      run(R, "{\"op\":\"submit\",\"session\":1,\"check\":9}"));
  EXPECT_EQ(Sub.getUInt("job").value_or(0), 1u);
  EXPECT_EQ(R.stats().Restarts, 1u);
  EXPECT_EQ(R.stats().Requeued, 0u);
  FakeShard &S = *Host.Live[Home];
  EXPECT_TRUE(S.Programs.count("fig"));
  EXPECT_EQ(S.SessionPrograms.size(), 1u);
  ASSERT_EQ(S.Pending.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Hung shards: per-request timeout, bounded retries
//===----------------------------------------------------------------------===//

TEST(ShardRouterTest, HungShardIsKilledAndRetriesAreBounded) {
  FakeHost Host(1);
  // Every incarnation answers ping (so restarts "succeed") but swallows
  // real work: the pathological always-hung shard.
  Host.Configure = [](unsigned, unsigned, FakeShard &S) {
    S.HangOnNonPing = true;
  };
  FakeClock Clock;
  ShardRouter R(testOptions(1), Host, &Clock);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;

  std::vector<std::string> Out = run(R, kRegisterFig);
  ASSERT_EQ(Out.size(), 1u);
  JsonLine Resp;
  ASSERT_TRUE(JsonLine::parse(Out[0], Resp, Err));
  EXPECT_FALSE(Resp.getBool("ok").value_or(true));
  EXPECT_NE(Resp.getString("error").value_or("").find("did not answer"),
            std::string::npos);
  // MaxRequestRetries=2 -> exactly 3 attempts: the original incarnation
  // plus two restarts, every one killed after its timeout.
  EXPECT_EQ(Host.SpawnCount[0], 3u);
  EXPECT_EQ(R.stats().Restarts, 2u);
}

TEST(ShardRouterTest, RestartExhaustionFailsPendingJobsLoudly) {
  FakeHost Host(1);
  FakeClock Clock; // every failed respawn sleeps the ladder; keep it fake
  ShardRouter R(testOptions(1), Host, &Clock);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  okResponse(run(R, kRegisterFig));
  okResponse(run(R, openLine("escape")));
  okResponse(run(R, "{\"op\":\"submit\",\"session\":1,\"check\":1}"));

  // The shard dies and every respawn fails: the job must fail with a
  // structured error instead of hanging the drain forever.
  Host.Live[0]->kill();
  Host.FailSpawns[0] = 1000;
  std::vector<std::string> Out = run(R, "{\"op\":\"drain\"}");
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_NE(Out[0].find("\"status\":\"failed\""), std::string::npos);
  EXPECT_NE(Out[0].find("unavailable"), std::string::npos);
  EXPECT_NE(Out[1].find("\"results\":1"), std::string::npos);
  EXPECT_EQ(R.stats().Failed, 1u);
  EXPECT_EQ(R.stats().Pending, 0u);

  // A later drain must not re-emit the failed job.
  Out = run(R, "{\"op\":\"drain\"}");
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_NE(Out[0].find("\"results\":0"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Cancel vs requeue
//===----------------------------------------------------------------------===//

TEST(ShardRouterTest, CancelledJobsAreNotResurrectedByReplay) {
  FakeHost Host(1);
  ShardRouter R(testOptions(1), Host);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  okResponse(run(R, kRegisterFig));
  okResponse(run(R, openLine("escape")));
  okResponse(run(R, "{\"op\":\"submit\",\"session\":1,\"check\":1}"));
  okResponse(run(R, "{\"op\":\"submit\",\"session\":1,\"check\":2}"));
  okResponse(run(R, "{\"op\":\"cancel\",\"session\":1}"));

  Host.Live[0]->kill();
  std::vector<std::string> Out = run(R, "{\"op\":\"drain\"}");
  ASSERT_EQ(Out.size(), 3u);
  for (int I = 0; I < 2; ++I) {
    EXPECT_NE(Out[I].find("\"status\":\"cancelled\""), std::string::npos);
    EXPECT_NE(Out[I].find("cancelled by client"), std::string::npos);
  }
  // The replayed worker never saw the cancelled jobs again.
  EXPECT_TRUE(Host.Live[0]->Pending.empty());
  EXPECT_EQ(R.stats().Requeued, 0u);
  // Retired by the replay, they still explain as cancelled.
  expectExplain(R, 1, "cancelled", 0);
  expectExplain(R, 2, "cancelled", 0);
}

TEST(ShardRouterTest, CancelledJobsExplainAsCancelledAfterTheirDrain) {
  FakeHost Host(1);
  ShardRouter R(testOptions(1), Host);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  okResponse(run(R, kRegisterFig));
  okResponse(run(R, openLine("escape")));
  okResponse(run(R, submitLine(1, 1)));
  okResponse(run(R, submitLine(1, 2)));
  okResponse(run(R, "{\"op\":\"cancel\",\"session\":1}"));
  expectExplain(R, 1, "cancelled", 0); // pending, cancel acknowledged

  // No kill: the worker itself answers the cancelled jobs at drain.
  std::vector<std::string> Out = run(R, "{\"op\":\"drain\"}");
  ASSERT_EQ(Out.size(), 3u);
  for (int I = 0; I < 2; ++I)
    EXPECT_NE(Out[I].find("\"status\":\"cancelled\""), std::string::npos);
  expectExplain(R, 1, "cancelled", 0);
  expectExplain(R, 2, "cancelled", 0);
}

//===----------------------------------------------------------------------===//
// Retried requests rebuild shard-local ids after a replay
//===----------------------------------------------------------------------===//

// A restart renumbers shard-local session ids: replay skips Closed
// sessions while the fresh worker mints ids from 1. A submit or cancel
// retried after that restart must re-read SessionRec::ShardId, or it
// targets a stale id - a different session on the new worker.
TEST(ShardRouterTest, RetriedSubmitAndCancelUseFreshSessionIdsAfterReplay) {
  FakeHost Host(1);
  FakeClock Clock;
  ShardRouter R(testOptions(1), Host, &Clock);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  okResponse(run(R, kRegisterFig));
  okResponse(run(R, openLine("a"))); // sup 1, shard-local 1
  okResponse(run(R, openLine("b"))); // sup 2, shard-local 2
  okResponse(run(R, "{\"op\":\"close-session\",\"session\":1}"));

  // The worker dies on the submit; the retry lands after a replay in
  // which session sup-2 is the only live session, re-minted as local 1.
  Host.Live[0]->DieOnRequest = [](const std::string &Op,
                                  const std::string &) {
    return Op == "submit";
  };
  JsonLine Sub = okResponse(
      run(R, "{\"op\":\"submit\",\"session\":2,\"check\":7}"));
  EXPECT_EQ(Sub.getUInt("job").value_or(0), 1u);
  EXPECT_EQ(R.stats().Restarts, 1u);
  {
    FakeShard &S = *Host.Live[0];
    EXPECT_EQ(S.SessionPrograms.size(), 1u);
    ASSERT_EQ(S.Pending.size(), 1u);
    // The stale pre-replay line would have carried session 2, which does
    // not exist on this incarnation.
    EXPECT_EQ(S.Pending.begin()->second.Session, 1u);
    EXPECT_EQ(S.Pending.begin()->second.Check, 7u);
  }

  // Same ladder for cancel: close sup-2 so the id stream diverges again,
  // then kill the worker on the cancel of sup-3.
  okResponse(run(R, openLine("c"))); // sup 3, shard-local 2
  okResponse(run(R, "{\"op\":\"submit\",\"session\":3,\"check\":9}"));
  okResponse(run(R, "{\"op\":\"close-session\",\"session\":2}"));
  Host.Live[0]->DieOnRequest = [](const std::string &Op,
                                  const std::string &) {
    return Op == "cancel";
  };
  okResponse(run(R, "{\"op\":\"cancel\",\"session\":3}"));
  EXPECT_EQ(R.stats().Restarts, 2u);
  {
    FakeShard &S = *Host.Live[0];
    EXPECT_EQ(S.SessionPrograms.size(), 1u);
    ASSERT_EQ(S.Pending.size(), 1u); // the requeued sup-3 job
    EXPECT_EQ(S.Pending.begin()->second.Session, 1u);
    // The retried cancel reached the requeued job: a stale session id
    // would have cancelled nothing.
    EXPECT_TRUE(S.Pending.begin()->second.Cancelled);
  }

  // Everything still resolves: both jobs were cancelled along the way.
  std::vector<std::string> Out = run(R, "{\"op\":\"drain\"}");
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_NE(Out[0].find("\"status\":\"cancelled\""), std::string::npos);
  EXPECT_NE(Out[1].find("\"status\":\"cancelled\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Garbage-streaming shards cannot pin the drain loop
//===----------------------------------------------------------------------===//

TEST(ShardRouterTest, GarbageStreamingDrainIsBoundedKilledAndRequeued) {
  FakeHost Host(1);
  // Incarnation 1 answers drain with an endless stream of non-protocol
  // lines, each arriving within the request timeout; later incarnations
  // are healthy.
  Host.Configure = [](unsigned, unsigned Inc, FakeShard &S) {
    if (Inc == 1)
      S.GarbageOnDrain = true;
  };
  FakeClock Clock;
  ShardRouter R(testOptions(1), Host, &Clock);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  okResponse(run(R, kRegisterFig));
  okResponse(run(R, openLine("escape")));
  okResponse(run(R, "{\"op\":\"submit\",\"session\":1,\"check\":4}"));

  // Without the per-drain line budget this call never returns.
  std::vector<std::string> Out = run(R, "{\"op\":\"drain\"}");
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_NE(Out[0].find("\"status\":\"done\""), std::string::npos);
  EXPECT_NE(Out[0].find("\"param\":\"[P4]\""), std::string::npos);
  EXPECT_NE(Out[1].find("\"requeued\":1"), std::string::npos);
  EXPECT_EQ(R.stats().Restarts, 1u);
  EXPECT_EQ(R.stats().Fulfilled, 1u);
  EXPECT_EQ(R.stats().Pending, 0u);
}

//===----------------------------------------------------------------------===//
// Retirement: the supervisor keeps only live state
//===----------------------------------------------------------------------===//

TEST(ShardRouterTest, ExplainAfterRetirementKeepsStatusAndRequeueNote) {
  FakeHost Host(1);
  FakeClock Clock;
  ShardRouter R(testOptions(1), Host, &Clock);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  okResponse(run(R, kRegisterFig));
  okResponse(run(R, openLine("a"))); // session 1
  okResponse(run(R, openLine("b"))); // session 2

  // Fulfilled: job 1 is requeued by the restart the submit of job 2
  // detects; job 2 never moves.
  okResponse(run(R, submitLine(1, 1)));
  Host.Live[0]->kill();
  okResponse(run(R, submitLine(1, 2)));
  // Cancelled: job 3, acknowledged before the drain.
  okResponse(run(R, submitLine(2, 3)));
  okResponse(run(R, "{\"op\":\"cancel\",\"session\":2}"));
  std::vector<std::string> Out = run(R, "{\"op\":\"drain\"}");
  ASSERT_EQ(Out.size(), 4u);
  EXPECT_EQ(R.stats().Pending, 0u);
  expectExplain(R, 1, "fulfilled", 1);
  expectExplain(R, 2, "fulfilled", 0);
  expectExplain(R, 3, "cancelled", 0);

  // Failed: job 4 is requeued once, then the shard never comes back.
  okResponse(run(R, submitLine(1, 4)));
  Host.Live[0]->kill();
  okResponse(run(R, submitLine(1, 5)));
  Host.Live[0]->kill();
  Host.FailSpawns[0] = 1000;
  Out = run(R, "{\"op\":\"drain\"}");
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_NE(Out[0].find("after 1 requeue(s)"), std::string::npos) << Out[0];
  expectExplain(R, 4, "failed", 1);
  expectExplain(R, 5, "failed", 0);
  EXPECT_EQ(R.stats().Failed, 2u);
}

TEST(ShardRouterTest, ExplainPastTheRetiredRingHasNoTimeline) {
  FakeHost Host(1);
  ShardRouter R(testOptions(1), Host);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  okResponse(run(R, kRegisterFig));
  okResponse(run(R, openLine("escape")));
  // 4096 + 1 retirements: job 1 falls off the ring, job 2 is its oldest.
  const uint64_t Jobs = 4097;
  for (uint64_t J = 1; J <= Jobs; ++J) {
    okResponse(run(R, submitLine(1, 1)));
    if (J % 512 == 0 || J == Jobs)
      run(R, "{\"op\":\"drain\"}");
  }
  EXPECT_EQ(R.stats().Fulfilled, Jobs);
  EXPECT_EQ(run(R, explainLine(1)),
            std::vector<std::string>{
                errorLine("explain", "no timeline recorded for job 1")});
  expectExplain(R, 2, "fulfilled", 0);
  expectExplain(R, Jobs, "fulfilled", 0);
}

TEST(ShardRouterTest, DeathDuringDrainAfterRetirementsResubmitsLiveJobsOnly) {
  FakeHost Host(1);
  FakeClock Clock;
  ShardRouter R(testOptions(1), Host, &Clock);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  okResponse(run(R, kRegisterFig));
  okResponse(run(R, openLine("escape")));
  for (uint32_t C = 1; C <= 3; ++C)
    okResponse(run(R, submitLine(1, C)));
  ASSERT_EQ(run(R, "{\"op\":\"drain\"}").size(), 4u);

  okResponse(run(R, submitLine(1, 14)));
  okResponse(run(R, submitLine(1, 15)));
  // The worker dies mid-drain, SIGKILL style: after the drain request
  // is written, before any result comes back.
  Host.Live[0]->DieOnRequest = [](const std::string &Op,
                                  const std::string &) {
    return Op == "drain";
  };
  std::vector<std::string> Out = run(R, "{\"op\":\"drain\"}");
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_NE(Out[0].find("\"job\":4"), std::string::npos) << Out[0];
  EXPECT_NE(Out[0].find("\"param\":\"[P14]\""), std::string::npos);
  EXPECT_NE(Out[1].find("\"job\":5"), std::string::npos) << Out[1];
  EXPECT_NE(Out[2].find("\"results\":2,\"requeued\":2"), std::string::npos)
      << Out[2];

  // The fresh worker got the two live jobs and none of the retired ones.
  const std::vector<std::string> &Log = Host.Live[0]->RequestLog;
  ASSERT_EQ(countOp(Log, "submit"), 2u);
  for (const std::string &L : Log) {
    if (L.find("\"op\":\"submit\"") != std::string::npos) {
      EXPECT_TRUE(L.find("\"check\":14") != std::string::npos ||
                  L.find("\"check\":15") != std::string::npos)
          << L;
    }
  }
  expectExplain(R, 1, "fulfilled", 0);
  expectExplain(R, 4, "fulfilled", 1);
}

TEST(ShardRouterTest, StealMovesOnlyTheLiveJobsOfASessionWithRetiredOnes) {
  FakeHost Host(2);
  ShardRouterOptions O = testOptions(2);
  O.StealThreshold = 2;
  ShardRouter R(O, Host);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  okResponse(run(R, kRegisterFig));
  // Two sessions on one shard, so one steal evens the load and the loop
  // stops there.
  unsigned Victim = R.shardFor("fig", "a");
  std::string Peer;
  for (int I = 0; Peer.empty() || R.shardFor("fig", Peer) != Victim; ++I) {
    ASSERT_LT(I, 64);
    Peer = std::string("p").append(std::to_string(I));
  }
  okResponse(run(R, openLine("a")));  // session 1
  okResponse(run(R, openLine(Peer))); // session 2

  // One job, below the threshold: it runs at home and retires.
  okResponse(run(R, submitLine(1, 1)));
  ASSERT_EQ(run(R, "{\"op\":\"drain\"}").size(), 2u);
  EXPECT_EQ(R.stats().Steals, 0u);

  // Six more while the other shard sits idle: session 1, the lowest id,
  // moves with its three live jobs and without its retired one.
  for (uint32_t C = 2; C <= 7; ++C)
    okResponse(run(R, submitLine(C <= 4 ? 1 : 2, C)));
  std::vector<std::string> Out = run(R, "{\"op\":\"drain\"}");
  ASSERT_EQ(Out.size(), 7u);
  EXPECT_EQ(R.stats().Steals, 1u);
  EXPECT_EQ(R.stats().StolenJobs, 3u);
  EXPECT_EQ(countOp(Host.Live[1 - Victim]->RequestLog, "submit"), 3u);
  for (uint64_t J = 1; J <= 7; ++J) {
    JsonLine Exp = okResponse(run(R, explainLine(J)));
    EXPECT_EQ(Exp.getUInt("shard").value_or(99),
              J >= 2 && J <= 4 ? 1u - Victim : Victim)
        << "job " << J;
  }
}

TEST(ShardRouterTest, StealLeavesAShardsOnlySessionInPlace) {
  FakeHost Host(2);
  ShardRouterOptions O = testOptions(2);
  O.StealThreshold = 2;
  ShardRouter R(O, Host);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  okResponse(run(R, kRegisterFig));
  unsigned Home = R.shardFor("fig", "a");
  okResponse(run(R, openLine("a"))); // session 1, alone on its shard

  // Three jobs over the threshold with the other shard idle. Moving the
  // only session would relocate the queue, not split it, and the next
  // pass would move it back: nothing may be stolen.
  for (uint32_t C = 1; C <= 3; ++C)
    okResponse(run(R, submitLine(1, C)));
  std::vector<std::string> Out = run(R, "{\"op\":\"drain\"}");
  ASSERT_EQ(Out.size(), 4u);
  EXPECT_EQ(R.stats().Steals, 0u);
  EXPECT_EQ(R.stats().StolenJobs, 0u);
  EXPECT_EQ(countOp(Host.Live[1 - Home]->RequestLog, "open-session"), 0u);
  EXPECT_EQ(countOp(Host.Live[1 - Home]->RequestLog, "submit"), 0u);
  for (uint64_t J = 1; J <= 3; ++J) {
    EXPECT_NE(Out[J - 1].find("\"job\":" + std::to_string(J) + ","),
              std::string::npos)
        << Out[J - 1];
    EXPECT_NE(Out[J - 1].find("\"param\":\"[P" + std::to_string(J) + "]\""),
              std::string::npos)
        << Out[J - 1];
    JsonLine Exp = okResponse(run(R, explainLine(J)));
    EXPECT_EQ(Exp.getUInt("shard").value_or(99), Home) << "job " << J;
  }
}

TEST(ShardRouterTest, ClosedSessionRejectsSubmitCancelAndClose) {
  FakeHost Host(1);
  ShardRouter R(testOptions(1), Host);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  okResponse(run(R, kRegisterFig));
  okResponse(run(R, openLine("escape")));
  okResponse(run(R, "{\"op\":\"close-session\",\"session\":1}"));
  size_t Logged = Host.Live[0]->RequestLog.size();

  EXPECT_EQ(run(R, submitLine(1, 1)),
            std::vector<std::string>{
                errorLine("submit", "unknown session 1")});
  EXPECT_EQ(run(R, "{\"op\":\"cancel\",\"session\":1}"),
            std::vector<std::string>{errorLine("cancel", "unknown session")});
  EXPECT_EQ(run(R, "{\"op\":\"close-session\",\"session\":1}"),
            std::vector<std::string>{
                errorLine("close-session", "unknown session")});
  // Answered by the supervisor alone.
  EXPECT_EQ(Host.Live[0]->RequestLog.size(), Logged);
}

TEST(ShardRouterTest, LongSoakEndsWithNoPendingAndABoundedExplainWindow) {
  FakeHost Host(2);
  ShardRouter R(testOptions(2), Host);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  okResponse(run(R, kRegisterFig));
  okResponse(run(R, openLine("a")));
  okResponse(run(R, openLine("b")));
  // Tenants-hot shape: bursts of 8 jobs, each burst followed by a drain.
  const uint64_t Jobs = 100000;
  size_t Results = 0;
  for (uint64_t J = 1; J <= Jobs; ++J) {
    okResponse(run(R, submitLine(1 + J % 2, 1)));
    if (J % 8 == 0)
      Results += countOp(run(R, "{\"op\":\"drain\"}"), "result");
  }
  EXPECT_EQ(Results, Jobs);
  JsonLine Ping = okResponse(run(R, "{\"op\":\"ping\"}"));
  EXPECT_EQ(Ping.getUInt("pending").value_or(99), 0u);
  EXPECT_EQ(R.stats().Fulfilled, Jobs);
  expectExplain(R, Jobs, "fulfilled", 0);
  EXPECT_EQ(run(R, explainLine(1)),
            std::vector<std::string>{
                errorLine("explain", "no timeline recorded for job 1")});
}

//===----------------------------------------------------------------------===//
// Backoff ladder (fake clock)
//===----------------------------------------------------------------------===//

TEST(ShardRouterTest, BackoffDoublesToCapAndResetsAfterHealthyInterval) {
  FakeHost Host(1);
  FakeClock Clock;
  ShardRouter R(testOptions(1), Host, &Clock);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  EXPECT_TRUE(Clock.Sleeps.empty()); // first start pays no backoff
  okResponse(run(R, kRegisterFig));

  // Eight rapid deaths: 100,200,400,800,1600,3200,5000,5000 (capped).
  for (int I = 0; I < 8; ++I) {
    Host.Live[0]->kill();
    std::string Client = std::string("c").append(std::to_string(I));
    okResponse(run(R, openLine(Client)));
  }
  ASSERT_EQ(Clock.Sleeps.size(), 8u);
  EXPECT_EQ(Clock.Sleeps,
            (std::vector<uint64_t>{100, 200, 400, 800, 1600, 3200, 5000,
                                   5000}));
  EXPECT_EQ(R.nextBackoffMsForTesting(0), 5000u);

  // A long healthy interval earns a fresh ladder.
  Clock.Now += 60000;
  Host.Live[0]->kill();
  okResponse(run(R, openLine("fresh")));
  ASSERT_EQ(Clock.Sleeps.size(), 9u);
  EXPECT_EQ(Clock.Sleeps.back(), 100u);
}

TEST(ShardRouterTest, BackoffJitterStaysInBand) {
  FakeHost Host(1);
  FakeClock Clock;
  ShardRouterOptions O = testOptions(1);
  O.BackoffJitter = 0.25;
  ShardRouter R(O, Host, &Clock);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  okResponse(run(R, kRegisterFig));
  Host.Live[0]->kill();
  okResponse(run(R, openLine("escape")));
  ASSERT_EQ(Clock.Sleeps.size(), 1u);
  // delay in [base, base * 1.25] with base = 100.
  EXPECT_GE(Clock.Sleeps[0], 100u);
  EXPECT_LE(Clock.Sleeps[0], 125u);
}

TEST(ShardRouterTest, SpawnFailuresWithinOneEpisodeKeepEscalating) {
  FakeHost Host(1);
  FakeClock Clock;
  ShardRouter R(testOptions(1), Host, &Clock);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  okResponse(run(R, kRegisterFig));

  // Death, then two spawn failures inside the restart episode: three
  // sleeps, each one rung higher on the ladder.
  Host.Live[0]->kill();
  Host.FailSpawns[0] = 2;
  okResponse(run(R, openLine("escape")));
  ASSERT_EQ(Clock.Sleeps.size(), 3u);
  EXPECT_EQ(Clock.Sleeps, (std::vector<uint64_t>{100, 200, 400}));
}

} // namespace
} // namespace service
} // namespace optabs
