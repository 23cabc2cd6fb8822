//===- ChaosTest.cpp - Kill-a-shard chaos harness -------------------------===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The multi-process serving stack against real process death: a
// ShardRouter over real `optabs-serve` workers (spawned from
// OPTABS_SERVE_BIN), with SIGKILL injected before and during drain. The
// property under test is the one DESIGN.md §13 argues for: every
// submitted job eventually resolves, and the emitted result lines are
// bitwise identical to a single-process oracle run - requeueing work onto
// a fresh shard cannot change a verdict, because §6 grouping makes
// verdicts batch-composition-independent. Run at 1 and 8 worker threads,
// per the acceptance gate.
//
// Also here: the optabs-serve SIGTERM test (the signal must run the same
// graceful path as the "shutdown" op, metrics dump included).
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"
#include "service/ShardRouter.h"
#include "service/Transport.h"
#include "support/Subprocess.h"
#include "tracer/EventTrace.h"

#include "gtest/gtest.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <dirent.h>
#include <set>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

namespace optabs {
namespace service {
namespace {

using tracer::JsonObject;

class ChaosTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() { signal(SIGPIPE, SIG_IGN); }
};

/// The figure-6 shape, one check per procedure; \p Salt keeps the
/// programs distinct so they register (and hash) independently.
std::string makeProgram(unsigned Procs, unsigned Salt) {
  std::string Text = "proc main {\n";
  for (unsigned I = 1; I <= Procs; ++I)
    Text += "  call p" + std::to_string(I) + ";\n";
  Text += "}\n";
  for (unsigned I = 1; I <= Procs; ++I) {
    std::string N = std::to_string(I) + "s" + std::to_string(Salt);
    std::string P = std::to_string(I);
    Text += "proc p" + P + " {\n";
    Text += "  u" + P + " = new ha" + N + ";\n";
    Text += "  v" + P + " = new hb" + N + ";\n";
    Text += "  v" + P + ".f = u" + P + ";\n";
    Text += "  check(u" + P + ");\n";
    Text += "}\n";
  }
  return Text;
}

struct Script {
  std::vector<std::string> Setup; ///< registers, opens, submits
  size_t Jobs = 0;
};

/// \p Programs programs x \p Clients escape tenants each, one job per
/// check. Tenants are distinct (program, client) pairs, so they spread
/// over shards by hash.
Script makeScript(unsigned Programs, unsigned Procs, unsigned Clients) {
  Script S;
  for (unsigned P = 0; P < Programs; ++P) {
    JsonObject Reg;
    Reg.field("op", "register-program");
    Reg.field("name", "prog" + std::to_string(P));
    Reg.field("text", makeProgram(Procs, P));
    S.Setup.push_back(Reg.str());
  }
  uint64_t Session = 0;
  for (unsigned P = 0; P < Programs; ++P) {
    for (unsigned C = 0; C < Clients; ++C) {
      JsonObject Open;
      Open.field("op", "open-session");
      Open.field("program", "prog" + std::to_string(P));
      Open.field("client", "escape");
      Open.field("k", 2);
      Open.field("max-pending", 1000);
      S.Setup.push_back(Open.str());
      ++Session;
      for (unsigned J = 0; J < Procs; ++J) {
        JsonObject Sub;
        Sub.field("op", "submit");
        Sub.field("session", Session);
        Sub.field("check", J);
        S.Setup.push_back(Sub.str());
        ++S.Jobs;
      }
    }
  }
  return S;
}

ProcessShardHost::Options hostOptions(unsigned WorkerThreads) {
  ProcessShardHost::Options O;
  O.ServeBinary = OPTABS_SERVE_BIN;
  O.SocketDir = "/tmp";
  O.WorkerArgs = {"--threads=" + std::to_string(WorkerThreads)};
  O.ConnectTimeoutMs = 30000; // sanitizer builds start slowly
  return O;
}

ShardRouterOptions routerOptions(unsigned Shards) {
  ShardRouterOptions O;
  O.NumShards = Shards;
  O.RequestTimeoutMs = 120000;
  O.MaxRequestRetries = 3;
  O.BackoffInitialMs = 20; // fast ladders: chaos tests restart a lot
  O.BackoffMaxMs = 200;
  return O;
}

void runAll(ShardRouter &R, const std::vector<std::string> &Lines,
            std::vector<std::string> &Out) {
  for (const std::string &L : Lines)
    ASSERT_TRUE(R.handleLine(L, Out)) << L;
}

std::vector<std::string> resultLines(const std::vector<std::string> &Out) {
  std::vector<std::string> R;
  for (const std::string &L : Out)
    if (L.find("\"op\":\"result\"") != std::string::npos)
      R.push_back(L);
  return R;
}

/// The single-process oracle: the same script through one worker, no
/// chaos. Every multi-shard run must reproduce these lines bitwise.
std::vector<std::string> oracleResults(const Script &S) {
  ProcessShardHost Host(hostOptions(/*WorkerThreads=*/1));
  ShardRouter R(routerOptions(/*Shards=*/1), Host);
  std::string Err;
  EXPECT_TRUE(R.start(Err)) << Err;
  std::vector<std::string> Out;
  runAll(R, S.Setup, Out);
  R.handleLine("{\"op\":\"drain\"}", Out);
  std::vector<std::string> Dropped;
  R.handleLine("{\"op\":\"shutdown\"}", Dropped);
  return resultLines(Out);
}

void expectAllDone(const std::vector<std::string> &Results, size_t Jobs) {
  ASSERT_EQ(Results.size(), Jobs);
  for (const std::string &L : Results)
    EXPECT_NE(L.find("\"status\":\"done\""), std::string::npos) << L;
}

//===----------------------------------------------------------------------===//
// Topology identity without chaos
//===----------------------------------------------------------------------===//

TEST_F(ChaosTest, TwoShardsMatchSingleProcessOracle) {
  Script S = makeScript(/*Programs=*/2, /*Procs=*/6, /*Clients=*/2);
  std::vector<std::string> Oracle = oracleResults(S);
  expectAllDone(Oracle, S.Jobs);

  ProcessShardHost Host(hostOptions(1));
  ShardRouter R(routerOptions(2), Host);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  std::vector<std::string> Out;
  runAll(R, S.Setup, Out);
  R.handleLine("{\"op\":\"drain\"}", Out);
  EXPECT_EQ(resultLines(Out), Oracle);
  std::vector<std::string> Dropped;
  R.handleLine("{\"op\":\"shutdown\"}", Dropped);
}

//===----------------------------------------------------------------------===//
// SIGKILL before drain: deterministic requeue
//===----------------------------------------------------------------------===//

TEST_F(ChaosTest, KillEveryShardBeforeDrainRequeuesAndMatchesOracle) {
  Script S = makeScript(2, 6, 2);
  std::vector<std::string> Oracle = oracleResults(S);
  expectAllDone(Oracle, S.Jobs);

  ProcessShardHost Host(hostOptions(1));
  ShardRouter R(routerOptions(2), Host);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  std::vector<std::string> Out;
  runAll(R, S.Setup, Out);

  // Both workers die with every job still queued: the drain must
  // restart them, requeue everything, and still match the oracle.
  R.killShardForTesting(0);
  R.killShardForTesting(1);
  std::vector<std::string> DrainOut;
  R.handleLine("{\"op\":\"drain\"}", DrainOut);
  expectAllDone(resultLines(DrainOut), S.Jobs);
  EXPECT_EQ(resultLines(DrainOut), Oracle);
  // The requeue is surfaced, not silent: every job was requeued once.
  EXPECT_EQ(DrainOut.back(),
            "{\"v\":1,\"ok\":true,\"op\":\"drain\",\"results\":" +
                std::to_string(S.Jobs) +
                ",\"requeued\":" + std::to_string(S.Jobs) + "}");
  EXPECT_EQ(R.stats().Restarts, 2u);

  std::vector<std::string> Dropped;
  R.handleLine("{\"op\":\"shutdown\"}", Dropped);
}

//===----------------------------------------------------------------------===//
// SIGKILL mid-drain: the acceptance scenario, at 1 and 8 worker threads
//===----------------------------------------------------------------------===//

void killShardMidDrain(unsigned WorkerThreads) {
  Script S = makeScript(2, 10, 3);
  std::vector<std::string> Oracle = oracleResults(S);
  expectAllDone(Oracle, S.Jobs);

  ProcessShardHost Host(hostOptions(WorkerThreads));
  ShardRouter R(routerOptions(2), Host);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  std::vector<std::string> Out;
  runAll(R, S.Setup, Out);

  // Drain on one thread; SIGKILL a worker from another while its batch
  // is (very likely) in flight. Whenever the kill lands - before, during
  // or after the batch - every job must resolve identically.
  std::vector<std::string> DrainOut;
  std::thread Drainer(
      [&] { R.handleLine("{\"op\":\"drain\"}", DrainOut); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // Kill a shard that definitely holds jobs (all tenants use client
  // "escape", so prog0's shard is known). Pid-exact SIGKILL via the
  // host is the thread-safe seam.
  Host.killWorker(R.shardFor("prog0", "escape"));
  Drainer.join();

  expectAllDone(resultLines(DrainOut), S.Jobs);
  EXPECT_EQ(resultLines(DrainOut), Oracle);

  std::vector<std::string> Dropped;
  R.handleLine("{\"op\":\"shutdown\"}", Dropped);
}

TEST_F(ChaosTest, KillShardMidDrainResolvesIdentically1Thread) {
  killShardMidDrain(1);
}

TEST_F(ChaosTest, KillShardMidDrainResolvesIdentically8Threads) {
  killShardMidDrain(8);
}

//===----------------------------------------------------------------------===//
// Socket-file hygiene across SIGKILL restarts
//===----------------------------------------------------------------------===//

TEST_F(ChaosTest, KilledWorkersLeaveNoStaleSocketFiles) {
  std::string Dir = "/tmp/optabs-chaos-socks-" +
                    std::to_string(static_cast<long>(::getpid()));
  ::mkdir(Dir.c_str(), 0700);
  {
    ProcessShardHost::Options HO = hostOptions(1);
    HO.SocketDir = Dir;
    ProcessShardHost Host(HO);
    ShardRouter R(routerOptions(2), Host);
    std::string Err;
    ASSERT_TRUE(R.start(Err)) << Err;
    std::vector<std::string> Out;
    JsonObject Reg;
    Reg.field("op", "register-program");
    Reg.field("name", "prog0");
    Reg.field("text", makeProgram(2, 0));
    R.handleLine(Reg.str(), Out);
    // SIGKILLed workers cannot unlink their own sockets; the next
    // broadcast forces both shards through the restart path.
    R.killShardForTesting(0);
    R.killShardForTesting(1);
    JsonObject Reg1;
    Reg1.field("op", "register-program");
    Reg1.field("name", "prog1");
    Reg1.field("text", makeProgram(2, 1));
    R.handleLine(Reg1.str(), Out);
    EXPECT_EQ(R.stats().Restarts, 2u);
    std::vector<std::string> Dropped;
    R.handleLine("{\"op\":\"shutdown\"}", Dropped);
  }
  // Host destroyed: every incarnation's socket file must be gone.
  size_t Leftover = 0;
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (dirent *E = ::readdir(D)) {
      std::string N = E->d_name;
      if (N != "." && N != "..")
        ++Leftover;
    }
    ::closedir(D);
  }
  EXPECT_EQ(Leftover, 0u);
  ::rmdir(Dir.c_str());
}

//===----------------------------------------------------------------------===//
// SIGTERM on optabs-serve: the graceful path, artifacts included
//===----------------------------------------------------------------------===//

TEST_F(ChaosTest, SigtermRunsTheGracefulShutdownPath) {
  std::string Tag = std::to_string(static_cast<long>(::getpid()));
  std::string Sock = "/tmp/optabs-chaos-term-" + Tag + ".sock";
  std::string Metrics = "/tmp/optabs-chaos-term-" + Tag + ".prom";
  std::remove(Metrics.c_str());

  std::string Err;
  support::ChildProcess Serve = support::ChildProcess::spawn(
      {OPTABS_SERVE_BIN, "--listen=unix:" + Sock, "--threads=1",
       "--metrics=" + Metrics},
      Err);
  ASSERT_TRUE(Serve.valid()) << Err;

  ListenSpec Spec;
  ASSERT_TRUE(ListenSpec::parse("unix:" + Sock, Spec, Err)) << Err;
  LineChannel Ch = connectChannel(Spec, 30000, Err);
  ASSERT_TRUE(Ch.valid()) << Err;
  ASSERT_TRUE(Ch.writeLine("{\"op\":\"ping\"}"));
  std::string Resp;
  ASSERT_EQ(Ch.readLine(Resp, 30000), LineChannel::ReadStatus::Line);
  EXPECT_NE(Resp.find("\"server\":\"optabs-serve\""), std::string::npos);

  // SIGTERM mid-connection must run the same graceful path as the
  // "shutdown" op: exit 0 and write the metrics dump.
  Serve.kill(SIGTERM);
  int Status = Serve.reap(30000);
  ASSERT_NE(Status, -1) << "server did not exit after SIGTERM";
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0);
  EXPECT_EQ(::access(Metrics.c_str(), F_OK), 0)
      << "graceful path skipped the metrics dump";
  std::remove(Metrics.c_str());
}

//===----------------------------------------------------------------------===//
// Work stealing: re-homed sessions cannot change a verdict
//===----------------------------------------------------------------------===//

TEST_F(ChaosTest, WorkStealingRehomesSessionsAndMatchesOracle) {
  // One program, three sessions: every tenant hashes to the same shard,
  // so with two shards one is deep and one is idle - the imbalance the
  // stealer exists for.
  Script S = makeScript(/*Programs=*/1, /*Procs=*/6, /*Clients=*/3);
  std::vector<std::string> Oracle = oracleResults(S);
  expectAllDone(Oracle, S.Jobs);

  ProcessShardHost Host(hostOptions(1));
  ShardRouterOptions RO = routerOptions(2);
  RO.StealThreshold = 1; // steal as soon as any imbalance shows
  ShardRouter R(RO, Host);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  std::vector<std::string> Out;
  runAll(R, S.Setup, Out);
  R.handleLine("{\"op\":\"drain\"}", Out);

  // Bitwise identity to the single-process oracle - §6 grouping makes
  // verdicts batch-composition-independent, so where a session runs can
  // never show in its result lines.
  expectAllDone(resultLines(Out), S.Jobs);
  EXPECT_EQ(resultLines(Out), Oracle);
  // And the steal actually happened, visibly.
  EXPECT_GE(R.stats().Steals, 1u);
  EXPECT_GE(R.stats().StolenJobs, 6u);

  std::vector<std::string> Dropped;
  R.handleLine("{\"op\":\"shutdown\"}", Dropped);
}

//===----------------------------------------------------------------------===//
// SIGKILL + warm restart from the persistent cache tier
//===----------------------------------------------------------------------===//

/// A scripted JSONL exchange with one spawned optabs-serve: every request
/// reads exactly one response, except drain (which streams result lines
/// first). Collects result lines and the last stats response.
struct ServeClient {
  support::ChildProcess Proc;
  LineChannel Ch;

  static ServeClient spawn(const std::string &Sock,
                           const std::vector<std::string> &ExtraArgs) {
    ServeClient C;
    std::string Err;
    std::vector<std::string> Argv = {OPTABS_SERVE_BIN,
                                     "--listen=unix:" + Sock,
                                     "--threads=1"};
    for (const std::string &A : ExtraArgs)
      Argv.push_back(A);
    C.Proc = support::ChildProcess::spawn(Argv, Err);
    EXPECT_TRUE(C.Proc.valid()) << Err;
    ListenSpec Spec;
    EXPECT_TRUE(ListenSpec::parse("unix:" + Sock, Spec, Err)) << Err;
    C.Ch = connectChannel(Spec, 30000, Err);
    EXPECT_TRUE(C.Ch.valid()) << Err;
    return C;
  }

  /// One request, one response line.
  std::string rpc(const std::string &Line) {
    EXPECT_TRUE(Ch.writeLine(Line)) << Line;
    std::string Resp;
    EXPECT_EQ(Ch.readLine(Resp, 120000), LineChannel::ReadStatus::Line)
        << Line;
    return Resp;
  }

  /// Drain: result lines stream first, then the drain summary.
  std::vector<std::string> drain() {
    EXPECT_TRUE(Ch.writeLine("{\"op\":\"drain\"}"));
    std::vector<std::string> Results;
    for (;;) {
      std::string L;
      if (Ch.readLine(L, 120000) != LineChannel::ReadStatus::Line) {
        ADD_FAILURE() << "connection died mid-drain";
        break;
      }
      if (L.find("\"op\":\"drain\"") != std::string::npos)
        break;
      if (L.find("\"op\":\"result\"") != std::string::npos)
        Results.push_back(L);
    }
    return Results;
  }
};

/// One serve lifetime: register prog0, open one session with the
/// open-session fields \p Client, answer every check (check J at site J
/// with \p PerSite), and return the result lines plus the final
/// forward_runs / verdicts_replayed counters.
struct ServeLife {
  std::vector<std::string> Results;
  uint64_t ForwardRuns = 0;
  uint64_t VerdictsReplayed = 0;
};

ServeLife runServeLife(ServeClient &C, const std::string &Text,
                       unsigned Checks,
                       const std::string &Client = "\"client\":\"escape\","
                                                   "\"k\":2",
                       bool PerSite = false) {
  ServeLife Life;
  JsonObject Reg;
  Reg.field("op", "register-program");
  Reg.field("name", "prog0");
  Reg.field("text", Text);
  EXPECT_NE(C.rpc(Reg.str()).find("\"ok\":true"), std::string::npos);
  EXPECT_NE(
      C.rpc("{\"op\":\"open-session\",\"program\":\"prog0\"," + Client +
            "}")
          .find("\"ok\":true"),
      std::string::npos);
  for (unsigned J = 0; J < Checks; ++J) {
    JsonObject Sub;
    Sub.field("op", "submit");
    Sub.field("session", 1);
    Sub.field("check", J);
    if (PerSite)
      Sub.field("site", J);
    EXPECT_NE(C.rpc(Sub.str()).find("\"ok\":true"), std::string::npos);
  }
  Life.Results = C.drain();
  std::string Stats = C.rpc("{\"op\":\"stats\"}");
  JsonLine S;
  std::string Err;
  EXPECT_TRUE(JsonLine::parse(Stats, S, Err)) << Stats;
  Life.ForwardRuns = S.getUInt("forward_runs").value_or(0);
  Life.VerdictsReplayed = S.getUInt("verdicts_replayed").value_or(0);
  return Life;
}

TEST_F(ChaosTest, SigkilledWorkerRestartsWarmFromTheCacheTier) {
  std::string Tag = std::to_string(static_cast<long>(::getpid()));
  std::string Dir = "/tmp/optabs-chaos-warm-" + Tag;
  ::mkdir(Dir.c_str(), 0700);
  std::string Text = makeProgram(/*Procs=*/6, /*Salt=*/0);
  const unsigned Checks = 6;

  // The single-process oracle: no cache tier at all.
  ServeLife Oracle;
  {
    ServeClient C =
        ServeClient::spawn("/tmp/optabs-warm-oracle-" + Tag + ".sock", {});
    Oracle = runServeLife(C, Text, Checks);
    C.rpc("{\"op\":\"shutdown\"}");
    C.Proc.reap(30000);
  }
  ASSERT_EQ(Oracle.Results.size(), Checks);
  ASSERT_GT(Oracle.ForwardRuns, 0u);

  // First life: same script with the cache tier armed. Persist, then
  // SIGKILL - the crash the warm restart must absorb. SIGKILL cannot run
  // any shutdown hook, so the snapshot on disk is exactly what the
  // explicit persist wrote (the atomic-commit contract keeps it whole).
  {
    ServeClient C = ServeClient::spawn(
        "/tmp/optabs-warm-life1-" + Tag + ".sock", {"--cache-dir=" + Dir});
    ServeLife Cold = runServeLife(C, Text, Checks);
    EXPECT_EQ(Cold.Results, Oracle.Results);
    std::string P = C.rpc("{\"op\":\"cache\",\"action\":\"persist\"}");
    EXPECT_NE(P.find("\"ok\":true"), std::string::npos) << P;
    C.Proc.kill(SIGKILL);
    ASSERT_NE(C.Proc.reap(30000), -1);
  }

  // Second life: the restarted worker warms from the snapshot at
  // register time. Verdict lines are bitwise identical to the oracle and
  // every query is answered by replay - zero forward fixpoints, strictly
  // fewer than the cold run.
  {
    ServeClient C = ServeClient::spawn(
        "/tmp/optabs-warm-life2-" + Tag + ".sock", {"--cache-dir=" + Dir});
    ServeLife Warm = runServeLife(C, Text, Checks);
    EXPECT_EQ(Warm.Results, Oracle.Results);
    EXPECT_EQ(Warm.ForwardRuns, 0u);
    EXPECT_LT(Warm.ForwardRuns, Oracle.ForwardRuns);
    EXPECT_EQ(Warm.VerdictsReplayed, Checks);
    C.rpc("{\"op\":\"shutdown\"}");
    C.Proc.reap(30000);
  }

  std::string Cleanup = "rm -rf '" + Dir + "'";
  (void)::system(Cleanup.c_str());
}

// Two tracked sites; check J tracks site J. x's close goes through an
// alias, so the named file property needs both names tracked.
const char *TypestateText = "proc main {\n"
                            "  call p1;\n"
                            "  call p2;\n"
                            "}\n"
                            "proc p1 {\n"
                            "  x = new h1;\n"
                            "  y = x;\n"
                            "  x.open();\n"
                            "  y.close();\n"
                            "  check(x, closed);\n"
                            "}\n"
                            "proc p2 {\n"
                            "  f = new h2;\n"
                            "  g = f;\n"
                            "  f.open();\n"
                            "  check(g, opened);\n"
                            "}\n";

// Two live workers on one --cache-dir. The first answers the named file
// property and spills its runs; the second's first session uses the
// stress property, which gets the same in-process family index there. A
// spill file names its run by the property text, so the second worker
// computes its own runs and its result lines equal a worker's without a
// cache tier.
TEST_F(ChaosTest, PeerWorkersOnOneCacheDirServeOnlyTheirOwnProperty) {
  std::string Tag = std::to_string(static_cast<long>(::getpid()));
  std::string Dir = "/tmp/optabs-chaos-peer-" + Tag;
  ::mkdir(Dir.c_str(), 0700);
  const std::string Stress = "\"client\":\"typestate\"";
  const std::string Named =
      Stress + ",\"property\":\"init=closed; open: closed->opened, "
               "opened->ERR; close: opened->closed, closed->ERR\"";
  const unsigned Checks = 2;

  ServeLife Oracle;
  {
    ServeClient C =
        ServeClient::spawn("/tmp/optabs-peer-oracle-" + Tag + ".sock", {});
    Oracle = runServeLife(C, TypestateText, Checks, Stress, true);
    C.rpc("{\"op\":\"shutdown\"}");
    C.Proc.reap(30000);
  }
  ASSERT_EQ(Oracle.Results.size(), Checks);
  ASSERT_GT(Oracle.ForwardRuns, 0u);

  ServeClient First = ServeClient::spawn(
      "/tmp/optabs-warm-life1-" + Tag + ".sock", {"--cache-dir=" + Dir});
  ServeLife Cold = runServeLife(First, TypestateText, Checks, Named, true);
  ASSERT_EQ(Cold.Results.size(), Checks);
  std::string Sp = First.rpc("{\"op\":\"cache\",\"action\":\"spill\"}");
  EXPECT_NE(Sp.find("\"ok\":true"), std::string::npos) << Sp;
  EXPECT_EQ(Sp.find("\"spilled\":0,"), std::string::npos) << Sp;

  ServeClient Peer = ServeClient::spawn(
      "/tmp/optabs-warm-life2-" + Tag + ".sock", {"--cache-dir=" + Dir});
  ServeLife Got = runServeLife(Peer, TypestateText, Checks, Stress, true);
  EXPECT_EQ(Got.Results, Oracle.Results);
  EXPECT_EQ(Got.ForwardRuns, Oracle.ForwardRuns);

  for (ServeClient *C : {&First, &Peer}) {
    C->rpc("{\"op\":\"shutdown\"}");
    C->Proc.reap(30000);
  }
  std::string Cleanup = "rm -rf '" + Dir + "'";
  (void)::system(Cleanup.c_str());
}

} // namespace
} // namespace service
} // namespace optabs
