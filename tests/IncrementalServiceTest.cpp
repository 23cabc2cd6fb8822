//===- IncrementalServiceTest.cpp - Incremental re-registration tests ---------===//
//
// The incremental re-analysis contract at the service boundary: verdicts
// after an incremental re-registration are bitwise identical to a cold
// re-registration (the full-invalidate oracle) at every worker count,
// clean checks are answered by migrating cached runs / replaying stored
// verdicts instead of recomputing, queued jobs against a retiring epoch
// survive exactly when their check's footprint is provably untouched, and
// an incomparable edit falls back to evicting everything while still
// failing the stale queued jobs.
//
//===----------------------------------------------------------------------===//

#include "service/AnalysisService.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <future>
#include <random>
#include <string>
#include <vector>

using namespace optabs;

namespace {

// Three procedures, one check each in p1 and p2; p2 is parsed last, so
// edits confined to it leave main's and p1's id layout untouched and
// check 0's dependence footprint (main, p1) entirely clean.
const char *BaseText = "proc main {\n"
                       "  call p1;\n"
                       "  call p2;\n"
                       "}\n"
                       "proc p1 {\n"
                       "  a = new h1;\n"
                       "  check(a);\n"
                       "}\n"
                       "proc p2 {\n"
                       "  b = new h2;\n"
                       "  b.f = b;\n"
                       "  check(b);\n"
                       "}\n";

/// BaseText with one duplicate command appended inside p2.
std::string editP2(const std::string &Text) {
  std::string Out = Text;
  size_t At = Out.find("  check(b);");
  EXPECT_NE(At, std::string::npos);
  Out.insert(At, "  b.f = b;\n");
  return Out;
}

service::Session openEscape(service::AnalysisService &Svc,
                            const Config &SessionConfig = Config()) {
  service::SessionSpec Spec;
  Spec.Program = "p";
  Spec.Client = "escape";
  Spec.SessionConfig = SessionConfig;
  std::string Err;
  service::Session S = Svc.openSession(Spec, Err);
  EXPECT_TRUE(S.valid()) << Err;
  return S;
}

/// Submits every check of the registered program and drains; results in
/// check order.
std::vector<service::QueryResult> queryAll(service::AnalysisService &Svc,
                                           service::Session &S,
                                           uint32_t Checks) {
  std::vector<std::future<service::QueryResult>> Futures;
  for (uint32_t C = 0; C < Checks; ++C)
    Futures.push_back(S.submit({C, 0, 0}));
  Svc.drain();
  std::vector<service::QueryResult> Out;
  for (auto &F : Futures)
    Out.push_back(F.get());
  return Out;
}

void expectIdentical(const service::QueryResult &Want,
                     const service::QueryResult &Got,
                     const std::string &Context) {
  EXPECT_EQ(Want.Status, Got.Status) << Context << ": " << Got.Error;
  EXPECT_EQ(Want.V, Got.V) << Context;
  EXPECT_EQ(Want.Iterations, Got.Iterations) << Context;
  EXPECT_EQ(Want.CheapestCost, Got.CheapestCost) << Context;
  EXPECT_EQ(Want.CheapestParam, Got.CheapestParam) << Context;
  EXPECT_EQ(Want.ExhaustedResource, Got.ExhaustedResource) << Context;
}

/// The "verdict" event-trace lines of \p Path, starting at line index
/// \p From. Sorted by the caller when emission order may differ.
std::vector<std::string> verdictLines(const std::string &Path,
                                      size_t From = 0) {
  std::ifstream In(Path);
  std::vector<std::string> Out;
  std::string Line;
  size_t Index = 0;
  while (std::getline(In, Line)) {
    if (Index++ < From)
      continue;
    if (Line.find("\"event\":\"verdict\"") != std::string::npos)
      Out.push_back(Line);
  }
  return Out;
}

size_t lineCount(const std::string &Path) {
  std::ifstream In(Path);
  std::string Line;
  size_t N = 0;
  while (std::getline(In, Line))
    ++N;
  return N;
}

TEST(IncrementalServiceTest, ReRegisterReportsTheDiffAndMigrates) {
  service::AnalysisService::Options Opts;
  Opts.AutoDispatch = false;
  service::AnalysisService Svc(std::move(Opts));
  service::RegisterResult R1 = Svc.registerProgram("p", BaseText);
  ASSERT_TRUE(R1.Ok) << R1.Error;
  EXPECT_FALSE(R1.ReRegistered);
  EXPECT_FALSE(R1.Incremental);

  service::Session S = openEscape(Svc);
  std::vector<service::QueryResult> Cold = queryAll(Svc, S, 2);
  uint64_t ColdRuns = Svc.stats().ForwardRuns;
  ASSERT_GT(ColdRuns, 0u);

  service::RegisterResult R2 = Svc.registerProgram("p", editP2(BaseText));
  ASSERT_TRUE(R2.Ok) << R2.Error;
  EXPECT_TRUE(R2.ReRegistered);
  EXPECT_TRUE(R2.Incremental);
  EXPECT_GT(R2.Epoch, R1.Epoch);
  ASSERT_EQ(R2.DirtyProcs.size(), 1u);
  EXPECT_EQ(R2.DirtyProcs[0], "p2");
  EXPECT_EQ(R2.DirtyChecks, 1u); // only check 1's footprint touches p2

  std::vector<service::QueryResult> Warm = queryAll(Svc, S, 2);
  // Check 0's footprint is clean: its stored verdict replays unchanged.
  expectIdentical(Cold[0], Warm[0], "clean check after incremental edit");
  EXPECT_EQ(Warm[1].Status, service::JobStatus::Done) << Warm[1].Error;

  service::ServiceStats Stats = Svc.stats();
  EXPECT_EQ(Stats.ProceduresDirty, 1u);
  EXPECT_GT(Stats.EntriesMigrated, 0u);
  EXPECT_GE(Stats.VerdictsReplayed, 1u);
  // Only the dirty check's fixpoints re-ran: strictly fewer new forward
  // runs than the cold pass needed for both checks.
  EXPECT_LT(Svc.stats().ForwardRuns - ColdRuns, ColdRuns);
}

TEST(IncrementalServiceTest, WarmVerdictsMatchColdOracleBitwise) {
  const std::string Edited = editP2(BaseText);
  for (unsigned Threads : {1u, 8u}) {
    // Oracle: a fresh service sees only the edited program (a cold
    // re-registration is indistinguishable from a cold registration).
    service::AnalysisService::Options OracleOpts;
    OracleOpts.AutoDispatch = false;
    OracleOpts.Base.Execution.NumThreads = Threads;
    service::AnalysisService Oracle(std::move(OracleOpts));
    ASSERT_TRUE(Oracle.registerProgram("p", Edited).Ok);
    service::Session OracleS = openEscape(Oracle);
    std::vector<service::QueryResult> Want = queryAll(Oracle, OracleS, 2);

    service::AnalysisService::Options Opts;
    Opts.AutoDispatch = false;
    Opts.Base.Execution.NumThreads = Threads;
    service::AnalysisService Svc(std::move(Opts));
    ASSERT_TRUE(Svc.registerProgram("p", BaseText).Ok);
    service::Session S = openEscape(Svc);
    queryAll(Svc, S, 2); // warm the caches against version 1
    ASSERT_TRUE(Svc.registerProgram("p", Edited).Ok);
    std::vector<service::QueryResult> Got = queryAll(Svc, S, 2);

    ASSERT_EQ(Want.size(), Got.size());
    for (size_t I = 0; I < Want.size(); ++I)
      expectIdentical(Want[I], Got[I],
                      "check " + std::to_string(I) + " at " +
                          std::to_string(Threads) + " threads");
  }
}

TEST(IncrementalServiceTest, QueuedJobsSurviveExactlyWhenFootprintClean) {
  service::AnalysisService::Options Opts;
  Opts.AutoDispatch = false;
  service::AnalysisService Svc(std::move(Opts));
  ASSERT_TRUE(Svc.registerProgram("p", BaseText).Ok);
  service::Session S = openEscape(Svc);
  std::vector<service::QueryResult> Cold = queryAll(Svc, S, 2);

  // Queue both checks, then re-register before they are batched. The
  // check-0 job's footprint is untouched by the edit, so it survives the
  // epoch bump; the check-1 job would silently run against different IR
  // than it was submitted for, so it fails structurally.
  std::future<service::QueryResult> Clean = S.submit({0, 0, 0});
  std::future<service::QueryResult> Stale = S.submit({1, 0, 0});
  ASSERT_TRUE(Svc.registerProgram("p", editP2(BaseText)).Ok);
  Svc.drain();

  service::QueryResult CleanR = Clean.get();
  expectIdentical(Cold[0], CleanR, "queued job with clean footprint");
  service::QueryResult StaleR = Stale.get();
  EXPECT_EQ(StaleR.Status, service::JobStatus::Failed);
  EXPECT_NE(StaleR.Error.find("stale epoch"), std::string::npos)
      << StaleR.Error;
  EXPECT_GE(Svc.stats().JobsFailed, 1u);
}

TEST(IncrementalServiceTest, IncomparableReRegisterInvalidatesEverything) {
  // A new allocation site changes the parameter space, so the diff is
  // incomparable (see ProgramDiffTest) and nothing may migrate.
  std::string Edited = BaseText;
  size_t At = Edited.find("  check(b);");
  ASSERT_NE(At, std::string::npos);
  Edited.insert(At, "  c = new h3;\n");

  service::AnalysisService::Options OracleOpts;
  OracleOpts.AutoDispatch = false;
  service::AnalysisService Oracle(std::move(OracleOpts));
  ASSERT_TRUE(Oracle.registerProgram("p", Edited).Ok);
  service::Session OracleS = openEscape(Oracle);
  std::vector<service::QueryResult> Want = queryAll(Oracle, OracleS, 2);

  service::AnalysisService::Options Opts;
  Opts.AutoDispatch = false;
  service::AnalysisService Svc(std::move(Opts));
  ASSERT_TRUE(Svc.registerProgram("p", BaseText).Ok);
  service::Session S = openEscape(Svc);
  queryAll(Svc, S, 2);

  // Check 0's procedures are untouched, yet its queued job fails: without
  // a comparable diff there is no evidence the check is unaffected, and
  // re-running it against different IR than it was submitted for was the
  // original bug.
  std::future<service::QueryResult> Queued = S.submit({0, 0, 0});
  service::RegisterResult R = Svc.registerProgram("p", Edited);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.ReRegistered);
  EXPECT_FALSE(R.Incremental);
  EXPECT_TRUE(R.DirtyProcs.empty());
  EXPECT_EQ(R.DirtyChecks, R.Checks);
  Svc.drain();
  service::QueryResult QueuedR = Queued.get();
  EXPECT_EQ(QueuedR.Status, service::JobStatus::Failed);
  EXPECT_NE(QueuedR.Error.find("stale epoch"), std::string::npos)
      << QueuedR.Error;

  std::vector<service::QueryResult> Got = queryAll(Svc, S, 2);
  ASSERT_EQ(Want.size(), Got.size());
  for (size_t I = 0; I < Want.size(); ++I)
    expectIdentical(Want[I], Got[I], "check " + std::to_string(I));
  service::ServiceStats Stats = Svc.stats();
  EXPECT_EQ(Stats.EntriesMigrated, 0u);
  EXPECT_EQ(Stats.VerdictsReplayed, 0u);
  EXPECT_GT(Stats.StaleEntriesInvalidated, 0u);
}

TEST(IncrementalServiceTest, CleanRepeatReplaysWithoutNewFixpoints) {
  service::AnalysisService::Options Opts;
  Opts.AutoDispatch = false;
  service::AnalysisService Svc(std::move(Opts));
  ASSERT_TRUE(Svc.registerProgram("p", BaseText).Ok);
  service::Session S = openEscape(Svc);
  std::vector<service::QueryResult> Cold = queryAll(Svc, S, 2);
  ASSERT_TRUE(Svc.registerProgram("p", editP2(BaseText)).Ok);

  uint64_t RunsBefore = Svc.stats().ForwardRuns;
  uint64_t ReplaysBefore = Svc.stats().VerdictsReplayed;
  std::vector<std::future<service::QueryResult>> Futures;
  Futures.push_back(S.submit({0, 0, 0}));
  Svc.drain();
  service::QueryResult R = Futures[0].get();
  expectIdentical(Cold[0], R, "replayed clean check");
  EXPECT_EQ(Svc.stats().ForwardRuns, RunsBefore);
  EXPECT_EQ(Svc.stats().VerdictsReplayed, ReplaysBefore + 1);
}

// With tracing on, explain() attributes a replayed-after-re-register job
// to the stored verdict's data epoch and names the clean dependence
// footprint that made the replay legal - the procedures the edit did NOT
// touch, by name.
TEST(IncrementalServiceTest, ExplainNamesCleanFootprintOnReplay) {
  service::AnalysisService::Options Opts;
  Opts.AutoDispatch = false;
  Opts.Base.Observability.ServiceTrace = true;
  service::AnalysisService Svc(std::move(Opts));
  ASSERT_TRUE(Svc.registerProgram("p", BaseText).Ok);
  service::Session S = openEscape(Svc);
  std::vector<service::QueryResult> Cold = queryAll(Svc, S, 2);
  ASSERT_TRUE(Svc.registerProgram("p", editP2(BaseText)).Ok);

  uint64_t JobId = 0;
  std::vector<std::future<service::QueryResult>> Futures;
  Futures.push_back(S.submit({0, 0, 0}, &JobId));
  Svc.drain();
  expectIdentical(Cold[0], Futures[0].get(), "replayed clean check");

  service::JobTimeline T = Svc.explain(JobId);
  ASSERT_TRUE(T.Found);
  EXPECT_EQ(T.Status, "done");
  EXPECT_EQ(T.Verdict, "proven");
  EXPECT_TRUE(T.Replayed);
  EXPECT_EQ(T.ReplayDataEpoch, 1u); // computed at epoch 1, served at 2
  // Check 0 depends on main and p1; the edit dirtied only p2.
  EXPECT_NE(T.CleanFootprint.find("main"), std::string::npos)
      << T.CleanFootprint;
  EXPECT_NE(T.CleanFootprint.find("p1"), std::string::npos)
      << T.CleanFootprint;
  EXPECT_EQ(T.CleanFootprint.find("p2"), std::string::npos)
      << T.CleanFootprint;

  // The recorded lifecycle carries the same attribution: a "replayed"
  // event for this job whose note is the footprint, and no driver "run"
  // event in that batch.
  bool SawReplayed = false;
  for (const support::TraceEvent &E : Svc.drainTrace())
    if (std::string(E.Kind) == "replayed" && E.Job == JobId) {
      SawReplayed = true;
      EXPECT_EQ(E.Note, T.CleanFootprint);
      EXPECT_EQ(E.U0, T.ReplayDataEpoch);
    }
  EXPECT_TRUE(SawReplayed);
}

// The satellite property test: a randomized edit script, replayed against
// a cold full-invalidate oracle at every step. Verdict fields and the
// "verdict" event-trace lines must be identical (the trace lines as a
// multiset: batch composition may reorder emission, never content).
TEST(IncrementalServiceTest, RandomizedEditScriptMatchesColdOracle) {
  constexpr unsigned Steps = 6;
  std::mt19937 Rng(0xC0FFEE);

  for (unsigned Threads : {1u, 8u}) {
    const std::string TracePath = "incremental_trace_" +
                                  std::to_string(Threads) + ".jsonl";
    const std::string OraclePath = "incremental_oracle_" +
                                   std::to_string(Threads) + ".jsonl";
    std::ofstream(TracePath, std::ios::trunc).close();

    Config SessionConfig;
    SessionConfig.Observability.EventTracePath = TracePath;

    service::AnalysisService::Options Opts;
    Opts.AutoDispatch = false;
    Opts.Base.Execution.NumThreads = Threads;
    Opts.Base.Observability.EventTracePath = TracePath;
    service::AnalysisService Svc(std::move(Opts));
    ASSERT_TRUE(Svc.registerProgram("p", BaseText).Ok);
    service::Session S = openEscape(Svc, SessionConfig);
    queryAll(Svc, S, 2);

    std::string Text = BaseText;
    for (unsigned Step = 0; Step < Steps; ++Step) {
      // Edits exercise every diff class: confined to the last procedure
      // (one dirty proc), early in the file (id shift dirties the rest),
      // entity-shape changes (incomparable), and the identity edit.
      switch (Rng() % 4) {
      case 0:
        Text = editP2(Text);
        break;
      case 1: {
        size_t At = Text.find("  check(a);");
        ASSERT_NE(At, std::string::npos);
        Text.insert(At, "  a.f = a;\n");
        break;
      }
      case 2: {
        size_t At = Text.find("  check(b);");
        ASSERT_NE(At, std::string::npos);
        Text.insert(At, "  c = b;\n"); // new var the first time only
        break;
      }
      case 3:
        break; // re-register the identical text: zero dirty procs
      }

      size_t TraceMark = lineCount(TracePath);
      ASSERT_TRUE(Svc.registerProgram("p", Text).Ok) << "step " << Step;
      std::vector<service::QueryResult> Got = queryAll(Svc, S, 2);

      std::ofstream(OraclePath, std::ios::trunc).close();
      Config OracleSession;
      OracleSession.Observability.EventTracePath = OraclePath;
      service::AnalysisService::Options OracleOpts;
      OracleOpts.AutoDispatch = false;
      OracleOpts.Base.Execution.NumThreads = Threads;
      OracleOpts.Base.Observability.EventTracePath = OraclePath;
      service::AnalysisService Oracle(std::move(OracleOpts));
      ASSERT_TRUE(Oracle.registerProgram("p", Text).Ok);
      service::Session OracleS = openEscape(Oracle, OracleSession);
      std::vector<service::QueryResult> Want = queryAll(Oracle, OracleS, 2);

      ASSERT_EQ(Want.size(), Got.size());
      for (size_t I = 0; I < Want.size(); ++I)
        expectIdentical(Want[I], Got[I],
                        "step " + std::to_string(Step) + " check " +
                            std::to_string(I) + " at " +
                            std::to_string(Threads) + " threads");

      std::vector<std::string> GotLines = verdictLines(TracePath, TraceMark);
      std::vector<std::string> WantLines = verdictLines(OraclePath);
      std::sort(GotLines.begin(), GotLines.end());
      std::sort(WantLines.begin(), WantLines.end());
      EXPECT_EQ(WantLines, GotLines)
          << "verdict trace diverged at step " << Step << ", "
          << Threads << " threads";
    }
    std::remove(TracePath.c_str());
    std::remove(OraclePath.c_str());
  }
}

} // namespace
