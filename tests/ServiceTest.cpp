//===- ServiceTest.cpp - Multi-tenant analysis service tests ------------------===//
//
// The service-layer contract: verdicts through an AnalysisService are
// bitwise identical to standalone QueryDriver runs at every worker count,
// batching strictly reduces the number of forward fixpoints (the
// amortization the service exists for, observed through the shared
// ForwardRunCache counters), caches are shared across sessions, tenant
// quotas isolate the offending session, and program re-registration
// invalidates stale cached runs through the epoch mechanism.
//
//===----------------------------------------------------------------------===//

#include "escape/Escape.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "meta/WpTable.h"
#include "pointer/PointsTo.h"
#include "service/AnalysisService.h"
#include "support/Metrics.h"
#include "synth/Generator.h"
#include "tracer/QueryDriver.h"
#include "typestate/Typestate.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <sstream>
#include <thread>

#include <sys/stat.h>
#include <unistd.h>

using namespace optabs;
using namespace optabs::ir;

namespace {

// Three escape queries over three allocation sites; u is reachable from v
// through a field, so its query needs a non-trivial abstraction.
const char *EscapeProgram = R"(
proc main {
  u = new h1;
  v = new h2;
  w = new h3;
  v.f = u;
  check(u);
  check(v);
  check(w);
}
)";

// The paper's Figure 1 file protocol, for type-state sessions.
const char *FileProgram = R"(
proc main {
  x = new h1;
  y = x;
  if { z = x; }
  x.open();
  y.close();
  choice { check(x, closed); } or { check(x, opened); }
}
)";

void parseInto(const char *Text, Program &P) {
  std::string Err;
  ASSERT_TRUE(parseProgram(Text, P, Err)) << Err;
}

service::Session openOrDie(service::AnalysisService &Svc,
                           const service::SessionSpec &Spec) {
  std::string Err;
  service::Session S = Svc.openSession(Spec, Err);
  EXPECT_TRUE(S.valid()) << Err;
  return S;
}

/// Drains and asserts every future resolved Done, returning the results in
/// submission order.
std::vector<service::QueryResult>
collect(service::AnalysisService &Svc,
        std::vector<std::future<service::QueryResult>> &Futures) {
  Svc.drain();
  std::vector<service::QueryResult> Out;
  for (auto &F : Futures) {
    Out.push_back(F.get());
    EXPECT_EQ(Out.back().Status, service::JobStatus::Done)
        << Out.back().Error;
  }
  return Out;
}

void expectSameVerdict(const tracer::QueryOutcome &Want,
                       const service::QueryResult &Got) {
  EXPECT_EQ(Want.V, Got.V);
  EXPECT_EQ(Want.Iterations, Got.Iterations);
  EXPECT_EQ(Want.CheapestCost, Got.CheapestCost);
  EXPECT_EQ(Want.CheapestParam, Got.CheapestParam);
}

/// A program analysed both by standalone drivers and through the service:
/// the IR text the service registers, its parse, and the checks each
/// client queries.
struct Subject {
  std::string Text;
  Program P;
  std::vector<CheckId> EscChecks;
  std::vector<CheckId> TsChecks;
};

/// A hand-written program whose every check is a query of both clients.
std::unique_ptr<Subject> handWritten(const char *Text) {
  auto S = std::make_unique<Subject>();
  S->Text = Text;
  parseInto(Text, S->P);
  for (uint32_t I = 0; I < S->P.numChecks(); ++I) {
    S->EscChecks.push_back(CheckId(I));
    S->TsChecks.push_back(CheckId(I));
  }
  return S;
}

/// The first paper-suite benchmark, printed and re-parsed the way a client
/// would register it; its escape and type-state checks are the queries.
std::unique_ptr<Subject> suiteProgram() {
  synth::Benchmark B = synth::generate(synth::paperSuite()[0]);
  std::ostringstream IrText;
  ir::printProgram(IrText, B.P);
  auto S = std::make_unique<Subject>();
  S->Text = IrText.str();
  parseInto(S->Text.c_str(), S->P);
  S->EscChecks = B.EscChecks;
  S->TsChecks = B.TsChecks;
  return S;
}

TEST(ServiceTest, EscapeVerdictsMatchStandaloneAtEveryWorkerCount) {
  std::unique_ptr<Subject> Subjects[] = {handWritten(EscapeProgram),
                                         suiteProgram()};
  for (const std::unique_ptr<Subject> &Sub : Subjects) {
    const Program &P = Sub->P;
    for (unsigned Threads : {1u, 8u}) {
      escape::EscapeAnalysis A(P);
      Config Opts;
      Opts.Execution.NumThreads = Threads;
      tracer::QueryDriver<escape::EscapeAnalysis> Driver(P, A, Opts);
      std::vector<tracer::QueryOutcome> Want = Driver.run(Sub->EscChecks);

      service::AnalysisService::Options SvcOpts;
      SvcOpts.Base.Execution.NumThreads = Threads;
      service::AnalysisService Svc(std::move(SvcOpts));
      ASSERT_TRUE(Svc.registerProgram("p", Sub->Text).Ok);
      service::SessionSpec Spec;
      Spec.Program = "p";
      Spec.Client = "escape";
      service::Session S = openOrDie(Svc, Spec);
      std::vector<std::future<service::QueryResult>> Futures;
      for (CheckId C : Sub->EscChecks)
        Futures.push_back(
            S.submit({static_cast<uint32_t>(C.index()), 0, 0}));
      std::vector<service::QueryResult> Got = collect(Svc, Futures);

      ASSERT_EQ(Want.size(), Got.size());
      for (size_t I = 0; I < Want.size(); ++I)
        expectSameVerdict(Want[I], Got[I]);
    }
  }
}

TEST(ServiceTest, TypestateVerdictsMatchStandaloneAtEveryWorkerCount) {
  std::unique_ptr<Subject> Subjects[] = {handWritten(FileProgram),
                                         suiteProgram()};
  for (const std::unique_ptr<Subject> &Sub : Subjects) {
    const Program &P = Sub->P;
    pointer::PointsToResult Pt = pointer::runPointsTo(P);
    typestate::TypestateSpec Spec = typestate::TypestateSpec::stress();

    for (unsigned Threads : {1u, 8u}) {
      // Standalone: one driver per tracked site, as the CLI and the
      // harness run the type-state client.
      std::vector<tracer::QueryOutcome> Want;
      std::vector<std::pair<uint32_t, uint32_t>> Pairs; // (check, site)
      for (uint32_t H = 0; H < P.numAllocs(); ++H) {
        std::vector<CheckId> Queries;
        for (CheckId C : Sub->TsChecks)
          if (Pt.mayPoint(P.checkSite(C).Var, AllocId(H)))
            Queries.push_back(C);
        if (Queries.empty())
          continue;
        typestate::TypestateAnalysis A(P, Spec, AllocId(H), Pt);
        Config Opts;
        Opts.Execution.NumThreads = Threads;
        tracer::QueryDriver<typestate::TypestateAnalysis> Driver(P, A, Opts);
        for (const tracer::QueryOutcome &O : Driver.run(Queries))
          Want.push_back(O);
        for (CheckId C : Queries)
          Pairs.push_back({static_cast<uint32_t>(C.index()), H});
      }
      ASSERT_FALSE(Pairs.empty());

      service::AnalysisService::Options SvcOpts;
      SvcOpts.Base.Execution.NumThreads = Threads;
      service::AnalysisService Svc(std::move(SvcOpts));
      ASSERT_TRUE(Svc.registerProgram("p", Sub->Text).Ok);
      service::SessionSpec SessSpec;
      SessSpec.Program = "p";
      SessSpec.Client = "typestate"; // empty property = stress spec
      service::Session S = openOrDie(Svc, SessSpec);
      std::vector<std::future<service::QueryResult>> Futures;
      for (auto [Check, Site] : Pairs)
        Futures.push_back(S.submit({Check, Site, 0}));
      std::vector<service::QueryResult> Got = collect(Svc, Futures);

      ASSERT_EQ(Want.size(), Got.size());
      for (size_t I = 0; I < Want.size(); ++I)
        expectSameVerdict(Want[I], Got[I]);
    }
  }
}

// The acceptance criterion of the service layer: a batch of N queries costs
// strictly fewer forward fixpoints than N standalone QueryDriver::run()
// calls, with identical verdicts.
TEST(ServiceTest, BatchedQueriesComputeStrictlyFewerForwardFixpoints) {
  Program P;
  parseInto(EscapeProgram, P);

  uint64_t StandaloneForwardRuns = 0, StandaloneMisses = 0;
  std::vector<tracer::QueryOutcome> Want;
  for (uint32_t I = 0; I < P.numChecks(); ++I) {
    escape::EscapeAnalysis A(P);
    Config StandaloneOpts;
    tracer::QueryDriver<escape::EscapeAnalysis> Driver(P, A, StandaloneOpts);
    std::vector<tracer::QueryOutcome> Out = Driver.run({CheckId(I)});
    ASSERT_EQ(Out.size(), 1u);
    Want.push_back(Out[0]);
    StandaloneForwardRuns += Driver.stats().ForwardRuns;
    StandaloneMisses += Driver.stats().CacheMisses;
  }

  service::AnalysisService Svc;
  ASSERT_TRUE(Svc.registerProgram("p", EscapeProgram).Ok);
  service::SessionSpec Spec;
  Spec.Program = "p";
  Spec.Client = "escape";
  service::Session S = openOrDie(Svc, Spec);
  std::vector<std::future<service::QueryResult>> Futures;
  for (uint32_t I = 0; I < P.numChecks(); ++I)
    Futures.push_back(S.submit({I, 0, 0}));
  std::vector<service::QueryResult> Got = collect(Svc, Futures);

  ASSERT_EQ(Want.size(), Got.size());
  for (size_t I = 0; I < Want.size(); ++I)
    expectSameVerdict(Want[I], Got[I]);

  service::ServiceStats Stats = Svc.stats();
  EXPECT_LT(Stats.ForwardRuns, StandaloneForwardRuns);
  // The shared cache observes the same economy: strictly fewer fixpoints
  // are computed (missed) than the N isolated caches computed in total.
  EXPECT_LT(Stats.CacheMisses, StandaloneMisses);
  EXPECT_EQ(Stats.JobsCompleted, static_cast<uint64_t>(Want.size()));
}

TEST(ServiceTest, CacheIsSharedAcrossSessions) {
  service::AnalysisService::Options Opts;
  Opts.AutoDispatch = false; // two waves = two batches, deterministically
  service::AnalysisService Svc(std::move(Opts));
  ASSERT_TRUE(Svc.registerProgram("p", EscapeProgram).Ok);

  service::SessionSpec Spec;
  Spec.Program = "p";
  Spec.Client = "escape";
  service::Session A = openOrDie(Svc, Spec);
  service::Session B = openOrDie(Svc, Spec);

  std::vector<std::future<service::QueryResult>> Wave1, Wave2;
  Wave1.push_back(A.submit({0, 0, 0}));
  std::vector<service::QueryResult> First = collect(Svc, Wave1);
  uint64_t HitsAfterFirst = Svc.stats().CacheHits;
  uint64_t MissesAfterFirst = Svc.stats().CacheMisses;

  // Session B repeats session A's query: every forward fixpoint of the
  // second batch is already memoized in the shared per-program cache.
  Wave2.push_back(B.submit({0, 0, 0}));
  std::vector<service::QueryResult> Second = collect(Svc, Wave2);

  EXPECT_EQ(First[0].V, Second[0].V);
  EXPECT_EQ(First[0].Iterations, Second[0].Iterations);
  EXPECT_EQ(First[0].CheapestCost, Second[0].CheapestCost);
  EXPECT_EQ(First[0].CheapestParam, Second[0].CheapestParam);
  EXPECT_GT(Svc.stats().CacheHits, HitsAfterFirst);
  EXPECT_EQ(Svc.stats().CacheMisses, MissesAfterFirst);
}

// Every analysis keeps one wp table across batches (meta/WpTable.h); the
// cache op's evict releases them along with the cached runs, and a pass
// after that recomputes the same verdicts from cold tables.
TEST(ServiceTest, EvictReleasesTheWpTablesAndRequeriedVerdictsMatch) {
  std::unique_ptr<Subject> Sub = suiteProgram();
  const Program &P = Sub->P;
  pointer::PointsToResult Pt = pointer::runPointsTo(P);
  support::setMetricsEnabled(true);
  auto &Bytes =
      support::MetricRegistry::global().gauge("optabs_wp_table_bytes");

  service::AnalysisService Svc;
  ASSERT_TRUE(Svc.registerProgram("p", Sub->Text).Ok);
  service::SessionSpec EscSpec;
  EscSpec.Program = "p";
  EscSpec.Client = "escape";
  service::SessionSpec TsSpec = EscSpec;
  TsSpec.Client = "typestate";
  service::Session Esc = openOrDie(Svc, EscSpec);
  service::Session Ts = openOrDie(Svc, TsSpec);
  auto Pass = [&] {
    std::vector<std::future<service::QueryResult>> Futures;
    for (CheckId C : Sub->EscChecks)
      Futures.push_back(Esc.submit({static_cast<uint32_t>(C.index()), 0, 0}));
    for (CheckId C : Sub->TsChecks)
      for (uint32_t H = 0; H < P.numAllocs(); ++H)
        if (Pt.mayPoint(P.checkSite(C).Var, AllocId(H)))
          Futures.push_back(
              Ts.submit({static_cast<uint32_t>(C.index()), H, 0}));
    return collect(Svc, Futures);
  };

  std::vector<service::QueryResult> Cold = Pass();
  EXPECT_GT(Bytes.value(), 0);
  EXPECT_EQ(Bytes.value(), meta::WpTable::totalBytes());
  service::CacheOpResult R = Svc.cacheOp("evict");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(Bytes.value(), 0);

  std::vector<service::QueryResult> Again = Pass();
  EXPECT_GT(Bytes.value(), 0);
  ASSERT_EQ(Cold.size(), Again.size());
  for (size_t I = 0; I < Cold.size(); ++I) {
    EXPECT_EQ(Cold[I].V, Again[I].V);
    EXPECT_EQ(Cold[I].Iterations, Again[I].Iterations);
    EXPECT_EQ(Cold[I].CheapestCost, Again[I].CheapestCost);
    EXPECT_EQ(Cold[I].CheapestParam, Again[I].CheapestParam);
  }
  support::setMetricsEnabled(false);
}

TEST(ServiceTest, PendingQuotaExhaustionOnlyDegradesTheOffendingSession) {
  service::AnalysisService::Options Opts;
  Opts.AutoDispatch = false; // keep jobs pending so the quota binds
  service::AnalysisService Svc(std::move(Opts));
  ASSERT_TRUE(Svc.registerProgram("p", EscapeProgram).Ok);

  service::SessionSpec Greedy;
  Greedy.Program = "p";
  Greedy.Client = "escape";
  Greedy.SessionConfig.Service.MaxPendingPerSession = 1;
  service::Session A = openOrDie(Svc, Greedy);

  service::SessionSpec Normal;
  Normal.Program = "p";
  Normal.Client = "escape";
  service::Session B = openOrDie(Svc, Normal);

  std::vector<std::future<service::QueryResult>> Ok;
  Ok.push_back(A.submit({0, 0, 0}));
  std::future<service::QueryResult> Over = A.submit({1, 0, 0});
  service::QueryResult Rejected = Over.get(); // ready immediately
  EXPECT_EQ(Rejected.Status, service::JobStatus::Rejected);
  EXPECT_NE(Rejected.Error.find("pending"), std::string::npos)
      << Rejected.Error;

  // The other tenant is unaffected by A's exhaustion.
  for (uint32_t I = 0; I < 3; ++I)
    Ok.push_back(B.submit({I, 0, 0}));
  std::vector<service::QueryResult> Results = collect(Svc, Ok);
  EXPECT_EQ(Results.size(), 4u);
  EXPECT_GE(Svc.stats().JobsRejected, 1u);
}

TEST(ServiceTest, LifetimeQuotaBindsAcrossBatches) {
  service::AnalysisService Svc;
  ASSERT_TRUE(Svc.registerProgram("p", EscapeProgram).Ok);
  service::SessionSpec Spec;
  Spec.Program = "p";
  Spec.Client = "escape";
  Spec.SessionConfig.Service.MaxJobsPerSession = 1;
  service::Session S = openOrDie(Svc, Spec);

  std::vector<std::future<service::QueryResult>> Futures;
  Futures.push_back(S.submit({0, 0, 0}));
  collect(Svc, Futures); // first job runs fine
  service::QueryResult Second = S.submit({1, 0, 0}).get();
  EXPECT_EQ(Second.Status, service::JobStatus::Rejected);
  EXPECT_NE(Second.Error.find("quota"), std::string::npos) << Second.Error;
}

TEST(ServiceTest, SessionQuotaAndInvalidSpecsRejectStructurally) {
  service::AnalysisService::Options Opts;
  Opts.Base.Service.MaxSessions = 1;
  service::AnalysisService Svc(std::move(Opts));
  ASSERT_TRUE(Svc.registerProgram("p", EscapeProgram).Ok);

  service::SessionSpec Spec;
  Spec.Program = "p";
  Spec.Client = "escape";
  service::Session First = openOrDie(Svc, Spec);
  std::string Err;
  EXPECT_FALSE(Svc.openSession(Spec, Err).valid());
  EXPECT_NE(Err.find("session"), std::string::npos) << Err;

  First.close();
  service::Session Again = openOrDie(Svc, Spec); // slot freed by close()
  EXPECT_TRUE(Again.valid());

  service::SessionSpec Bad = Spec;
  Bad.Program = "nope";
  EXPECT_FALSE(Svc.openSession(Bad, Err).valid());
  Bad = Spec;
  Bad.Client = "bogus";
  EXPECT_FALSE(Svc.openSession(Bad, Err).valid());
  Bad = Spec;
  Bad.SessionConfig.Execution.TracesPerIteration = 0;
  EXPECT_FALSE(Svc.openSession(Bad, Err).valid());
  EXPECT_NE(Err.find("traces_per_iteration"), std::string::npos) << Err;

  service::Session Invalid;
  service::QueryResult R = Invalid.submit({0, 0, 0}).get();
  EXPECT_EQ(R.Status, service::JobStatus::Rejected);
  EXPECT_EQ(R.Error, "invalid session handle");
}

TEST(ServiceTest, ClosingASessionMidBatchStillDeliversItsRunningJob) {
  // The session's event trace is a FIFO: the batch's driver blocks opening
  // it for writing until the test opens the read end, which holds the job
  // inside a running batch for as long as the test needs.
  char Dir[] = "/tmp/optabs-close-XXXXXX";
  ASSERT_NE(::mkdtemp(Dir), nullptr);
  std::string Fifo = std::string(Dir) + "/trace.jsonl";
  ASSERT_EQ(::mkfifo(Fifo.c_str(), 0600), 0);

  service::AnalysisService::Options Opts;
  Opts.AutoDispatch = false;
  Opts.Base.Observability.ServiceTrace = true; // explain() shows "batched"
  service::AnalysisService Svc(std::move(Opts));
  ASSERT_TRUE(Svc.registerProgram("p", EscapeProgram).Ok);
  service::SessionSpec Spec;
  Spec.Program = "p";
  Spec.Client = "escape";
  Spec.SessionConfig.Observability.EventTracePath = Fifo;
  service::Session S = openOrDie(Svc, Spec);
  service::Session Copy = S; // outlives close(), like a second client

  uint64_t Job = 0;
  std::future<service::QueryResult> F = S.submit({0}, &Job);
  std::thread Drainer([&] { Svc.drain(); });
  for (int I = 0; I < 30000 && Svc.explain(Job).Status != "batched"; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(Svc.explain(Job).Status, "batched");

  S.close();
  service::ServiceStats Mid = Svc.stats();
  EXPECT_EQ(Mid.SessionsClosed, 1u);
  EXPECT_TRUE(Mid.PendingBySession.empty()); // only open sessions listed
  EXPECT_EQ(Mid.QueueDepth, 1u);             // the running job still counts

  // Opening the read end releases the driver; read its trace to EOF.
  std::ifstream Trace(Fifo);
  std::string Events((std::istreambuf_iterator<char>(Trace)),
                     std::istreambuf_iterator<char>());
  Drainer.join();
  service::QueryResult R = F.get();
  EXPECT_EQ(R.Status, service::JobStatus::Done) << R.Error;
  EXPECT_EQ(R.Job, Job);
  EXPECT_EQ(R.V, tracer::Verdict::Proven);
  EXPECT_NE(Events.find("\"event\":\"verdict\""), std::string::npos);
  EXPECT_EQ(Svc.stats().QueueDepth, 0u);

  service::QueryResult Late = Copy.submit({1}).get();
  EXPECT_EQ(Late.Status, service::JobStatus::Rejected);
  EXPECT_EQ(Late.Error, "unknown or closed session");
  std::remove(Fifo.c_str());
  ::rmdir(Dir);
}

TEST(ServiceTest, ReRegistrationBumpsEpochAndInvalidatesCachedRuns) {
  service::AnalysisService::Options Opts;
  Opts.AutoDispatch = false;
  service::AnalysisService Svc(std::move(Opts));
  service::RegisterResult R1 = Svc.registerProgram("p", EscapeProgram);
  ASSERT_TRUE(R1.Ok);
  EXPECT_EQ(R1.Checks, 3u);

  service::SessionSpec Spec;
  Spec.Program = "p";
  Spec.Client = "escape";
  service::Session S = openOrDie(Svc, Spec);
  std::vector<std::future<service::QueryResult>> Futures;
  Futures.push_back(S.submit({0, 0, 0}));
  collect(Svc, Futures);
  EXPECT_GT(Svc.stats().CacheMisses, 0u);

  // Same name, different program: the epoch bumps, the session keeps
  // working against the new program, and the stale cached runs are
  // reclaimed before the next batch on it.
  const char *Smaller = "proc main {\n  u = new h1;\n  check(u);\n}\n";
  service::RegisterResult R2 = Svc.registerProgram("p", Smaller);
  ASSERT_TRUE(R2.Ok);
  EXPECT_GT(R2.Epoch, R1.Epoch);
  EXPECT_EQ(R2.Checks, 1u);

  std::vector<std::future<service::QueryResult>> After;
  After.push_back(S.submit({0, 0, 0}));
  std::vector<service::QueryResult> Got = collect(Svc, After);
  EXPECT_EQ(Got[0].V, tracer::Verdict::Proven);
  EXPECT_EQ(Got[0].CheapestParam, "[L:h1]");
  EXPECT_GT(Svc.stats().StaleEntriesInvalidated, 0u);

  // Queries against check indices of the retired program fail structurally.
  service::QueryResult OutOfRange = [&] {
    std::future<service::QueryResult> F = S.submit({2, 0, 0});
    Svc.drain();
    return F.get();
  }();
  EXPECT_EQ(OutOfRange.Status, service::JobStatus::Failed);
  EXPECT_NE(OutOfRange.Error.find("check"), std::string::npos)
      << OutOfRange.Error;
}

TEST(ServiceTest, ConcurrentTenantsSubmitSafely) {
  service::AnalysisService::Options Opts;
  Opts.Base.Execution.NumThreads = 4;
  service::AnalysisService Svc(std::move(Opts));
  ASSERT_TRUE(Svc.registerProgram("p", EscapeProgram).Ok);

  constexpr unsigned Tenants = 4, JobsPer = 6;
  std::vector<std::vector<service::QueryResult>> Results(Tenants);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Tenants; ++T)
    Workers.emplace_back([&, T] {
      service::SessionSpec Spec;
      Spec.Program = "p";
      Spec.Client = "escape";
      std::string Err;
      service::Session S = Svc.openSession(Spec, Err);
      ASSERT_TRUE(S.valid()) << Err;
      std::vector<std::future<service::QueryResult>> Futures;
      for (unsigned J = 0; J < JobsPer; ++J)
        Futures.push_back(S.submit({J % 3, 0, static_cast<int32_t>(J)}));
      for (auto &F : Futures)
        Results[T].push_back(F.get());
    });
  for (std::thread &W : Workers)
    W.join();
  // Futures resolve before the scheduler folds a batch's accounting into
  // the aggregate counters; drain() returns only after the fold.
  Svc.drain();

  // Every tenant saw every job resolve, and identical queries resolved
  // identically regardless of which batch carried them.
  for (unsigned T = 0; T < Tenants; ++T) {
    ASSERT_EQ(Results[T].size(), static_cast<size_t>(JobsPer));
    for (const service::QueryResult &R : Results[T]) {
      EXPECT_EQ(R.Status, service::JobStatus::Done) << R.Error;
      EXPECT_EQ(R.V, Results[0][0].V);
    }
  }
  EXPECT_EQ(Svc.stats().JobsCompleted,
            static_cast<uint64_t>(Tenants) * JobsPer);
}

} // namespace
