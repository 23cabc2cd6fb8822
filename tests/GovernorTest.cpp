//===- GovernorTest.cpp - Resource governor: budgets, faults, degradation ----===//
//
// The deterministic resource governor must (a) cut every kernel at a
// reproducible logical step, (b) surface every exhaustion as a structured
// Exhausted{resource, site} record mapped to an Unresolved verdict, never a
// wrong one, (c) walk the memory-pressure degradation ladder soundly, and
// (d) survive every injected fault. These tests pin each layer: the
// BudgetGate and FaultRegistry primitives, the per-kernel cut points, the
// driver's Unresolved mapping, the harness budget carve-out, and the
// thread pool's exception routing.
//
//===----------------------------------------------------------------------===//

#include "escape/Escape.h"
#include "ir/Parser.h"
#include "reporting/Harness.h"
#include "support/Budget.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"
#include "synth/Generator.h"
#include "tracer/MinCostSat.h"
#include "tracer/QueryDriver.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace {

using namespace optabs;
using namespace optabs::ir;
using support::BudgetGate;
using support::CancelToken;
using support::FaultKind;
using support::FaultRegistry;
using support::Resource;
using tracer::QueryDriver;
using tracer::Verdict;

//===----------------------------------------------------------------------===//
// BudgetGate / CancelToken primitives
//===----------------------------------------------------------------------===//

TEST(BudgetGate, StepLimitCutsAfterExactlyNCharges) {
  BudgetGate Gate("test.site", /*StepLimit=*/3);
  EXPECT_TRUE(Gate.charge());
  EXPECT_TRUE(Gate.charge());
  EXPECT_TRUE(Gate.charge());
  EXPECT_FALSE(Gate.charge()); // 4th unit exceeds the limit
  ASSERT_TRUE(Gate.exhausted());
  EXPECT_EQ(Gate.why()->Res, Resource::Steps);
  EXPECT_STREQ(Gate.why()->Site, "test.site");
  // Sticky: once exhausted, every further charge is refused.
  EXPECT_FALSE(Gate.charge());
  EXPECT_EQ(Gate.stepsUsed(), 4u);
}

TEST(BudgetGate, BulkChargesCountTheirWeight) {
  BudgetGate Gate("test.site", /*StepLimit=*/10);
  EXPECT_TRUE(Gate.charge(10)); // exactly at the limit: still fine
  EXPECT_FALSE(Gate.charge(1));
  EXPECT_EQ(Gate.why()->Res, Resource::Steps);
}

TEST(BudgetGate, ZeroLimitMeansUnbounded) {
  BudgetGate Gate("test.site", /*StepLimit=*/0);
  for (int I = 0; I < 10000; ++I)
    EXPECT_TRUE(Gate.charge());
  EXPECT_FALSE(Gate.exhausted());
}

TEST(BudgetGate, CancelTokenStopsTheGate) {
  CancelToken Tok;
  BudgetGate Gate("test.site", 0, &Tok);
  EXPECT_TRUE(Gate.charge());
  Tok.request();
  EXPECT_FALSE(Gate.charge());
  ASSERT_TRUE(Gate.exhausted());
  EXPECT_EQ(Gate.why()->Res, Resource::Cancelled);
}

TEST(BudgetGate, WallClockDeadlineFires) {
  // The deadline is polled every 1024 charges; with an (elapsed) deadline
  // of essentially zero the poll at charge 1024 must trip it.
  BudgetGate Gate("test.site", 0, nullptr, /*DeadlineSeconds=*/1e-9);
  unsigned Allowed = 0;
  while (Gate.charge() && Allowed < 100000)
    ++Allowed;
  ASSERT_TRUE(Gate.exhausted());
  EXPECT_EQ(Gate.why()->Res, Resource::WallClock);
  EXPECT_LT(Allowed, 100000u);
}

TEST(BudgetGate, ExhaustIsStickyAndFirstCauseWins) {
  BudgetGate Gate("test.site");
  Gate.exhaust(Resource::Memory);
  Gate.exhaust(Resource::Cancelled); // ignored: first cause is kept
  ASSERT_TRUE(Gate.exhausted());
  EXPECT_EQ(Gate.why()->Res, Resource::Memory);
}

TEST(Budget, ResourceNamesAreStable) {
  EXPECT_STREQ(support::resourceName(Resource::Steps), "steps");
  EXPECT_STREQ(support::resourceName(Resource::WallClock), "wall_clock");
  EXPECT_STREQ(support::resourceName(Resource::Memory), "memory");
  EXPECT_STREQ(support::resourceName(Resource::Cancelled), "cancelled");
}

//===----------------------------------------------------------------------===//
// FaultRegistry spec parsing and firing
//===----------------------------------------------------------------------===//

/// Every registry test disarms on scope exit: the registry is process-wide.
struct DisarmGuard {
  ~DisarmGuard() { FaultRegistry::global().disarm(); }
};

TEST(FaultRegistry, ArmsAValidSpecAndFiresOnce) {
  DisarmGuard G;
  std::string Err;
  ASSERT_TRUE(FaultRegistry::global().arm("forward.visit:cancel", Err)) << Err;
  EXPECT_TRUE(support::faultsEnabled());
  auto K = FaultRegistry::global().hit("forward.visit");
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(*K, FaultKind::Cancel);
  // Each arm fires exactly once.
  EXPECT_FALSE(FaultRegistry::global().hit("forward.visit").has_value());
}

TEST(FaultRegistry, NthHitDelaysTheFault) {
  DisarmGuard G;
  std::string Err;
  ASSERT_TRUE(FaultRegistry::global().arm("dnf.product:invariant@3", Err))
      << Err;
  EXPECT_FALSE(FaultRegistry::global().hit("dnf.product").has_value());
  EXPECT_FALSE(FaultRegistry::global().hit("dnf.product").has_value());
  auto K = FaultRegistry::global().hit("dnf.product");
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(*K, FaultKind::Invariant);
}

TEST(FaultRegistry, SemicolonJoinsIndependentArms) {
  DisarmGuard G;
  std::string Err;
  ASSERT_TRUE(FaultRegistry::global().arm(
      "backward.step:cancel;cache.insert:invariant", Err))
      << Err;
  EXPECT_TRUE(FaultRegistry::global().hit("backward.step").has_value());
  EXPECT_TRUE(FaultRegistry::global().hit("cache.insert").has_value());
}

TEST(FaultRegistry, RejectsUnknownSitesAtomically) {
  DisarmGuard G;
  std::string Err;
  // The first arm is valid, the second is not: nothing must be armed.
  EXPECT_FALSE(
      FaultRegistry::global().arm("forward.visit:alloc;no.such.site:cancel",
                                  Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(support::faultsEnabled());
  EXPECT_FALSE(FaultRegistry::global().hit("forward.visit").has_value());
}

TEST(FaultRegistry, RejectsMalformedSpecs) {
  DisarmGuard G;
  std::string Err;
  EXPECT_FALSE(FaultRegistry::global().arm("forward.visit", Err));
  EXPECT_FALSE(FaultRegistry::global().arm("forward.visit:explode", Err));
  EXPECT_FALSE(FaultRegistry::global().arm("forward.visit:alloc@zero", Err));
  EXPECT_FALSE(FaultRegistry::global().arm("forward.visit:alloc@0", Err));
  EXPECT_FALSE(support::faultsEnabled());
}

TEST(FaultRegistry, DisarmResetsEverything) {
  std::string Err;
  ASSERT_TRUE(FaultRegistry::global().arm("driver.schedule:cancel", Err));
  FaultRegistry::global().disarm();
  EXPECT_FALSE(support::faultsEnabled());
  EXPECT_FALSE(FaultRegistry::global().hit("driver.schedule").has_value());
}

TEST(FaultPoint, AllocFaultThrowsBadAlloc) {
  DisarmGuard G;
  std::string Err;
  ASSERT_TRUE(FaultRegistry::global().arm("cache.insert:alloc", Err));
  EXPECT_THROW(support::faultPoint("cache.insert"), std::bad_alloc);
  // Fired once: the site is quiet afterwards.
  EXPECT_FALSE(support::faultPoint("cache.insert").has_value());
}

TEST(FaultPoint, DisarmedCostsOneRelaxedLoad) {
  // Nothing armed: faultPoint must return nullopt without touching the
  // registry (observable here only as "no fault fires").
  EXPECT_FALSE(support::faultsEnabled());
  EXPECT_FALSE(support::faultPoint("forward.visit").has_value());
}

//===----------------------------------------------------------------------===//
// Min-cost SAT abort semantics
//===----------------------------------------------------------------------===//

TEST(SolverBudget, AbortedSearchIsNotUnsat) {
  // Two disjoint positive clauses need two branch decisions; a one-decision
  // budget aborts mid-search. The same CNF without a gate is satisfiable
  // with cost 2 - so reading the aborted nullopt as "unsatisfiable" would
  // be wrong, and the exhausted gate is what tells the caller not to.
  tracer::Cnf F;
  F.addClause({{0, true}, {1, true}});
  F.addClause({{2, true}, {3, true}});
  ASSERT_TRUE(tracer::solveMinCost(F, 4).has_value());
  EXPECT_EQ(tracer::solveMinCost(F, 4)->Cost, 2u);

  BudgetGate Gate("mincostsat.decision", /*StepLimit=*/1);
  auto Aborted = tracer::solveMinCost(F, 4, &Gate);
  EXPECT_FALSE(Aborted.has_value());
  ASSERT_TRUE(Gate.exhausted());
  EXPECT_EQ(Gate.why()->Res, Resource::Steps);
}

TEST(SolverBudget, GenerousBudgetChangesNothing) {
  tracer::Cnf F;
  F.addClause({{0, true}, {1, true}});
  F.addClause({{1, true}, {2, true}});
  BudgetGate Gate("mincostsat.decision", /*StepLimit=*/1000000);
  auto Gated = tracer::solveMinCost(F, 3, &Gate);
  auto Free = tracer::solveMinCost(F, 3);
  ASSERT_TRUE(Gated.has_value());
  ASSERT_TRUE(Free.has_value());
  EXPECT_EQ(Gated->Cost, Free->Cost);
  EXPECT_EQ(Gated->Assignment, Free->Assignment);
  EXPECT_FALSE(Gate.exhausted());
}

//===----------------------------------------------------------------------===//
// Driver-level exhaustion mapping
//===----------------------------------------------------------------------===//

Program parse(const char *Src) {
  Program P;
  std::string Error;
  bool Ok = parseProgram(Src, P, Error);
  EXPECT_TRUE(Ok) << Error;
  return P;
}

const char *TwoSiteSrc = R"(
  proc main {
    u = new h1;
    v = new h2;
    v.f = u;
    check(u);
  }
)";

TEST(DriverGovernor, ForwardStepBudgetMapsToUnresolved) {
  Program P = parse(TwoSiteSrc);
  escape::EscapeAnalysis A(P);
  Config Options;
  Options.Budgets.ForwardStepBudget = 1; // no fixpoint finishes in one visit
  QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Unresolved);
  ASSERT_TRUE(Outcomes[0].Exhaustion.has_value());
  EXPECT_EQ(Outcomes[0].Exhaustion->Res, Resource::Steps);
  EXPECT_STREQ(Outcomes[0].Exhaustion->Site, "forward.visit");
  EXPECT_GE(Driver.stats().BudgetExhausted, 1u);
  // A partial fixpoint must never be cached: a rerun recomputes it.
  EXPECT_EQ(Driver.stats().CacheHits, 0u);
}

TEST(DriverGovernor, BackwardStepBudgetMapsToUnresolved) {
  Program P = parse(TwoSiteSrc);
  escape::EscapeAnalysis A(P);
  Config Options;
  // The meta-analysis dies on its 2nd step.
  Options.Budgets.BackwardStepBudget = 1;
  QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Unresolved);
  ASSERT_TRUE(Outcomes[0].Exhaustion.has_value());
  EXPECT_EQ(Outcomes[0].Exhaustion->Res, Resource::Steps);
  EXPECT_STREQ(Outcomes[0].Exhaustion->Site, "backward.step");
}

TEST(DriverGovernor, GenerousStepBudgetsChangeNothing) {
  Program P = parse(TwoSiteSrc);
  escape::EscapeAnalysis A(P);
  QueryDriver<escape::EscapeAnalysis> Free(P, A);
  auto Baseline = Free.run({CheckId(0)});

  Config Options;
  Options.Budgets.ForwardStepBudget = 1u << 30;
  Options.Budgets.BackwardStepBudget = 1u << 30;
  Options.Budgets.SolverDecisionBudget = 1u << 30;
  QueryDriver<escape::EscapeAnalysis> Gated(P, A, Options);
  auto Outcomes = Gated.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Baseline[0].V);
  EXPECT_EQ(Outcomes[0].Iterations, Baseline[0].Iterations);
  EXPECT_EQ(Outcomes[0].CheapestParam, Baseline[0].CheapestParam);
  EXPECT_FALSE(Outcomes[0].Exhaustion.has_value());
  EXPECT_EQ(Gated.stats().BudgetExhausted, 0u);
}

TEST(DriverGovernor, PreCancelledRunResolvesNothing) {
  Program P = parse(TwoSiteSrc);
  escape::EscapeAnalysis A(P);
  auto Cancel = std::make_shared<CancelToken>();
  Cancel->request();
  QueryDriver<escape::EscapeAnalysis> Driver(P, A);
  Driver.setCancelToken(Cancel);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Unresolved);
  EXPECT_EQ(Outcomes[0].Iterations, 0u);
  ASSERT_TRUE(Outcomes[0].Exhaustion.has_value());
  EXPECT_EQ(Outcomes[0].Exhaustion->Res, Resource::Cancelled);
  EXPECT_EQ(Driver.stats().ForwardRuns, 0u);
}

TEST(DriverGovernor, GreedyForwardBudgetMapsToUnresolved) {
  Program P = parse(TwoSiteSrc);
  escape::EscapeAnalysis A(P);
  Config Options;
  Options.Execution.Strategy = "greedy-grow";
  Options.Budgets.ForwardStepBudget = 1;
  QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Unresolved);
  ASSERT_TRUE(Outcomes[0].Exhaustion.has_value());
  EXPECT_EQ(Outcomes[0].Exhaustion->Res, Resource::Steps);
  EXPECT_STREQ(Outcomes[0].Exhaustion->Site, "forward.visit");
}

TEST(DriverGovernor, InjectedForwardAllocFaultIsContained) {
  DisarmGuard G;
  std::string Err;
  ASSERT_TRUE(FaultRegistry::global().arm("forward.visit:alloc", Err)) << Err;
  Program P = parse(TwoSiteSrc);
  escape::EscapeAnalysis A(P);
  QueryDriver<escape::EscapeAnalysis> Driver(P, A);
  auto Outcomes = Driver.run({CheckId(0)});
  // The first fixpoint dies with bad_alloc; its query ends Unresolved with
  // a memory exhaustion record instead of taking the process down.
  EXPECT_EQ(Outcomes[0].V, Verdict::Unresolved);
  ASSERT_TRUE(Outcomes[0].Exhaustion.has_value());
  EXPECT_EQ(Outcomes[0].Exhaustion->Res, Resource::Memory);
  EXPECT_STREQ(Outcomes[0].Exhaustion->Site, "forward.visit");
}

TEST(DriverGovernor, InjectedCancelFaultUnwindsCleanly) {
  DisarmGuard G;
  std::string Err;
  ASSERT_TRUE(FaultRegistry::global().arm("driver.schedule:cancel", Err))
      << Err;
  Program P = parse(TwoSiteSrc);
  escape::EscapeAnalysis A(P);
  QueryDriver<escape::EscapeAnalysis> Driver(P, A);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Unresolved);
  ASSERT_TRUE(Outcomes[0].Exhaustion.has_value());
  EXPECT_EQ(Outcomes[0].Exhaustion->Res, Resource::Cancelled);
}

//===----------------------------------------------------------------------===//
// Memory budget and the degradation ladder
//===----------------------------------------------------------------------===//

TEST(DegradationLadder, MemoryPressureDegradesButStaysSound) {
  // A 1-byte budget is below any real footprint, so every round triggers
  // the ladder. The run must still complete, every rung must be recorded,
  // and - audited - every verdict must carry a valid certificate.
  std::string TracePath =
      ::testing::TempDir() + "governor_degrade_trace.jsonl";
  std::remove(TracePath.c_str());

  reporting::HarnessOptions Options;
  Options.Client = "escape";
  Options.Cfg.Audit.Enabled = true;
  Options.Cfg.Observability.EventTracePath = TracePath;
  Options.Cfg.Budgets.MemoryBudgetBytes = 1;
  reporting::BenchRun Run =
      reporting::runBenchmark(synth::paperSuite()[0], Options);

  ASSERT_FALSE(Run.Esc.Queries.empty());
  EXPECT_GT(Run.Esc.Degradations, 0u);
  EXPECT_EQ(Run.Esc.CertificateFailures, 0u);
  EXPECT_EQ(Run.Esc.InvariantViolations, 0u);
  EXPECT_GT(Run.Esc.CertificatesChecked, 0u);

  // The degrade events landed in the trace with the ladder's actions.
  std::ifstream In(TracePath);
  ASSERT_TRUE(In.good());
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  std::string Trace = Buffer.str();
  EXPECT_NE(Trace.find("\"event\":\"degrade\""), std::string::npos);
  EXPECT_NE(Trace.find("\"action\":\"evict_cache\""), std::string::npos);
  EXPECT_NE(Trace.find("\"trigger\":\"memory\""), std::string::npos);
  std::remove(TracePath.c_str());
}

TEST(DegradationLadder, DegradedVerdictsNeverContradictBaseline) {
  reporting::HarnessOptions Baseline;
  Baseline.Client = "escape";
  reporting::BenchRun Free =
      reporting::runBenchmark(synth::paperSuite()[0], Baseline);

  reporting::HarnessOptions Options;
  Options.Client = "escape";
  Options.Cfg.Budgets.MemoryBudgetBytes = 1;
  reporting::BenchRun Degraded =
      reporting::runBenchmark(synth::paperSuite()[0], Options);

  ASSERT_EQ(Free.Esc.Queries.size(), Degraded.Esc.Queries.size());
  for (size_t I = 0; I < Free.Esc.Queries.size(); ++I) {
    // A degraded run may resolve fewer queries, never differently.
    if (Degraded.Esc.Queries[I].V == Verdict::Unresolved)
      continue;
    EXPECT_EQ(Degraded.Esc.Queries[I].V, Free.Esc.Queries[I].V)
        << "query " << I;
  }
}

// GreedyGrow runs through the same round loop, so the ladder reaches it
// too: a 1-byte budget degrades every round, and every Proven verdict it
// still reaches carries a valid witness.
TEST(DegradationLadder, GreedyGrowDegradesAndStaysSound) {
  reporting::HarnessOptions Options;
  Options.Client = "escape";
  Options.Cfg.Audit.Enabled = true;
  Options.Cfg.Execution.Strategy = "greedy-grow";
  Options.Cfg.Budgets.MemoryBudgetBytes = 1;
  reporting::BenchRun Run =
      reporting::runBenchmark(synth::paperSuite()[0], Options);

  ASSERT_FALSE(Run.Esc.Queries.empty());
  EXPECT_GE(Run.Esc.Degradations, 1u);
  EXPECT_GT(Run.Esc.count(Verdict::Proven), 0u);
  EXPECT_GE(Run.Esc.CertificatesChecked, Run.Esc.count(Verdict::Proven));
  EXPECT_EQ(Run.Esc.CertificateFailures, 0u)
      << (Run.Esc.AuditNotes.empty() ? "" : Run.Esc.AuditNotes[0]);
  EXPECT_EQ(Run.Esc.InvariantViolations, 0u);
}

//===----------------------------------------------------------------------===//
// Harness budget carve-out
//===----------------------------------------------------------------------===//

TEST(HarnessGovernor, SpentBudgetShortCircuitsPerSiteDrivers) {
  // With the whole budget already spent, the per-site type-state loop must
  // emit clean wall-clock exhaustion verdicts without running any doomed
  // driver (previously it constructed a driver per site just to time out).
  reporting::HarnessOptions Options;
  Options.Client = "typestate";
  Options.Cfg.Budgets.TimeBudgetSeconds = 0;
  reporting::BenchRun Run =
      reporting::runBenchmark(synth::paperSuite()[0], Options);

  ASSERT_FALSE(Run.Ts.Queries.empty());
  EXPECT_EQ(Run.Ts.ForwardRuns, 0u);
  EXPECT_EQ(Run.Ts.BudgetExhausted,
            static_cast<unsigned>(Run.Ts.Queries.size()));
  for (const reporting::QueryStat &Q : Run.Ts.Queries) {
    EXPECT_EQ(Q.V, Verdict::Unresolved);
    EXPECT_EQ(Q.ExhaustedResource, "wall_clock");
    EXPECT_EQ(Q.ExhaustedSite, "harness.budget");
    EXPECT_EQ(Q.Iterations, 0u);
  }
}

// Escape's single group goes through the same carve-out: with the budget
// spent before it starts, it reports harness.budget and runs no driver.
TEST(HarnessGovernor, SpentBudgetShortCircuitsEscapeToo) {
  reporting::HarnessOptions Options;
  Options.Client = "escape";
  Options.Cfg.Budgets.TimeBudgetSeconds = 0;
  reporting::BenchRun Run =
      reporting::runBenchmark(synth::paperSuite()[0], Options);

  ASSERT_FALSE(Run.Esc.Queries.empty());
  EXPECT_EQ(Run.Esc.Queries.size(), Run.EscQueries);
  EXPECT_EQ(Run.Esc.ForwardRuns, 0u);
  EXPECT_EQ(Run.Esc.BudgetExhausted,
            static_cast<unsigned>(Run.Esc.Queries.size()));
  for (const reporting::QueryStat &Q : Run.Esc.Queries) {
    EXPECT_EQ(Q.V, Verdict::Unresolved);
    EXPECT_EQ(Q.ExhaustedSite, "harness.budget");
  }
}

//===----------------------------------------------------------------------===//
// ThreadPool exception routing
//===----------------------------------------------------------------------===//

TEST(ThreadPoolGovernor, TaskExceptionsReachSinkAndRethrow) {
  support::InvariantSink Sink;
  support::ThreadPool Pool(4, &Sink);
  EXPECT_THROW(Pool.parallelFor(16,
                                [](size_t I, unsigned) {
                                  if (I == 5)
                                    throw std::runtime_error("task 5 died");
                                }),
               std::runtime_error);
  ASSERT_GE(Sink.count(), 1u);
  auto Records = Sink.snapshot();
  EXPECT_EQ(Records[0].Check, "task-exception");
  EXPECT_EQ(Records[0].Where, "ThreadPool::runBatch");
  EXPECT_NE(Records[0].Message.find("task 5 died"), std::string::npos);
  // The pool survives: the next batch runs normally.
  std::atomic<int> Ran{0};
  Pool.parallelFor(8, [&](size_t, unsigned) { ++Ran; });
  EXPECT_EQ(Ran.load(), 8);
}

TEST(ThreadPoolGovernor, DriverSurfacesWorkerExceptionsAsViolations) {
  // An alloc fault inside the parallel forward stage is contained by the
  // driver; the pool's sink routing additionally leaves a structured
  // record among the driver's violations... unless the driver's own
  // per-task catch fires first, which is also fine - the contract is "no
  // crash, sound verdicts", pinned above. Here we only require the run to
  // survive with the pool wired to the driver's sink.
  DisarmGuard G;
  std::string Err;
  ASSERT_TRUE(FaultRegistry::global().arm("forward.visit:invariant", Err))
      << Err;
  Program P = parse(TwoSiteSrc);
  escape::EscapeAnalysis A(P);
  Config Options;
  Options.Execution.NumThreads = 4;
  QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
  auto Outcomes = Driver.run({CheckId(0)});
  // The injected invariant breakage is recorded and the affected fixpoint
  // discarded; the query ends Unresolved (cancelled at the fault site).
  EXPECT_EQ(Outcomes[0].V, Verdict::Unresolved);
  EXPECT_GE(Driver.stats().Violations.size(), 1u);
  EXPECT_EQ(Driver.stats().Violations[0].Check, "injected-fault");
}

} // namespace
