//===- DriverBudgetTest.cpp - Budget and bookkeeping semantics of the driver --===//

#include "tracer/QueryDriver.h"

#include "escape/Escape.h"
#include "ir/Parser.h"

#include "gtest/gtest.h"

namespace {

using namespace optabs;
using namespace optabs::ir;
using tracer::QueryDriver;
using tracer::Verdict;

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

TEST(DriverBudget, ZeroTimeBudgetLeavesEverythingUnresolved) {
  Program P = parse(TwoSiteSrc);
  escape::EscapeAnalysis A(P);
  Config Options;
  Options.Budgets.TimeBudgetSeconds = 0;
  QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Unresolved);
  EXPECT_EQ(Outcomes[0].Iterations, 0u);
  EXPECT_EQ(Driver.stats().ForwardRuns, 0u);
}

TEST(DriverBudget, OneIterationBudgetStopsAfterFirstRun) {
  Program P = parse(TwoSiteSrc);
  escape::EscapeAnalysis A(P);
  Config Options;
  Options.Execution.MaxItersPerQuery = 1;
  QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Unresolved);
  EXPECT_EQ(Outcomes[0].Iterations, 1u);
  EXPECT_EQ(Driver.stats().ForwardRuns, 1u);
  EXPECT_EQ(Driver.stats().BackwardRuns, 0u); // budget hit before learning
}

TEST(DriverBudget, TracesPerIterationZeroBehavesLikeOne) {
  Program P = parse(TwoSiteSrc);
  escape::EscapeAnalysis A(P);
  Config Options;
  Options.Execution.TracesPerIteration = 0;
  QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Proven);
}

TEST(DriverBudget, SecondsAreAccountedPerQuery) {
  Program P = parse(TwoSiteSrc);
  escape::EscapeAnalysis A(P);
  QueryDriver<escape::EscapeAnalysis> Driver(P, A);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_GE(Outcomes[0].Seconds, 0.0);
  EXPECT_LE(Outcomes[0].Seconds, Driver.totalSeconds() + 1e-6);
}

TEST(DriverBudget, EmptyQueryListIsANoop) {
  Program P = parse(TwoSiteSrc);
  escape::EscapeAnalysis A(P);
  QueryDriver<escape::EscapeAnalysis> Driver(P, A);
  auto Outcomes = Driver.run({});
  EXPECT_TRUE(Outcomes.empty());
  EXPECT_EQ(Driver.stats().ForwardRuns, 0u);
}

TEST(DriverBudget, RepeatedRunsAreIndependent) {
  Program P = parse(TwoSiteSrc);
  escape::EscapeAnalysis A(P);
  QueryDriver<escape::EscapeAnalysis> Driver(P, A);
  auto First = Driver.run({CheckId(0)});
  auto Second = Driver.run({CheckId(0)});
  EXPECT_EQ(First[0].V, Second[0].V);
  EXPECT_EQ(First[0].Iterations, Second[0].Iterations);
  EXPECT_EQ(First[0].CheapestParam, Second[0].CheapestParam);
}

TEST(DriverBudget, GreedyRespectsIterationBudget) {
  Program P = parse(R"(
    proc main {
      choice { v = new h1; } or { v = new h2; } or { v = new h3; }
      check(v);
    }
  )");
  escape::EscapeAnalysis A(P);
  Config Options;
  Options.Execution.Strategy = "greedy-grow";
  Options.Execution.K = 1; // one blamed site per iteration
  Options.Execution.MaxItersPerQuery = 2;
  QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Unresolved);
  EXPECT_EQ(Outcomes[0].Iterations, 2u);
  // The cap is checked at classify, like every strategy: the last allowed
  // iteration still fails, so it records the iteration budget.
  ASSERT_TRUE(Outcomes[0].Exhaustion.has_value());
  EXPECT_STREQ(Outcomes[0].Exhaustion->Site, "driver.iterations");
}

TEST(DriverBudget, MaxFormulaCubesIsTracked) {
  Program P = parse(TwoSiteSrc);
  escape::EscapeAnalysis A(P);
  Config Options;
  Options.Execution.K = 0; // exact mode keeps several cubes
  QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
  Driver.run({CheckId(0)});
  EXPECT_GE(Driver.stats().MaxFormulaCubes, 2u);
}

} // namespace
