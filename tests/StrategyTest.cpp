//===- StrategyTest.cpp - Tests for search strategies and multi-trace ---------===//

#include "tracer/QueryDriver.h"

#include "escape/Escape.h"
#include "ir/Parser.h"
#include "pointer/PointsTo.h"
#include "synth/Generator.h"
#include "typestate/Typestate.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <map>

namespace {

using namespace optabs;
using namespace optabs::ir;
using tracer::QueryDriver;
using tracer::SearchStrategy;
using tracer::Verdict;

Program parse(const char *Src) {
  Program P;
  std::string Error;
  bool Ok = parseProgram(Src, P, Error);
  EXPECT_TRUE(Ok) << Error;
  return P;
}

// Needs both sites local; a third site is irrelevant.
const char *ChainSrc = R"(
  proc main {
    u = new h1;
    v = new h2;
    w = new h3;
    v.f = u;
    check(u);
  }
)";

const char *EscapedSrc = R"(
  global g;
  proc main { u = new h1; g = u; check(u); }
)";

// A 3-way confuser: proving needs all three sites local; the failure has
// three independent causes, so multi-trace learning converges faster.
const char *ConfuserSrc = R"(
  proc main {
    choice { v = new h1; } or { v = new h2; } or { v = new h3; }
    check(v);
  }
)";

TEST(Strategy, EliminateCurrentIsEventuallyOptimal) {
  Program P = parse(ChainSrc);
  escape::EscapeAnalysis A(P);
  Config Options;
  Options.Execution.Strategy = "eliminate-current";
  // 2^3 family: feasible to exhaust.
  Options.Execution.MaxItersPerQuery = 200;
  QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Proven);
  EXPECT_EQ(Outcomes[0].CheapestCost, 2u); // still minimum-cost
  // But it had to enumerate: strictly more iterations than TRACER's 3.
  EXPECT_GT(Outcomes[0].Iterations, 3u);
}

TEST(Strategy, EliminateCurrentProvesImpossibilityByExhaustion) {
  Program P = parse(EscapedSrc);
  escape::EscapeAnalysis A(P);
  Config Options;
  Options.Execution.Strategy = "eliminate-current";
  Options.Execution.MaxItersPerQuery = 10; // 2^1 family
  QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Impossible);
  EXPECT_EQ(Outcomes[0].Iterations, 2u); // both abstractions tried
}

TEST(Strategy, EliminateCurrentExhaustsBudgetOnLargerFamilies) {
  Program P = parse(ConfuserSrc);
  escape::EscapeAnalysis A(P);
  Config Options;
  Options.Execution.Strategy = "eliminate-current";
  // Needs 1+3+3 = 7 runs up to cost 2.
  Options.Execution.MaxItersPerQuery = 5;
  QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Unresolved);
}

TEST(Strategy, GreedyGrowProvesButNotMinimally) {
  Program P = parse(ChainSrc);
  escape::EscapeAnalysis A(P);
  Config Options;
  Options.Execution.Strategy = "greedy-grow";
  QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Proven);
  // Whatever it found must actually be >= the optimum (2 L-sites).
  EXPECT_GE(Outcomes[0].CheapestCost, 2u);
}

TEST(Strategy, GreedyGrowCannotConcludeImpossibility) {
  Program P = parse(EscapedSrc);
  escape::EscapeAnalysis A(P);
  Config Options;
  Options.Execution.Strategy = "greedy-grow";
  QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Unresolved);
  // It stalled: no new blame after at most a couple of iterations.
  EXPECT_LE(Outcomes[0].Iterations, 3u);
}

TEST(Strategy, NamesAreStable) {
  EXPECT_STREQ(tracer::strategyName(SearchStrategy::Tracer), "tracer");
  EXPECT_STREQ(tracer::strategyName(SearchStrategy::EliminateCurrent),
               "eliminate-current");
  EXPECT_STREQ(tracer::strategyName(SearchStrategy::GreedyGrow),
               "greedy-grow");
}

struct MultiTraceCase {
  unsigned TracesPerIteration;
};

class MultiTraceTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(MultiTraceTest, ConfuserStaysCorrectAndConverges) {
  Program P = parse(ConfuserSrc);
  escape::EscapeAnalysis A(P);
  Config Options;
  Options.Execution.K = 1;
  Options.Execution.TracesPerIteration = GetParam();
  QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Proven);
  EXPECT_EQ(Outcomes[0].CheapestCost, 3u);
  // With one trace per iteration, each iteration blames one site: 4
  // iterations. With three or more, one iteration suffices to learn all
  // three causes, so the second run already proves.
  if (GetParam() == 1) {
    EXPECT_EQ(Outcomes[0].Iterations, 4u);
  }
  if (GetParam() >= 3) {
    EXPECT_EQ(Outcomes[0].Iterations, 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(TraceCounts, MultiTraceTest,
                         ::testing::Values(1u, 2u, 3u, 8u));

TEST(MultiTrace, ImpossibleQueriesStillDetected) {
  Program P = parse(EscapedSrc);
  escape::EscapeAnalysis A(P);
  Config Options;
  Options.Execution.TracesPerIteration = 4;
  QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Impossible);
}

//===----------------------------------------------------------------------===//
// GreedyGrow differential test against a reference oracle
//===----------------------------------------------------------------------===//
//
// The oracle is the sequential loop GreedyGrow ran before it became a
// plan/merge policy of the driver's staged round loop, minus its cache,
// budgets and event trace: per query, a forward run under the grown bits,
// the smallest failing state, one counterexample trace, the backward
// meta-analysis, and growth by every blamed parameter. The driver must
// reproduce its verdict, iteration count, cost, abstraction and bits.

namespace oracle {

template <typename Analysis>
tracer::QueryOutcome greedyGrow(const Program &P, const Analysis &A,
                                const CommandLiveness &Live, CheckId Check) {
  using State = typename Analysis::State;
  const Config Defaults;
  meta::BackwardConfig BwdConfig;
  BwdConfig.K = Defaults.Execution.K;
  BwdConfig.ProductSoftCap = Defaults.Execution.ProductSoftCap;
  meta::BackwardMetaAnalysis<Analysis> Bwd(P, A, BwdConfig);
  State Init = A.initialState();
  formula::Dnf NotQ = A.notQ(Check);

  tracer::QueryOutcome Out;
  Out.Check = Check;
  std::vector<bool> Bits(A.numParamBits(), false);
  while (Out.Iterations < Defaults.Execution.MaxItersPerQuery) {
    ++Out.Iterations;
    typename Analysis::Param Prm = A.paramFromBits(Bits);
    dataflow::ForwardAnalysis<Analysis> Run(P, A, Prm, &Live);
    Run.run(Init);
    std::vector<State> Fails;
    for (dataflow::StateId Id : Run.statesAtCheckIds(Check))
      if (NotQ.eval([&](formula::AtomId Atom) {
            return A.evalAtom(Atom, Prm, Run.state(Id));
          }))
        Fails.push_back(Run.state(Id));
    if (Fails.empty()) {
      Out.V = Verdict::Proven;
      Out.CheapestCost = A.paramCost(Prm);
      Out.CheapestParam = A.paramToString(Prm);
      Out.CheapestBits = Bits;
      break;
    }
    State Bad = *std::min_element(Fails.begin(), Fails.end());
    std::optional<ir::Trace> T = Run.extractTrace(Check, Bad);
    if (!T)
      break;
    std::optional<formula::Dnf> F =
        Bwd.run(*T, Prm, Run.replay(*T, Init), NotQ);
    if (!F)
      break;
    formula::Dnf Unviable = Bwd.projectToParams(*F, Prm, Init);
    std::vector<bool> Grown = Bits;
    for (const formula::Cube &Cube : Unviable.cubes())
      for (formula::Lit L : Cube.literals())
        Grown[A.decodeParamAtom(L.atom()).first] = true;
    if (Grown == Bits)
      break; // no new blame
    Bits = std::move(Grown);
  }
  return Out;
}

} // namespace oracle

template <typename Analysis>
void expectDriverMatchesGreedyOracle(const Program &P, const Analysis &A,
                                     const std::vector<CheckId> &Checks,
                                     const std::string &Where) {
  CommandLiveness Live(P);
  std::vector<tracer::QueryOutcome> Want;
  for (CheckId C : Checks)
    Want.push_back(oracle::greedyGrow(P, A, Live, C));
  for (unsigned Threads : {1u, 8u}) {
    Config Options;
    Options.Execution.Strategy = "greedy-grow";
    Options.Execution.NumThreads = Threads;
    QueryDriver<Analysis> Driver(P, A, Options);
    std::vector<tracer::QueryOutcome> Got = Driver.run(Checks);
    ASSERT_EQ(Got.size(), Want.size());
    for (size_t I = 0; I < Want.size(); ++I) {
      SCOPED_TRACE(Where + " query " + std::to_string(Checks[I].index()) +
                   " threads " + std::to_string(Threads));
      EXPECT_EQ(Got[I].V, Want[I].V);
      EXPECT_EQ(Got[I].Iterations, Want[I].Iterations);
      EXPECT_EQ(Got[I].CheapestCost, Want[I].CheapestCost);
      EXPECT_EQ(Got[I].CheapestParam, Want[I].CheapestParam);
      EXPECT_EQ(Got[I].CheapestBits, Want[I].CheapestBits);
    }
    EXPECT_EQ(Driver.stats().SolverCalls, 0u);
    EXPECT_TRUE(Driver.stats().Violations.empty());
  }
}

TEST(GreedyOracle, EscapeChecksOfFourSuiteBenchmarksMatch) {
  for (size_t I = 0; I < 4; ++I) {
    synth::Benchmark B = synth::generate(synth::paperSuite()[I]);
    escape::EscapeAnalysis A(B.P);
    expectDriverMatchesGreedyOracle(B.P, A, B.EscChecks, B.Config.Name);
  }
}

TEST(GreedyOracle, TypestateSitesOfFirstSuiteBenchmarkMatch) {
  synth::Benchmark B = synth::generate(synth::paperSuite()[0]);
  pointer::PointsToResult Pt = pointer::runPointsTo(B.P);
  typestate::TypestateSpec Spec = typestate::TypestateSpec::stress();
  // The harness's queries: each type-state check against every site its
  // receiver may point to, one analysis instance per site.
  std::map<uint32_t, std::vector<CheckId>> BySite;
  for (CheckId C : B.TsChecks)
    Pt.pointsTo(B.P.checkSite(C).Var).forEach([&](size_t H) {
      BySite[static_cast<uint32_t>(H)].push_back(C);
    });
  ASSERT_FALSE(BySite.empty());
  for (const auto &[Site, Checks] : BySite) {
    typestate::TypestateAnalysis A(B.P, Spec, AllocId(Site), Pt);
    expectDriverMatchesGreedyOracle(
        B.P, A, Checks, B.Config.Name + " site " + std::to_string(Site));
  }
}

} // namespace
