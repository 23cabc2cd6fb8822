//===- IntegrationTest.cpp - Cross-module integration on synthetic suites -----===//
//
// Parameterized over the small benchmark suite: for each benchmark,
// validates that the full pipeline holds together - every state the
// forward analysis reports at a check is witnessed by an extractable,
// replayable trace (Lemma 1); driver results are deterministic across
// runs; and both clients' verdict mixes stay in the regimes the paper's
// Figure 12 reports.
//
//===----------------------------------------------------------------------===//

#include "dataflow/Forward.h"
#include "escape/Escape.h"
#include "pointer/PointsTo.h"
#include "reporting/Harness.h"
#include "synth/Generator.h"
#include "tracer/QueryDriver.h"
#include "typestate/Typestate.h"

#include "gtest/gtest.h"

namespace {

using namespace optabs;
using namespace optabs::ir;
using tracer::Verdict;

class SuiteTest : public ::testing::TestWithParam<size_t> {
protected:
  const synth::BenchConfig &config() const {
    return synth::paperSuite()[GetParam()];
  }
};

TEST_P(SuiteTest, EveryEscapeCheckStateHasValidTrace) {
  synth::Benchmark B = synth::generate(config());
  escape::EscapeAnalysis A(B.P);
  escape::EscParam Prm = A.paramFromBits({}); // cheapest abstraction
  dataflow::ForwardAnalysis<escape::EscapeAnalysis> FA(B.P, A, Prm);
  FA.run(A.initialState());
  size_t Validated = 0;
  for (CheckId Check : B.EscChecks) {
    for (const auto &Target : FA.statesAtCheck(Check)) {
      auto T = FA.extractTrace(Check, Target);
      ASSERT_TRUE(T.has_value()) << config().Name;
      auto States = FA.replay(*T, A.initialState());
      ASSERT_EQ(States.back(), Target) << config().Name;
      ++Validated;
    }
  }
  EXPECT_GT(Validated, 0u);
}

TEST_P(SuiteTest, EveryTypestateCheckStateHasValidTrace) {
  synth::Benchmark B = synth::generate(config());
  auto Pt = pointer::runPointsTo(B.P);
  typestate::TypestateSpec Spec = typestate::TypestateSpec::stress();
  // Validate for the first queried site only (the engine is shared; one
  // site per benchmark keeps the test fast).
  ASSERT_FALSE(B.TsChecks.empty());
  VarId V = B.P.checkSite(B.TsChecks[0]).Var;
  std::optional<AllocId> Site;
  Pt.pointsTo(V).forEach([&](size_t H) {
    if (!Site)
      Site = AllocId(static_cast<uint32_t>(H));
  });
  ASSERT_TRUE(Site.has_value());
  typestate::TypestateAnalysis A(B.P, Spec, *Site, Pt);
  typestate::TsParam Prm = A.paramFromBits({});
  dataflow::ForwardAnalysis<typestate::TypestateAnalysis> FA(B.P, A, Prm);
  FA.run(A.initialState());
  for (CheckId Check : B.TsChecks) {
    for (const auto &Target : FA.statesAtCheck(Check)) {
      auto T = FA.extractTrace(Check, Target);
      ASSERT_TRUE(T.has_value()) << config().Name;
      auto States = FA.replay(*T, A.initialState());
      ASSERT_EQ(States.back(), Target) << config().Name;
    }
  }
}

TEST_P(SuiteTest, DriverVerdictsAreDeterministic) {
  synth::Benchmark B = synth::generate(config());
  escape::EscapeAnalysis A(B.P);
  Config Options;
  Options.Execution.MaxItersPerQuery = 24;
  auto RunOnce = [&] {
    tracer::QueryDriver<escape::EscapeAnalysis> Driver(B.P, A, Options);
    std::vector<std::pair<Verdict, std::string>> Summary;
    for (const auto &O : Driver.run(B.EscChecks))
      Summary.push_back({O.V, O.CheapestParam});
    return Summary;
  };
  EXPECT_EQ(RunOnce(), RunOnce());
}

TEST_P(SuiteTest, VerdictMixMatchesFigure12Regime) {
  reporting::BenchRun Run = reporting::runBenchmark(config());
  // Type-state: fully resolved; impossible at least comparable to proven
  // (the stress property penalizes every must-alias imprecision). The
  // smallest benchmarks sit near parity, the larger ones are
  // impossible-dominated as in the paper's Figure 12.
  EXPECT_EQ(Run.Ts.count(Verdict::Unresolved), 0u) << config().Name;
  EXPECT_GE(Run.Ts.count(Verdict::Impossible) * 2,
            Run.Ts.count(Verdict::Proven))
      << config().Name;
  // Thread-escape: >= 85% resolution (the paper's average), both verdicts
  // populated.
  unsigned Resolved =
      Run.Esc.count(Verdict::Proven) + Run.Esc.count(Verdict::Impossible);
  EXPECT_GE(Resolved * 100, Run.Esc.Queries.size() * 85) << config().Name;
  EXPECT_GT(Run.Esc.count(Verdict::Proven), 0u);
  EXPECT_GT(Run.Esc.count(Verdict::Impossible), 0u);
}

INSTANTIATE_TEST_SUITE_P(SmallSuite, SuiteTest,
                         ::testing::Values(0u, 1u, 2u, 3u),
                         [](const ::testing::TestParamInfo<size_t> &Info) {
                           return synth::paperSuite()[Info.param].Name;
                         });

TEST(Integration, ProvenAbstractionsActuallyProve) {
  // Re-run the forward analysis with each reported cheapest abstraction
  // and confirm the query really is proven by it (end-to-end validation of
  // the whole loop on a real benchmark).
  synth::Benchmark B = synth::generate(synth::paperSuite()[0]);
  escape::EscapeAnalysis A(B.P);
  Config Options;
  Options.Execution.MaxItersPerQuery = 24;
  tracer::QueryDriver<escape::EscapeAnalysis> Driver(B.P, A, Options);
  auto Outcomes = Driver.run(B.EscChecks);
  for (const auto &O : Outcomes) {
    if (O.V != Verdict::Proven)
      continue;
    // Reconstruct the abstraction from its canonical string.
    std::vector<bool> Bits(B.P.numAllocs(), false);
    std::string Key = O.CheapestParam; // "[L:a,b,...]"
    std::string Names = Key.substr(3, Key.size() - 4);
    std::stringstream SS(Names);
    std::string Name;
    while (std::getline(SS, Name, ',')) {
      if (Name.empty())
        continue;
      AllocId H = B.P.findAlloc(Name);
      ASSERT_TRUE(H.isValid()) << Name;
      Bits[H.index()] = true;
    }
    escape::EscParam Prm = A.paramFromBits(Bits);
    ASSERT_EQ(A.paramCost(Prm), O.CheapestCost);
    dataflow::ForwardAnalysis<escape::EscapeAnalysis> FA(B.P, A, Prm);
    FA.run(A.initialState());
    formula::Dnf NotQ = A.notQ(O.Check);
    for (const auto &D : FA.statesAtCheck(O.Check))
      EXPECT_FALSE(NotQ.eval([&](formula::AtomId At) {
        return A.evalAtom(At, Prm, D);
      })) << "reported abstraction does not prove its query";
  }
}

} // namespace
