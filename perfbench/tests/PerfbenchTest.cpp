//===- PerfbenchTest.cpp - Tests of the benchmark's own code -------------===//
//
// The percentile and sample-count rule, the ledger sum identity, the /proc
// readers, parameter-key parsing for the verdict check, the independent
// verdict check itself, and that every seeded edit of edit-requery
// re-registers incrementally.
//
//===----------------------------------------------------------------------===//

#include "Client.h"
#include "Measure.h"
#include "Verify.h"
#include "Workloads.h"

#include "gtest/gtest.h"

#include <unistd.h>

using namespace perfbench;

namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> V;
  for (int I = 100; I >= 1; --I)
    V.push_back(I);
  EXPECT_EQ(percentile(V, 0.50), 50);
  EXPECT_EQ(percentile(V, 0.99), 99);
  EXPECT_EQ(percentile(V, 1.0), 100);
  EXPECT_EQ(percentile({7}, 0.99), 7);
  EXPECT_EQ(percentile({}, 0.5), 0);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Percentile, TenSamplesBeyondP99) {
  EXPECT_EQ(samplesBeyond(100, 0.99), 1u);
  EXPECT_EQ(samplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(samplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(samplesNeededFor(0.99), 1000u);
  EXPECT_EQ(samplesNeededFor(0.50), 20u);
  EXPECT_GE(samplesBeyond(samplesNeededFor(0.99), 0.99), MinTailSamples);
}

TEST(Ledger, LayersPlusUnattributedSumToRung) {
  std::vector<LayerTime> L = {{"shardd", 0.5}, {"serve", 0.25}, {"driver", 3}};
  LedgerSum S = ledgerSum(4.0, L);
  EXPECT_DOUBLE_EQ(S.AttributedSeconds, 3.75);
  EXPECT_DOUBLE_EQ(S.UnattributedSeconds, 0.25);
  EXPECT_DOUBLE_EQ(S.AttributedSeconds + S.UnattributedSeconds, 4.0);
  EXPECT_DOUBLE_EQ(S.AttributedShare, 0.9375);
  // Over-attribution shows up as a negative remainder, never hidden.
  EXPECT_DOUBLE_EQ(ledgerSum(3.0, L).UnattributedSeconds, -0.75);
  EXPECT_EQ(ledgerSum(0, {}).AttributedShare, 0);
}

TEST(ProcReaders, ParseStatusAndStat) {
  EXPECT_EQ(parseVmHwmKb("Name:\tx\nVmPeak:\t  9 kB\nVmHWM:\t  1234 kB\n"),
            1234u);
  EXPECT_FALSE(parseVmHwmKb("Name:\tx\n").has_value());
  // The command name may hold spaces and parentheses.
  std::string Stat = "42 (a b) c) S 7 42 42 0 -1 4194560 100 0 0 0 "
                     "250 31 0 0 20 0 1 0 5 0 0";
  EXPECT_EQ(parseCpuTicks(Stat), 281u);
  EXPECT_EQ(parseParentPid(Stat), 7);
  EXPECT_FALSE(parseCpuTicks("garbage").has_value());
}

TEST(ProcReaders, ReadOwnProcess) {
  auto Hwm = readVmHwmKb(::getpid());
  ASSERT_TRUE(Hwm.has_value());
  EXPECT_GT(*Hwm, 0u);
  EXPECT_TRUE(readCpuTicks(::getpid()).has_value());
  EXPECT_EQ(processTree(::getpid()).front(), ::getpid());
  EXPECT_FALSE(readVmHwmKb(-1).has_value());
}

TEST(ParamKey, BothClients) {
  EXPECT_EQ(parseParamKey("[L:h1,h2]", false),
            (std::vector<std::string>{"h1", "h2"}));
  EXPECT_EQ(parseParamKey("[L:]", false), std::vector<std::string>{});
  EXPECT_EQ(parseParamKey("{x,y}", true),
            (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(parseParamKey("{}", true), std::vector<std::string>{});
  EXPECT_FALSE(parseParamKey("{x,y}", false).has_value());
  EXPECT_FALSE(parseParamKey("[L:h1,,h2]", false).has_value());
  EXPECT_FALSE(parseParamKey("[L:h1", false).has_value());
  EXPECT_FALSE(parseParamKey("", true).has_value());
}

TEST(Verifier, CatchesWrongAnswers) {
  // Figure 6: check(u) needs both sites L.
  const std::string Fig6 = "proc main {\n  u = new h1;\n  v = new h2;\n"
                           "  v.f = u;\n  check(u);\n}\n";
  Verifier V(nullptr, 1u << 20);
  EXPECT_TRUE(V.check("f", Fig6, false, 0, 0, "proven", 2, "[L:h1,h2]"));
  EXPECT_FALSE(V.check("f", Fig6, false, 0, 0, "proven", 1, "[L:h1]"));
  EXPECT_FALSE(V.check("f", Fig6, false, 0, 0, "proven", 2, "[L:h1,h9]"));
  EXPECT_FALSE(V.check("f", Fig6, false, 0, 0, "impossible", 0, ""));
  const std::string Escaping = "global g;\nproc main {\n  u = new h1;\n"
                               "  g = u;\n  check(u);\n}\n";
  EXPECT_TRUE(V.check("e", Escaping, false, 0, 0, "impossible", 0, ""));
  EXPECT_FALSE(V.check("e", Escaping, false, 0, 0, "proven", 1, "[L:h1]"));
  // A non-minimal abstraction is caught by enumeration.
  const std::string Extra = "proc main {\n  u = new h1;\n  w = new h3;\n"
                            "  check(u);\n}\n";
  EXPECT_TRUE(V.check("x", Extra, false, 0, 0, "proven", 1, "[L:h1]"));
  EXPECT_FALSE(V.check("x", Extra, false, 0, 0, "proven", 2, "[L:h1,h3]"));
  EXPECT_EQ(V.counts().Wrong, 5u);
}

TEST(Verifier, ReferenceDecidesLargeFamilies) {
  const std::string Fig6 = "proc main {\n  u = new h1;\n  v = new h2;\n"
                           "  v.f = u;\n  check(u);\n}\n";
  ReferenceAnswers Ref;
  Ref.add(ReferenceAnswers::key("f", Fig6, false, 0, 0), {"proven", 3});
  Verifier V(&Ref, /*MaxWork=*/0); // no enumeration at all
  EXPECT_FALSE(V.check("f", Fig6, false, 0, 0, "proven", 2, "[L:h1,h2]"));
  EXPECT_EQ(V.counts().MinimalityByReference, 0u);
}

TEST(Workloads, DefaultSeedIsThePaperSuite) {
  auto W = Workload::make("suite-cold", DefaultSeed);
  ASSERT_TRUE(W.has_value());
  ASSERT_EQ(W->programs().size(), optabs::synth::paperSuite().size());
  size_t Jobs = 0;
  for (const auto &J : W->jobsByProgram())
    Jobs += J.size();
  EXPECT_EQ(Jobs, 1372u);
  EXPECT_FALSE(Workload::make("no-such-workload", 1).has_value());
}

TEST(Workloads, SameSeedSameUnits) {
  for (const std::string &Name : Workload::names()) {
    auto A = Workload::make(Name, 5), B = Workload::make(Name, 5);
    for (int I = 0; I < 5; ++I) {
      Unit X = A->nextUnit(), Y = B->nextUnit();
      ASSERT_EQ(X.size(), Y.size()) << Name;
      for (size_t S = 0; S < X.size(); ++S) {
        EXPECT_EQ(X[S].Text, Y[S].Text);
        EXPECT_EQ(X[S].Job.Check, Y[S].Job.Check);
      }
    }
  }
}

TEST(Workloads, EverySeededEditReregistersIncrementally) {
  for (uint64_t Seed : {DefaultSeed, HeldOutSeed, uint64_t(3)}) {
    auto W = Workload::make("edit-requery", Seed);
    ASSERT_TRUE(W.has_value());
    optabs::service::AnalysisService::Options O;
    O.AutoDispatch = false;
    ServiceExecutor Ex(O);
    ScriptRun Run(Ex, *W);
    std::string Err;
    ASSERT_TRUE(Run.setup(Err)) << Err;
    for (int I = 0; I < 24; ++I) {
      Unit U = W->nextUnit();
      ASSERT_EQ(U.front().K, Step::Kind::Register);
      RegisterReply R;
      ASSERT_TRUE(Ex.registerProgram(W->programs()[U.front().Program].Name,
                                     U.front().Text, R, Err))
          << Err;
      EXPECT_TRUE(R.Incremental) << "seed " << Seed << " edit " << I;
      EXPECT_LT(R.DirtyChecks, W->jobsByProgram()[U.front().Program].size())
          << "seed " << Seed << " edit " << I;
    }
  }
}

} // namespace
