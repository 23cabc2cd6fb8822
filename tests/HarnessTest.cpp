//===- HarnessTest.cpp - Integration tests for the experiment harness ---------===//

#include "reporting/Aggregates.h"
#include "reporting/Harness.h"

#include "gtest/gtest.h"

namespace {

using namespace optabs;
using reporting::BenchRun;
using tracer::Verdict;

/// One shared run of the smallest benchmark (the harness is deterministic
/// apart from wall-clock fields).
const BenchRun &tspRun() {
  static const BenchRun Run =
      reporting::runBenchmark(synth::paperSuite()[0]);
  return Run;
}

TEST(Harness, Table1FieldsPopulated) {
  const BenchRun &Run = tspRun();
  EXPECT_GT(Run.Procs, 0u);
  EXPECT_GT(Run.Commands, 0u);
  EXPECT_GT(Run.Vars, 0u);
  EXPECT_GT(Run.Sites, 0u);
  EXPECT_EQ(Run.TsQueries, Run.Ts.Queries.size());
  EXPECT_EQ(Run.EscQueries, Run.Esc.Queries.size());
}

TEST(Harness, TypestateFullyResolved) {
  // The paper: "All queries are resolved in the type-state analysis."
  const BenchRun &Run = tspRun();
  EXPECT_EQ(Run.Ts.count(Verdict::Unresolved), 0u);
  EXPECT_GT(Run.Ts.count(Verdict::Proven), 0u);
  EXPECT_GT(Run.Ts.count(Verdict::Impossible), 0u);
  // Impossible notably outnumbers proven under the stress property.
  EXPECT_GT(Run.Ts.count(Verdict::Impossible),
            Run.Ts.count(Verdict::Proven));
}

TEST(Harness, EscapeMostlyResolved) {
  const BenchRun &Run = tspRun();
  unsigned Resolved =
      Run.Esc.count(Verdict::Proven) + Run.Esc.count(Verdict::Impossible);
  EXPECT_GE(Resolved * 10, Run.Esc.Queries.size() * 9); // >= 90%
  EXPECT_GT(Run.Esc.count(Verdict::Proven), 0u);
  EXPECT_GT(Run.Esc.count(Verdict::Impossible), 0u);
}

TEST(Harness, ProvenQueriesCarryAbstractions) {
  const BenchRun &Run = tspRun();
  for (const auto &Q : Run.Esc.Queries) {
    if (Q.V != Verdict::Proven)
      continue;
    EXPECT_FALSE(Q.ParamKey.empty());
    EXPECT_GE(Q.Iterations, 1u);
  }
}

TEST(Aggregates, IterationAndSizeStats) {
  const BenchRun &Run = tspRun();
  MinMaxAvg ProvenIters =
      reporting::iterationStats(Run.Esc, Verdict::Proven);
  EXPECT_FALSE(ProvenIters.empty());
  EXPECT_GE(ProvenIters.min(), 1.0);
  EXPECT_LE(ProvenIters.min(), ProvenIters.avg());
  EXPECT_LE(ProvenIters.avg(), ProvenIters.max());

  MinMaxAvg Sizes = reporting::cheapestSizeStats(Run.Esc);
  EXPECT_FALSE(Sizes.empty());
  // Thread-escape cheapest abstractions are mostly 1-2 sites (Table 3).
  EXPECT_LE(Sizes.avg(), 4.0);
  EXPECT_GE(Sizes.min(), 0.0);
}

TEST(Aggregates, ReuseGroupsPartitionProvenQueries) {
  const BenchRun &Run = tspRun();
  reporting::ReuseStats Reuse = reporting::reuseStats(Run.Esc);
  unsigned Proven = Run.Esc.count(Verdict::Proven);
  EXPECT_GT(Reuse.NumGroups, 0u);
  EXPECT_LE(Reuse.NumGroups, Proven);
  // Group sizes sum back to the number of proven queries.
  EXPECT_DOUBLE_EQ(Reuse.GroupSize.avg() * Reuse.NumGroups,
                   static_cast<double>(Proven));
}

TEST(Aggregates, HistogramCoversAllProven) {
  const BenchRun &Run = tspRun();
  Histogram H = reporting::cheapestSizeHistogram(Run.Esc);
  EXPECT_EQ(H.total(), Run.Esc.count(Verdict::Proven));
}

TEST(Harness, IterationCountsAreModest) {
  // Table 2's shape: queries resolve within ten iterations on average for
  // the small benchmarks.
  const BenchRun &Run = tspRun();
  EXPECT_LE(reporting::iterationStats(Run.Esc, Verdict::Proven).avg(), 10.0);
  EXPECT_LE(reporting::iterationStats(Run.Ts, Verdict::Proven).avg(), 10.0);
  EXPECT_LE(reporting::iterationStats(Run.Ts, Verdict::Impossible).avg(),
            6.0);
}

// Every client-table entry runs on its own: the harness plans its driver
// runs from the entry alone, its queries resolve, it leaves the other
// client's results empty, and its verdicts are the ones the joint run got.
TEST(Harness, EachClientRunsAloneFromTheTable) {
  const BenchRun &Joint = tspRun();
  unsigned Clients = 0;
  service::forEachClient([&](auto T) {
    ++Clients;
    reporting::HarnessOptions Options;
    Options.Client = T.Name;
    BenchRun Run = reporting::runBenchmark(synth::paperSuite()[0], Options);
    ASSERT_NE(Run.Esc.Queries.empty(), Run.Ts.Queries.empty()) << T.Name;
    bool Esc = !Run.Esc.Queries.empty();
    const reporting::ClientResults &Out = Esc ? Run.Esc : Run.Ts;
    const reporting::ClientResults &Want = Esc ? Joint.Esc : Joint.Ts;
    EXPECT_GT(Out.count(Verdict::Proven) + Out.count(Verdict::Impossible),
              0u)
        << T.Name;
    ASSERT_EQ(Out.Queries.size(), Want.Queries.size()) << T.Name;
    for (size_t I = 0; I < Out.Queries.size(); ++I)
      EXPECT_EQ(Out.Queries[I].V, Want.Queries[I].V)
          << T.Name << " query " << I;
  });
  EXPECT_EQ(Clients, 2u);
}

// A client name the table does not list fails loudly instead of running
// nothing.
TEST(Harness, UnknownClientThrows) {
  reporting::HarnessOptions Options;
  Options.Client = "bogus";
  EXPECT_THROW(reporting::runBenchmark(synth::paperSuite()[0], Options),
               std::invalid_argument);
}

TEST(Harness, EscapeOnlyMode) {
  reporting::HarnessOptions Options;
  Options.Client = "escape";
  reporting::BenchRun Run =
      reporting::runBenchmark(synth::paperSuite()[1], Options);
  EXPECT_TRUE(Run.Ts.Queries.empty());
  EXPECT_FALSE(Run.Esc.Queries.empty());
}

} // namespace

//===----------------------------------------------------------------------===//
// CSV export
//===----------------------------------------------------------------------===//

#include "reporting/Csv.h"

#include <sstream>

namespace {

TEST(Csv, ExportsOneRowPerQuery) {
  const reporting::BenchRun &Run = tspRun();
  std::ostringstream OS;
  reporting::writeCsvHeader(OS);
  reporting::writeCsvRows(OS, Run);
  std::string Out = OS.str();
  size_t Lines = std::count(Out.begin(), Out.end(), '\n');
  EXPECT_EQ(Lines, 1 + Run.Ts.Queries.size() + Run.Esc.Queries.size());
  EXPECT_NE(Out.find("benchmark,client,query,verdict"), std::string::npos);
  EXPECT_NE(Out.find("tsp,typestate,0,"), std::string::npos);
  EXPECT_NE(Out.find("tsp,thread-escape,0,"), std::string::npos);
  // Proven rows carry a quoted abstraction; others leave it empty.
  EXPECT_NE(Out.find("\"[L:"), std::string::npos);
}

} // namespace
