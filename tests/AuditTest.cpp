//===- AuditTest.cpp - Checked invariants, certificates, event trace ----------===//
//
// The audit subsystem's contract, exercised on hand-broken inputs and on
// healthy end-to-end runs:
//
//  * Dnf::dropK retains K cubes (not K-1) when a satisfied cube sits in
//    the kept prefix, and reports (instead of asserting) when Theorem 3's
//    progress precondition is violated;
//  * BackwardMetaAnalysis::run rejects malformed inputs (wrong state
//    sequence length, not(q) not holding) with a structured report and a
//    nullopt result - never a silent unsound formula;
//  * Cnf::addClause deduplicates exactly through its hash index;
//  * the certificate checker validates healthy verdicts and flags tampered
//    ones;
//  * the JSONL event trace parses and carries the documented events;
//  * a full audited run of the integration benchmark is clean at 1 and 8
//    threads, for both clients.
//
//===----------------------------------------------------------------------===//

#include "dataflow/Forward.h"
#include "escape/Escape.h"
#include "formula/Dnf.h"
#include "ir/Parser.h"
#include "meta/Backward.h"
#include "reporting/Harness.h"
#include "support/Invariants.h"
#include "synth/Generator.h"
#include "tracer/Certificates.h"
#include "tracer/MinCostSat.h"
#include "tracer/QueryDriver.h"

#include "JsonChecker.h"
#include "gtest/gtest.h"

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace optabs;
using formula::AtomId;
using formula::Cube;
using formula::Dnf;
using formula::Lit;

//===----------------------------------------------------------------------===//
// InvariantSink
//===----------------------------------------------------------------------===//

TEST(InvariantSink, RecordsAndSnapshots) {
  support::InvariantSink Sink;
  EXPECT_EQ(Sink.count(), 0u);
  support::reportInvariant(&Sink, "some-check", "SomeFunc", "details");
  ASSERT_EQ(Sink.count(), 1u);
  auto Snapshot = Sink.snapshot();
  EXPECT_EQ(Snapshot[0].Check, "some-check");
  EXPECT_EQ(Snapshot[0].Where, "SomeFunc");
  EXPECT_EQ(Snapshot[0].Message, "details");
  Sink.clear();
  EXPECT_EQ(Sink.count(), 0u);
}

//===----------------------------------------------------------------------===//
// Dnf::dropK retention (Theorem 3 progress)
//===----------------------------------------------------------------------===//

Dnf threeCubes() {
  // Sizes 1, 2, 3 - already sorted by size as dropK assumes.
  return Dnf::fromCubes({*Cube::make({Lit::pos(0)}),
                         *Cube::make({Lit::pos(1), Lit::pos(2)}),
                         *Cube::make({Lit::pos(3), Lit::pos(4), Lit::pos(5)})});
}

TEST(DropK, KeepsFullKWhenPrefixHasSatisfiedCube) {
  Dnf F = threeCubes();
  support::InvariantSink Sink;
  // Atom 0 true: the first cube is satisfied and sits inside the K-prefix.
  auto Eval = [](AtomId A) { return A == 0; };
  F.dropK(2, Eval, &Sink);
  // The historical bug returned only K-1 cubes here.
  EXPECT_EQ(F.size(), 2u);
  EXPECT_TRUE(F.eval(Eval));
  EXPECT_EQ(Sink.count(), 0u);
}

TEST(DropK, SwapsInSatisfiedCubeBeyondThePrefix) {
  Dnf F = threeCubes();
  support::InvariantSink Sink;
  // Only the last (largest) cube is satisfied: it must displace the K-th.
  auto Eval = [](AtomId A) { return A >= 3; };
  F.dropK(2, Eval, &Sink);
  EXPECT_EQ(F.size(), 2u);
  EXPECT_TRUE(F.eval(Eval));
  EXPECT_EQ(Sink.count(), 0u);
}

TEST(DropK, ReportsWhenNoCubeIsSatisfied) {
  Dnf F = threeCubes();
  support::InvariantSink Sink;
  // Nothing satisfied: the progress precondition of Theorem 3 is violated.
  // dropK must keep K cubes (sound under-approximation) and report.
  auto Eval = [](AtomId) { return false; };
  F.dropK(2, Eval, &Sink);
  EXPECT_EQ(F.size(), 2u);
  ASSERT_EQ(Sink.count(), 1u);
  EXPECT_EQ(Sink.snapshot()[0].Check, "dropk-progress");
}

TEST(DropK, ReportsBadBeamWidthAndLeavesFormulaIntact) {
  Dnf F = threeCubes();
  support::InvariantSink Sink;
  F.dropK(0, [](AtomId) { return true; }, &Sink);
  EXPECT_EQ(F.size(), 3u);
  ASSERT_EQ(Sink.count(), 1u);
  EXPECT_EQ(Sink.snapshot()[0].Check, "dropk-beam-width");
}

//===----------------------------------------------------------------------===//
// BackwardMetaAnalysis precondition checks on hand-broken inputs
//===----------------------------------------------------------------------===//

ir::Program parse(const std::string &Src) {
  ir::Program P;
  std::string Error;
  bool Ok = ir::parseProgram(Src, P, Error);
  EXPECT_TRUE(Ok) << Error;
  return P;
}

/// A program whose single check fails under the cheapest abstraction: the
/// object escapes through the global, so "a thread-local" is refuted.
const char *EscapingProgram = R"(
global g;
proc main {
  a = new h1;
  g = a;
  check(a);
}
)";

struct BrokenBackwardFixture {
  ir::Program P;
  escape::EscapeAnalysis A;
  dataflow::ForwardAnalysis<escape::EscapeAnalysis> Fwd;
  ir::Trace T;
  std::vector<escape::EscapeAnalysis::State> States;
  formula::Dnf NotQ;

  BrokenBackwardFixture()
      : P(parse(EscapingProgram)), A(P), Fwd(P, A, A.paramFromBits({})) {
    Fwd.run(A.initialState());
    ir::CheckId Check(0);
    NotQ = A.notQ(Check);
    auto P0 = A.paramFromBits({});
    for (const auto &D : Fwd.statesAtCheck(Check)) {
      bool Fails = NotQ.eval(
          [&](AtomId At) { return A.evalAtom(At, P0, D); });
      if (!Fails)
        continue;
      auto Trace = Fwd.extractTrace(Check, D);
      EXPECT_TRUE(Trace.has_value());
      T = *Trace;
      States = Fwd.replay(T, A.initialState());
      break;
    }
    EXPECT_FALSE(States.empty()) << "expected a failing state to exist";
  }
};

TEST(BackwardAudit, RejectsWrongStateSequenceLength) {
  BrokenBackwardFixture F;
  support::InvariantSink Sink;
  meta::BackwardConfig Config;
  Config.Invariants = &Sink;
  meta::BackwardMetaAnalysis<escape::EscapeAnalysis> Bwd(F.P, F.A, Config);
  std::vector<escape::EscapeAnalysis::State> Short = F.States;
  Short.pop_back(); // |States| must be |T| + 1
  auto Result = Bwd.run(F.T, F.A.paramFromBits({}), Short, F.NotQ);
  EXPECT_FALSE(Result.has_value());
  ASSERT_EQ(Sink.count(), 1u);
  EXPECT_EQ(Sink.snapshot()[0].Check, "backward-state-length");
}

TEST(BackwardAudit, RejectsTraceWhereNotQDoesNotHold) {
  BrokenBackwardFixture F;
  support::InvariantSink Sink;
  meta::BackwardConfig Config;
  Config.Invariants = &Sink;
  meta::BackwardMetaAnalysis<escape::EscapeAnalysis> Bwd(F.P, F.A, Config);
  // `false` never holds at the end of any trace: the "this really is a
  // counterexample" precondition is violated.
  auto Result = Bwd.run(F.T, F.A.paramFromBits({}), F.States,
                        formula::Dnf::constFalse());
  EXPECT_FALSE(Result.has_value());
  ASSERT_EQ(Sink.count(), 1u);
  EXPECT_EQ(Sink.snapshot()[0].Check, "backward-notq-precondition");
}

TEST(BackwardAudit, HealthyRunReportsNothing) {
  BrokenBackwardFixture F;
  support::InvariantSink Sink;
  meta::BackwardConfig Config;
  Config.Invariants = &Sink;
  meta::BackwardMetaAnalysis<escape::EscapeAnalysis> Bwd(F.P, F.A, Config);
  auto Result = Bwd.run(F.T, F.A.paramFromBits({}), F.States, F.NotQ);
  EXPECT_TRUE(Result.has_value());
  EXPECT_EQ(Sink.count(), 0u);
}

//===----------------------------------------------------------------------===//
// Cnf::addClause hash-indexed deduplication
//===----------------------------------------------------------------------===//

TEST(CnfDedup, DropsDuplicatesKeepsDistinct) {
  tracer::Cnf F;
  F.addClause({{0, true}});
  F.addClause({{0, true}}); // exact duplicate
  F.addClause({{0, true}, {1, false}});
  F.addClause({{1, false}, {0, true}}); // same clause, different order
  F.addClause({{0, true}, {0, false}}); // tautology: dropped entirely
  EXPECT_EQ(F.size(), 2u);
}

TEST(CnfDedup, ScalesToManyDistinctClauses) {
  tracer::Cnf F;
  for (uint32_t V = 0; V < 500; ++V)
    F.addClause({{V, true}, {V + 1, false}});
  EXPECT_EQ(F.size(), 500u);
  // Re-adding the whole set changes nothing.
  for (uint32_t V = 0; V < 500; ++V)
    F.addClause({{V, true}, {V + 1, false}});
  EXPECT_EQ(F.size(), 500u);
}

TEST(CnfDedup, SignatureIsOrderIndependent) {
  tracer::Cnf A, B;
  A.addClause({{0, true}});
  A.addClause({{1, false}, {2, true}});
  B.addClause({{1, false}, {2, true}});
  B.addClause({{0, true}});
  EXPECT_EQ(A.signature(), B.signature());
  tracer::Cnf C;
  C.addClause({{0, true}});
  EXPECT_NE(A.signature(), C.signature());
}

//===----------------------------------------------------------------------===//
// Certificate checking
//===----------------------------------------------------------------------===//

struct DriverRun {
  synth::Benchmark B;
  escape::EscapeAnalysis A;
  tracer::QueryDriver<escape::EscapeAnalysis> Driver;
  std::vector<tracer::QueryOutcome> Outcomes;

  explicit DriverRun(Config Options = defaultOptions())
      : B(synth::generate(synth::paperSuite()[0])), A(B.P),
        Driver(B.P, A, Options) {
    Outcomes = Driver.run(B.EscChecks);
  }

  static Config defaultOptions() {
    Config Options;
    Options.Execution.MaxItersPerQuery = 32;
    return Options;
  }
};

TEST(Certificates, CleanRunValidates) {
  DriverRun R;
  EXPECT_TRUE(R.Driver.stats().Violations.empty());
  tracer::CertificateChecker<escape::EscapeAnalysis> Checker(R.B.P, R.A);
  tracer::CertificateReport Report =
      Checker.check(R.Outcomes, R.Driver.finalViableSets());
  EXPECT_TRUE(Report.ok()) << (Report.Issues.empty()
                                   ? ""
                                   : Report.Issues[0].Kind + ": " +
                                         Report.Issues[0].Detail);
  EXPECT_GT(Report.ProvenChecked, 0u);
  EXPECT_GT(Report.MinimalityChecked, 0u);
}

TEST(Certificates, DetectsTamperedCost) {
  DriverRun R;
  tracer::CertificateChecker<escape::EscapeAnalysis> Checker(R.B.P, R.A);
  std::vector<tracer::QueryOutcome> Tampered = R.Outcomes;
  bool DidTamper = false;
  for (auto &O : Tampered) {
    if (O.V == tracer::Verdict::Proven) {
      ++O.CheapestCost; // claim a cost the witness does not have
      DidTamper = true;
      break;
    }
  }
  ASSERT_TRUE(DidTamper) << "suite must prove at least one query";
  tracer::CertificateReport Report =
      Checker.check(Tampered, R.Driver.finalViableSets());
  EXPECT_FALSE(Report.ok());
  bool SawCostMismatch = false;
  for (const auto &Issue : Report.Issues)
    SawCostMismatch |= Issue.Kind == "cost-mismatch";
  EXPECT_TRUE(SawCostMismatch);
}

TEST(Certificates, DetectsMissingWitness) {
  DriverRun R;
  tracer::CertificateChecker<escape::EscapeAnalysis> Checker(R.B.P, R.A);
  std::vector<tracer::QueryOutcome> Tampered = R.Outcomes;
  bool DidTamper = false;
  for (auto &O : Tampered) {
    if (O.V == tracer::Verdict::Proven) {
      O.CheapestBits.clear();
      DidTamper = true;
      break;
    }
  }
  ASSERT_TRUE(DidTamper);
  tracer::CertificateReport Report =
      Checker.check(Tampered, R.Driver.finalViableSets());
  EXPECT_FALSE(Report.ok());
  EXPECT_EQ(Report.Issues[0].Kind, "missing-witness");
}

TEST(Certificates, DetectsForgedImpossibility) {
  DriverRun R;
  tracer::CertificateChecker<escape::EscapeAnalysis> Checker(R.B.P, R.A);
  std::vector<tracer::QueryOutcome> Tampered = R.Outcomes;
  bool DidTamper = false;
  for (auto &O : Tampered) {
    if (O.V == tracer::Verdict::Proven) {
      // The query was proven, so its viable set has a model; claiming
      // impossibility must be refuted by the solver replay.
      O.V = tracer::Verdict::Impossible;
      DidTamper = true;
      break;
    }
  }
  ASSERT_TRUE(DidTamper);
  tracer::CertificateReport Report =
      Checker.check(Tampered, R.Driver.finalViableSets());
  EXPECT_FALSE(Report.ok());
  bool SawRefuted = false;
  for (const auto &Issue : Report.Issues)
    SawRefuted |= Issue.Kind == "impossible-refuted";
  EXPECT_TRUE(SawRefuted);
}

//===----------------------------------------------------------------------===//
// JSONL event trace
//===----------------------------------------------------------------------===//

using json_checker::JsonChecker;

/// Extracts the value of a top-level "key":"value" string field.
std::string stringField(const std::string &Line, const std::string &Key) {
  std::string Needle = "\"" + Key + "\":\"";
  size_t At = Line.find(Needle);
  if (At == std::string::npos)
    return "";
  size_t Start = At + Needle.size();
  size_t End = Line.find('"', Start);
  return Line.substr(Start, End - Start);
}

TEST(EventTrace, JsonlParsesAndCarriesTheDocumentedEvents) {
  std::string Path = testing::TempDir() + "optabs_audit_event_trace.jsonl";
  { std::ofstream Truncate(Path, std::ios::trunc); }

  Config Options = DriverRun::defaultOptions();
  Options.Observability.EventTracePath = Path;
  Options.Observability.EventTraceLabel = "audit-test";
  DriverRun R(Options);

  std::ifstream In(Path);
  ASSERT_TRUE(In.is_open());
  std::set<std::string> Kinds;
  std::string Line;
  size_t Lines = 0;
  while (std::getline(In, Line)) {
    ++Lines;
    EXPECT_TRUE(JsonChecker(Line).valid()) << "bad JSON line: " << Line;
    EXPECT_EQ(stringField(Line, "label"), "audit-test");
    Kinds.insert(stringField(Line, "event"));
  }
  EXPECT_GT(Lines, 4u);
  for (const char *Kind : {"run_begin", "round_begin", "choose", "forward",
                           "step", "verdict", "round_end", "run_end"})
    EXPECT_TRUE(Kinds.count(Kind)) << "missing event kind " << Kind;
}

//===----------------------------------------------------------------------===//
// End-to-end audited integration run
//===----------------------------------------------------------------------===//

TEST(AuditMode, FullSmallSuiteIsCleanAtOneAndEightThreads) {
  for (unsigned Threads : {1u, 8u}) {
    reporting::HarnessOptions Options;
    Options.Cfg.Audit.Enabled = true;
    Options.Cfg.Execution.NumThreads = Threads;
    reporting::BenchRun Run =
        reporting::runBenchmark(synth::paperSuite()[0], Options);
    for (const reporting::ClientResults *R : {&Run.Esc, &Run.Ts}) {
      EXPECT_EQ(R->InvariantViolations, 0u) << "threads=" << Threads;
      EXPECT_EQ(R->CertificateFailures, 0u)
          << "threads=" << Threads
          << (R->AuditNotes.empty() ? "" : ": " + R->AuditNotes[0]);
      EXPECT_GT(R->CertificatesChecked, 0u) << "threads=" << Threads;
      EXPECT_TRUE(R->AuditNotes.empty());
    }
  }
}

// GreedyGrow promises no minimality, so the harness audits it with the
// minimality check off; every other certificate must still hold.
TEST(AuditMode, GreedyGrowRunIsCleanWithMinimalityOff) {
  reporting::HarnessOptions Options;
  Options.Cfg.Audit.Enabled = true;
  Options.Cfg.Execution.Strategy = "greedy-grow";
  reporting::BenchRun Run =
      reporting::runBenchmark(synth::paperSuite()[0], Options);
  for (const reporting::ClientResults *R : {&Run.Esc, &Run.Ts}) {
    EXPECT_EQ(R->InvariantViolations, 0u);
    EXPECT_EQ(R->CertificateFailures, 0u)
        << (R->AuditNotes.empty() ? "" : R->AuditNotes[0]);
    EXPECT_GT(R->CertificatesChecked, 0u);
    EXPECT_EQ(R->count(tracer::Verdict::Impossible), 0u);
  }
}

} // namespace
