//===- RobustnessTest.cpp - Fuzz-lite and misuse robustness -------------------===//
//
// The parser must reject (never crash on) arbitrary input; the analyses
// must behave sensibly at API boundaries; documented imprecisions of the
// substrates hold as documented.
//
//===----------------------------------------------------------------------===//

#include "dataflow/Forward.h"
#include "escape/Escape.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "pointer/PointsTo.h"
#include "reporting/Harness.h"
#include "support/FaultInjection.h"
#include "support/Prng.h"
#include "synth/Generator.h"
#include "tracer/MinCostSat.h"
#include "typestate/Typestate.h"

#include "gtest/gtest.h"

#include <sstream>

namespace {

using namespace optabs;
using namespace optabs::ir;

TEST(ParserFuzz, RandomTokenSoupNeverCrashes) {
  const char *Tokens[] = {"proc",  "main", "{",    "}",    "global", ";",
                          "x",     "=",    "new",  "h1",   "null",   "if",
                          "else",  "loop", "choice", "or", "check",  "(",
                          ")",     ",",    ".",    "call", "assume", "*",
                          "f",     "g",    "open"};
  constexpr size_t NumTokens = sizeof(Tokens) / sizeof(Tokens[0]);
  Prng Rng(0xF022);
  unsigned Accepted = 0;
  for (int Round = 0; Round < 500; ++Round) {
    std::string Src;
    unsigned Len = 1 + Rng.nextBelow(40);
    for (unsigned I = 0; I < Len; ++I) {
      Src += Tokens[Rng.nextBelow(NumTokens)];
      Src += " ";
    }
    Program P;
    std::string Error;
    if (parseProgram(Src, P, Error)) {
      ++Accepted;
      EXPECT_TRUE(P.main().isValid());
    } else {
      EXPECT_FALSE(Error.empty()) << Src;
    }
  }
  // Sanity: most soup is rejected, with an error message, without crashing.
  EXPECT_LT(Accepted, 100u);
}

TEST(ParserFuzz, RandomBytesNeverCrash) {
  Prng Rng(0xB17E5);
  for (int Round = 0; Round < 300; ++Round) {
    std::string Src;
    unsigned Len = Rng.nextBelow(120);
    for (unsigned I = 0; I < Len; ++I)
      Src += static_cast<char>(32 + Rng.nextBelow(95));
    Program P;
    std::string Error;
    parseProgram(Src, P, Error); // must simply not crash
  }
}

TEST(ParserFuzz, PrintedProgramsAlwaysReparse) {
  // Generator round-trips are covered in SynthTest; here, hand-built
  // programs with every command kind.
  Program P;
  ProcId Main = P.makeProc("main");
  GlobalId G = P.makeGlobal("g");
  VarId X = P.makeVar("x"), Y = P.makeVar("y");
  FieldId F = P.makeField("f");
  std::vector<StmtId> Body;
  Body.push_back(P.stmtAtom(P.cmdAssume()));
  Body.push_back(P.stmtAtom(P.cmdNew(X, P.makeAlloc("h1"))));
  Body.push_back(P.stmtAtom(P.cmdCopy(Y, X)));
  Body.push_back(P.stmtAtom(P.cmdNull(Y)));
  Body.push_back(P.stmtAtom(P.cmdLoadGlobal(Y, G)));
  Body.push_back(P.stmtAtom(P.cmdStoreGlobal(G, X)));
  Body.push_back(P.stmtAtom(P.cmdLoadField(Y, X, F)));
  Body.push_back(P.stmtAtom(P.cmdStoreField(X, F, Y)));
  Body.push_back(P.stmtAtom(P.cmdMethodCall(X, P.makeMethod("open"))));
  Body.push_back(
      P.stmtAtom(P.cmdCheck(X, P.makeSymbol("closed"), Main)));
  Body.push_back(P.stmtStar(P.stmtChoice({P.stmtAtom(P.cmdNull(X)),
                                          P.stmtSkip()})));
  P.setProcBody(Main, P.stmtSeq(std::move(Body)));
  P.setMain(Main);

  std::ostringstream OS;
  printProgram(OS, P);
  Program P2;
  std::string Error;
  ASSERT_TRUE(parseProgram(OS.str(), P2, Error)) << Error << "\n"
                                                 << OS.str();
  EXPECT_EQ(P2.numCommands(), P.numCommands());
}

TEST(Robustness, CnfEvalWithShortAssignment) {
  tracer::Cnf F;
  F.addClause({{7, true}});
  std::vector<bool> Short(3, true); // variable 7 out of range => false
  EXPECT_FALSE(F.eval(Short));
  std::vector<bool> Long(8, false);
  Long[7] = true;
  EXPECT_TRUE(F.eval(Long));
}

TEST(Robustness, PointsToFieldSummariesAreFieldBased) {
  // Documented imprecision of the 0-CFA substrate: field reads merge over
  // all bases that may be non-empty.
  Program P;
  std::string Error;
  ASSERT_TRUE(parseProgram(R"(
    proc main {
      a = new h1;
      b = new h2;
      a.f = a;
      c = b.f;
    }
  )", P, Error)) << Error;
  auto R = pointer::runPointsTo(P);
  // c reads b.f, which was never written through b, but field-based
  // merging still reports h1.
  EXPECT_TRUE(R.mayPoint(P.findVar("c"), P.findAlloc("h1")));
}

TEST(Robustness, ForwardNeedsMultipleRoundsOnRecursion) {
  Program P;
  std::string Error;
  ASSERT_TRUE(parseProgram(R"(
    proc main { call rec; check(a); }
    proc rec { a = new h1; if { call rec; } }
  )", P, Error)) << Error;
  escape::EscapeAnalysis A(P);
  dataflow::ForwardAnalysis<escape::EscapeAnalysis> FA(P, A,
                                                       A.paramFromBits({}));
  FA.run(A.initialState());
  // Recursive summaries stabilize over more than one chaotic round.
  EXPECT_GE(FA.stats().NumRounds, 2u);
}

TEST(Robustness, EscapeAnalysisOnEmptyishProgram) {
  Program P;
  std::string Error;
  ASSERT_TRUE(parseProgram("proc main { check(v); v = null; }", P, Error))
      << Error;
  escape::EscapeAnalysis A(P);
  dataflow::ForwardAnalysis<escape::EscapeAnalysis> FA(P, A,
                                                       A.paramFromBits({}));
  FA.run(A.initialState());
  auto States = FA.statesAtCheck(CheckId(0));
  ASSERT_EQ(States.size(), 1u);
  // v starts definitely-null: the query is trivially proven.
  formula::Dnf NotQ = A.notQ(CheckId(0));
  EXPECT_FALSE(NotQ.eval([&](formula::AtomId At) {
    return A.evalAtom(At, A.paramFromBits({}), States[0]);
  }));
}

TEST(Robustness, StressSpecIgnoresAutomatonQueries) {
  // In stress mode the check payload is ignored: notQ is err alone.
  Program P;
  std::string Error;
  ASSERT_TRUE(parseProgram(
      "proc main { x = new h1; check(x, whatever); }", P, Error))
      << Error;
  typestate::TypestateSpec Spec = typestate::TypestateSpec::stress();
  auto Pt = pointer::runPointsTo(P);
  typestate::TypestateAnalysis A(P, Spec, P.findAlloc("h1"), Pt);
  formula::Dnf NotQ = A.notQ(CheckId(0));
  EXPECT_EQ(NotQ.size(), 1u);
  EXPECT_EQ(NotQ.toString([&](formula::AtomId At) { return A.atomName(At); }),
            "err");
}

TEST(FaultMatrix, EverySiteEveryKindRecoversSoundly) {
  // One injected fault per run - every registered site, every fault kind,
  // sequential and parallel. The contract is sound recovery: the harness
  // run completes (no crash, no deadlock), and under audit every verdict
  // the driver still hands out carries a valid certificate. Injected
  // invariant faults leave violation records by design, so those are not
  // asserted empty - only that no verdict is wrong.
  for (unsigned Threads : {1u, 8u}) {
    for (const std::string &Site : support::FaultRegistry::knownSites()) {
      for (const char *Kind : {"alloc", "cancel", "invariant"}) {
        std::string Spec = Site + ":" + Kind;
        std::string Err;
        ASSERT_TRUE(support::FaultRegistry::global().arm(Spec, Err)) << Err;
        reporting::HarnessOptions Options;
        Options.Client = "escape"; // escape exercises every fault site
        Options.Cfg.Audit.Enabled = true;
        Options.Cfg.Execution.NumThreads = Threads;
        reporting::BenchRun Run =
            reporting::runBenchmark(synth::paperSuite()[0], Options);
        support::FaultRegistry::global().disarm();
        EXPECT_FALSE(Run.Esc.Queries.empty());
        EXPECT_EQ(Run.Esc.CertificateFailures, 0u)
            << Spec << " threads=" << Threads;
        for (const std::string &Note : Run.Esc.AuditNotes)
          if (Note.find("certificate") != std::string::npos)
            ADD_FAILURE() << Spec << " threads=" << Threads << ": " << Note;
      }
    }
  }
}

TEST(FaultMatrix, DelayedFaultsFireMidRun) {
  // An @n arm lets the run make progress before the failure lands; the
  // driver must still recover. The 3rd forward fixpoint dying exercises
  // recovery with a warm cache and learned clauses in play.
  std::string Err;
  ASSERT_TRUE(
      support::FaultRegistry::global().arm("forward.visit:alloc@3", Err))
      << Err;
  reporting::HarnessOptions Options;
  Options.Client = "escape";
  Options.Cfg.Audit.Enabled = true;
  reporting::BenchRun Run =
      reporting::runBenchmark(synth::paperSuite()[0], Options);
  support::FaultRegistry::global().disarm();
  EXPECT_EQ(Run.Esc.CertificateFailures, 0u);
}

TEST(Robustness, GeneratedSuiteUsesLoopsAndBranches) {
  // Biggest benchmark: wrappers are statistically certain to appear.
  synth::Benchmark B = synth::generate(synth::paperSuite()[5]);
  std::ostringstream OS;
  printProgram(OS, B.P);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("loop {"), std::string::npos);
  EXPECT_NE(Out.find("choice {"), std::string::npos);
  EXPECT_NE(Out.find("call lib"), std::string::npos);
}

} // namespace
