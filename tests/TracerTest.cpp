//===- TracerTest.cpp - End-to-end tests for the TRACER algorithm ------------===//
//
// Reproduces the paper's two worked examples exactly (Figure 1 for
// type-state, Figure 6 for thread-escape) and cross-checks TRACER's
// optimum-abstraction answers against brute-force enumeration of the whole
// abstraction family on randomly generated small programs.
//
//===----------------------------------------------------------------------===//

#include "tracer/QueryDriver.h"

#include "dataflow/Forward.h"
#include "escape/Escape.h"
#include "ir/Parser.h"
#include "meta/Backward.h"
#include "pointer/PointsTo.h"
#include "support/Prng.h"
#include "typestate/Typestate.h"

#include "gtest/gtest.h"

namespace {

using namespace optabs;
using namespace optabs::ir;
using optabs::tracer::QueryDriver;
using optabs::tracer::QueryOutcome;
using optabs::tracer::Verdict;

Program parse(const char *Src) {
  Program P;
  std::string Error;
  bool Ok = parseProgram(Src, P, Error);
  EXPECT_TRUE(Ok) << Error;
  return P;
}

/// True if the p-instantiated forward analysis proves the query: no state
/// reaching the check satisfies not(q).
template <typename Analysis>
bool proves(const Program &P, const Analysis &A,
            const typename Analysis::Param &Prm, CheckId Check) {
  dataflow::ForwardAnalysis<Analysis> FA(P, A, Prm);
  FA.run(A.initialState());
  formula::Dnf NotQ = A.notQ(Check);
  for (const auto &D : FA.statesAtCheck(Check)) {
    if (NotQ.eval([&](formula::AtomId At) { return A.evalAtom(At, Prm, D); }))
      return false;
  }
  return true;
}

/// Brute-forces the optimum abstraction problem: returns the minimum cost
/// of a proving abstraction, or -1 if none proves the query.
template <typename Analysis>
int bruteForceOptimum(const Program &P, const Analysis &A, CheckId Check) {
  uint32_t N = A.numParamBits();
  EXPECT_LE(N, 16u) << "brute force only feasible for small families";
  int Best = -1;
  for (uint32_t Mask = 0; Mask < (1u << N); ++Mask) {
    std::vector<bool> Bits(N);
    int Cost = 0;
    for (uint32_t I = 0; I < N; ++I) {
      Bits[I] = (Mask >> I) & 1;
      Cost += Bits[I];
    }
    if (Best >= 0 && Cost >= Best)
      continue;
    if (proves(P, A, A.paramFromBits(Bits), Check))
      Best = Cost;
  }
  return Best;
}

//===----------------------------------------------------------------------===//
// Figure 1: type-state
//===----------------------------------------------------------------------===//

struct Fig1 {
  Program P;
  std::unique_ptr<typestate::TypestateSpec> Spec;
  std::unique_ptr<pointer::PointsToResult> Pt;
  std::unique_ptr<typestate::TypestateAnalysis> A;

  Fig1() {
    P = parse(R"(
      proc main {
        x = new h1;
        y = x;
        if { z = x; }
        x.open();
        y.close();
        choice { check(x, closed); } or { check(x, opened); }
      }
    )");
    Spec = std::make_unique<typestate::TypestateSpec>("closed");
    uint32_t Opened = Spec->addState("opened");
    MethodId Open = P.makeMethod("open");
    MethodId Close = P.makeMethod("close");
    Spec->addTransition(Open, 0, Opened);
    Spec->addErrorTransition(Open, Opened);
    Spec->addTransition(Close, Opened, 0);
    Spec->addErrorTransition(Close, 0);
    Pt = std::make_unique<pointer::PointsToResult>(pointer::runPointsTo(P));
    A = std::make_unique<typestate::TypestateAnalysis>(
        P, *Spec, P.findAlloc("h1"), *Pt);
  }
};

TEST(TracerFig1, Check1ProvenWithXY) {
  Fig1 F;
  Config Options;
  Options.Execution.K = 1; // the paper's walkthrough uses k = 1
  QueryDriver<typestate::TypestateAnalysis> Driver(F.P, *F.A, Options);
  auto Outcomes = Driver.run({CheckId(0)});
  ASSERT_EQ(Outcomes.size(), 1u);
  EXPECT_EQ(Outcomes[0].V, Verdict::Proven);
  EXPECT_EQ(Outcomes[0].CheapestCost, 2u);
  EXPECT_EQ(Outcomes[0].CheapestParam, "{x,y}");
  // Iteration 1: p = {}; iteration 2: p = {x}; iteration 3: p = {x,y}.
  EXPECT_EQ(Outcomes[0].Iterations, 3u);
}

TEST(TracerFig1, Check2Impossible) {
  Fig1 F;
  Config Options;
  Options.Execution.K = 1;
  QueryDriver<typestate::TypestateAnalysis> Driver(F.P, *F.A, Options);
  auto Outcomes = Driver.run({CheckId(1)});
  ASSERT_EQ(Outcomes.size(), 1u);
  EXPECT_EQ(Outcomes[0].V, Verdict::Impossible);
  // Iteration 1 eliminates all p without x; iteration 2 all p with x.
  EXPECT_EQ(Outcomes[0].Iterations, 2u);
}

TEST(TracerFig1, BothQueriesTogetherAndBruteForceAgrees) {
  Fig1 F;
  QueryDriver<typestate::TypestateAnalysis> Driver(F.P, *F.A);
  auto Outcomes = Driver.run({CheckId(0), CheckId(1)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Proven);
  EXPECT_EQ(Outcomes[1].V, Verdict::Impossible);
  EXPECT_EQ(bruteForceOptimum(F.P, *F.A, CheckId(0)), 2);
  EXPECT_EQ(bruteForceOptimum(F.P, *F.A, CheckId(1)), -1);
}

TEST(TracerFig1, FirstIterationFormulasMatchFigure1c) {
  // One CEGAR iteration by hand for check(x, closed) at p = {} and k = 1,
  // as examples/quickstart prints it: the phi before each trace command
  // (Figure 1(c)) and the abstractions the run eliminates.
  Fig1 F;
  auto Name = [&F](formula::AtomId At) { return F.A->atomName(At); };
  typestate::TsParam Empty = F.A->paramFromBits({});
  dataflow::ForwardAnalysis<typestate::TypestateAnalysis> Fwd(F.P, *F.A,
                                                              Empty);
  Fwd.run(F.A->initialState());
  formula::Dnf NotQ = F.A->notQ(CheckId(0));
  std::optional<typestate::AbsState> Bad;
  for (const auto &D : Fwd.statesAtCheck(CheckId(0)))
    if (NotQ.eval([&](formula::AtomId At) {
          return F.A->evalAtom(At, Empty, D);
        }))
      Bad = D;
  ASSERT_TRUE(Bad.has_value());
  auto T = Fwd.extractTrace(CheckId(0), *Bad);
  ASSERT_TRUE(T.has_value());
  ASSERT_EQ(T->size(), 5u);

  std::vector<std::string> Before(T->size());
  meta::BackwardConfig Bwd;
  Bwd.K = 1;
  Bwd.StepObserver = [&](size_t I, const Command &, const formula::Dnf &Phi) {
    Before[I] = Phi.toString(Name);
  };
  meta::BackwardMetaAnalysis<typestate::TypestateAnalysis> Meta(F.P, *F.A,
                                                                Bwd);
  auto Phi = Meta.run(*T, Empty, Fwd.replay(*T, F.A->initialState()), NotQ);
  ASSERT_TRUE(Phi.has_value());
  const std::string Aliased = "!var(x) /\\ type(closed) /\\ !type(opened)";
  EXPECT_EQ(Before, (std::vector<std::string>{
                        "!err /\\ !param(x) /\\ !type(opened)", Aliased,
                        Aliased, Aliased, "type(closed)"}));
  EXPECT_EQ(Meta.projectToParams(*Phi, Empty, F.A->initialState())
                .toString(Name),
            "!param(x)");
}

TEST(TracerFig1, IrrelevantVariableNeverTracked) {
  // The paper: even with "if (*) z = x", z is never added to the
  // abstraction; the cheapest proving abstraction stays {x, y}.
  Fig1 F;
  QueryDriver<typestate::TypestateAnalysis> Driver(F.P, *F.A);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].CheapestParam, "{x,y}");
}

//===----------------------------------------------------------------------===//
// Figure 6: thread-escape
//===----------------------------------------------------------------------===//

TEST(TracerFig6, CheapestIsBothSitesLocal) {
  Program P = parse(R"(
    proc main {
      u = new h1;
      v = new h2;
      v.f = u;
      check(u);
    }
  )");
  escape::EscapeAnalysis A(P);

  // k = 1 (Figure 6 (b1)/(b2)): three iterations, [], [h1], [h1,h2].
  Config K1;
  K1.Execution.K = 1;
  QueryDriver<escape::EscapeAnalysis> D1(P, A, K1);
  auto O1 = D1.run({CheckId(0)});
  EXPECT_EQ(O1[0].V, Verdict::Proven);
  EXPECT_EQ(O1[0].CheapestCost, 2u);
  EXPECT_EQ(O1[0].CheapestParam, "[L:h1,h2]");
  EXPECT_EQ(O1[0].Iterations, 3u);

  // Without under-approximation (Figure 6 (a)): a single failing iteration
  // suffices to learn h1.E \/ (h2.E /\ h1.L); two iterations total.
  Config Exact;
  Exact.Execution.K = 0;
  QueryDriver<escape::EscapeAnalysis> D0(P, A, Exact);
  auto O0 = D0.run({CheckId(0)});
  EXPECT_EQ(O0[0].V, Verdict::Proven);
  EXPECT_EQ(O0[0].CheapestCost, 2u);
  EXPECT_EQ(O0[0].Iterations, 2u);

  EXPECT_EQ(bruteForceOptimum(P, A, CheckId(0)), 2);
}

TEST(TracerEscape, EscapedQueryIsImpossible) {
  Program P = parse(R"(
    global g;
    proc main {
      u = new h1;
      g = u;
      check(u);
    }
  )");
  escape::EscapeAnalysis A(P);
  QueryDriver<escape::EscapeAnalysis> Driver(P, A);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Impossible);
  EXPECT_EQ(bruteForceOptimum(P, A, CheckId(0)), -1);
}

TEST(TracerEscape, LaunderedEscapeThroughHeap) {
  Program P = parse(R"(
    global g;
    proc main {
      u = new h1;
      w = new h2;
      w.f = u;
      g = w;
      check(u);
    }
  )");
  escape::EscapeAnalysis A(P);
  QueryDriver<escape::EscapeAnalysis> Driver(P, A);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Impossible);
  EXPECT_EQ(bruteForceOptimum(P, A, CheckId(0)), -1);
}

TEST(TracerEscape, UnreachedCheckIsTriviallyProven) {
  Program P = parse(R"(
    proc main { u = new h1; call f; }
    proc f { }
    proc dead { check(u); }
  )");
  // Make "dead" referenced so the parser accepts it but keep it unreached.
  // (The parser requires referenced procs to be defined, not defined procs
  // to be referenced, so this parses as-is.)
  escape::EscapeAnalysis A(P);
  QueryDriver<escape::EscapeAnalysis> Driver(P, A);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Proven);
  EXPECT_EQ(Outcomes[0].CheapestCost, 0u);
  EXPECT_EQ(Outcomes[0].Iterations, 1u);
}

TEST(TracerEscape, BudgetExhaustionYieldsUnresolved) {
  Program P = parse(R"(
    proc main {
      u = new h1;
      v = new h2;
      v.f = u;
      check(u);
    }
  )");
  escape::EscapeAnalysis A(P);
  Config Options;
  Options.Execution.K = 1;
  Options.Execution.MaxItersPerQuery = 2; // needs 3
  QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Unresolved);
  EXPECT_EQ(Outcomes[0].Iterations, 2u);
}

TEST(TracerEscape, GroupingSharesForwardRuns) {
  // Two identical independent queries: with grouping they share every
  // forward run.
  Program P = parse(R"(
    proc main {
      u = new h1;
      v = new h2;
      v.f = u;
      check(u);
      check(u);
    }
  )");
  escape::EscapeAnalysis A(P);

  Config Grouped;
  Grouped.Execution.K = 1;
  QueryDriver<escape::EscapeAnalysis> DG(P, A, Grouped);
  auto OG = DG.run({CheckId(0), CheckId(1)});
  EXPECT_EQ(OG[0].V, Verdict::Proven);
  EXPECT_EQ(OG[1].V, Verdict::Proven);
  EXPECT_EQ(DG.stats().ForwardRuns, 3u);

  Config Ungrouped = Grouped;
  Ungrouped.Execution.GroupQueries = false;
  QueryDriver<escape::EscapeAnalysis> DU(P, A, Ungrouped);
  auto OU = DU.run({CheckId(0), CheckId(1)});
  EXPECT_EQ(OU[0].V, Verdict::Proven);
  // Same abstractions still shared within a round, so equal here; the
  // point is that grouping never does more runs.
  EXPECT_LE(DG.stats().ForwardRuns, DU.stats().ForwardRuns);
}

//===----------------------------------------------------------------------===//
// Optimality property: TRACER vs brute force on random small programs
//===----------------------------------------------------------------------===//

/// Generates a small random escape-analysis program with NumSites sites and
/// a final check on a random variable.
std::string randomEscapeProgram(Prng &Rng) {
  const char *Vars[] = {"a", "b", "c"};
  const char *Sites[] = {"h1", "h2", "h3"};
  const char *Fields[] = {"f", "k"};
  std::string Src = "global g;\nproc main {\n";
  Src += "  a = new h1;\n  b = new h2;\n  c = null;\n";
  unsigned Len = 3 + Rng.nextBelow(8);
  for (unsigned I = 0; I < Len; ++I) {
    std::string V = Vars[Rng.nextBelow(3)];
    std::string W = Vars[Rng.nextBelow(3)];
    std::string Line;
    switch (Rng.nextBelow(8)) {
    case 0:
      Line = V + " = new " + Sites[Rng.nextBelow(3)] + ";";
      break;
    case 1:
      Line = V + " = " + W + ";";
      break;
    case 2:
      Line = V + " = null;";
      break;
    case 3:
      Line = "g = " + V + ";";
      break;
    case 4:
      Line = V + " = g;";
      break;
    case 5:
      Line = V + " = " + W + "." + Fields[Rng.nextBelow(2)] + ";";
      break;
    case 6:
      Line = V + "." + Fields[Rng.nextBelow(2)] + " = " + W + ";";
      break;
    default:
      Line = "choice { " + V + " = " + W + "; } or { " + V + " = null; }";
      break;
    }
    Src += "  " + Line + "\n";
  }
  Src += std::string("  check(") + Vars[Rng.nextBelow(3)] + ");\n}\n";
  return Src;
}

TEST(TracerOptimality, EscapeMatchesBruteForceOnRandomPrograms) {
  Prng Rng(0x0B5E55ED);
  for (int Round = 0; Round < 60; ++Round) {
    std::string Src = randomEscapeProgram(Rng);
    Program P = parse(Src.c_str());
    escape::EscapeAnalysis A(P);
    int Brute = bruteForceOptimum(P, A, CheckId(0));

    for (unsigned K : {0u, 1u, 5u}) {
      Config Options;
      Options.Execution.K = K;
      QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
      auto Outcomes = Driver.run({CheckId(0)});
      if (Brute < 0) {
        EXPECT_EQ(Outcomes[0].V, Verdict::Impossible)
            << "k=" << K << "\n" << Src;
      } else {
        ASSERT_EQ(Outcomes[0].V, Verdict::Proven)
            << "k=" << K << "\n" << Src;
        EXPECT_EQ(static_cast<int>(Outcomes[0].CheapestCost), Brute)
            << "k=" << K << "\n" << Src;
      }
    }
  }
}

/// Random type-state programs over the File automaton.
std::string randomTypestateProgram(Prng &Rng) {
  const char *Vars[] = {"a", "b", "c", "d"};
  std::string Src = "proc main {\n  a = new h1;\n";
  unsigned Len = 2 + Rng.nextBelow(8);
  for (unsigned I = 0; I < Len; ++I) {
    std::string V = Vars[Rng.nextBelow(4)];
    std::string W = Vars[Rng.nextBelow(4)];
    std::string Line;
    switch (Rng.nextBelow(6)) {
    case 0:
      Line = V + " = " + W + ";";
      break;
    case 1:
      Line = V + " = null;";
      break;
    case 2:
      Line = V + ".open();";
      break;
    case 3:
      Line = V + ".close();";
      break;
    case 4:
      Line = V + " = new h1;";
      break;
    default:
      Line = "if { " + V + " = " + W + "; }";
      break;
    }
    Src += "  " + Line + "\n";
  }
  Src += "  check(a, closed);\n}\n";
  return Src;
}

TEST(TracerOptimality, TypestateMatchesBruteForceOnRandomPrograms) {
  Prng Rng(0x7E57);
  for (int Round = 0; Round < 60; ++Round) {
    std::string Src = randomTypestateProgram(Rng);
    Program P = parse(Src.c_str());
    typestate::TypestateSpec Spec("closed");
    uint32_t Opened = Spec.addState("opened");
    MethodId Open = P.makeMethod("open");
    MethodId Close = P.makeMethod("close");
    Spec.addTransition(Open, 0, Opened);
    Spec.addErrorTransition(Open, Opened);
    Spec.addTransition(Close, Opened, 0);
    Spec.addErrorTransition(Close, 0);
    auto Pt = pointer::runPointsTo(P);
    typestate::TypestateAnalysis A(P, Spec, P.findAlloc("h1"), Pt);
    int Brute = bruteForceOptimum(P, A, CheckId(0));

    for (unsigned K : {0u, 1u, 5u}) {
      Config Options;
      Options.Execution.K = K;
      QueryDriver<typestate::TypestateAnalysis> Driver(P, A, Options);
      auto Outcomes = Driver.run({CheckId(0)});
      if (Brute < 0) {
        EXPECT_EQ(Outcomes[0].V, Verdict::Impossible)
            << "k=" << K << "\n" << Src;
      } else {
        ASSERT_EQ(Outcomes[0].V, Verdict::Proven)
            << "k=" << K << "\n" << Src;
        EXPECT_EQ(static_cast<int>(Outcomes[0].CheapestCost), Brute)
            << "k=" << K << "\n" << Src;
      }
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Grouped multi-query runs must agree with independent per-query runs
//===----------------------------------------------------------------------===//

namespace {

TEST(TracerGrouping, BatchedVerdictsMatchIndependentRuns) {
  Prng Rng(0x6A0B);
  for (int Round = 0; Round < 25; ++Round) {
    // Random program with several checks sprinkled through it.
    std::string Src = randomEscapeProgram(Rng);
    Src.insert(Src.rfind("}"), "  check(b);\n  check(c);\n");
    Program P = parse(Src.c_str());
    escape::EscapeAnalysis A(P);
    std::vector<CheckId> Queries;
    for (uint32_t I = 0; I < P.numChecks(); ++I)
      Queries.push_back(CheckId(I));

    Config Options;
    QueryDriver<escape::EscapeAnalysis> Batched(P, A, Options);
    auto Together = Batched.run(Queries);

    for (size_t I = 0; I < Queries.size(); ++I) {
      QueryDriver<escape::EscapeAnalysis> Single(P, A, Options);
      auto Alone = Single.run({Queries[I]});
      EXPECT_EQ(Together[I].V, Alone[0].V) << Src;
      if (Together[I].V == Verdict::Proven) {
        // Both must be minimum-cost (possibly different minima).
        EXPECT_EQ(Together[I].CheapestCost, Alone[0].CheapestCost) << Src;
      }
    }
  }
}

} // namespace
