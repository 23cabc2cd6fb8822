//===- quickstart.cpp - The paper's Figure 1, end to end ----------------------===//
//
// Walks through the optimum-abstraction machinery on the running example
// of the paper (Figure 1): a parametric type-state analysis for a File
// object that must alternate open() and close(). Two queries are posed:
//
//   check(x, closed)  - provable; the cheapest abstraction tracks {x, y}
//   check(x, opened)  - not provable by ANY abstraction (the query is
//                       false), which TRACER detects as impossibility.
//
// The example drives every layer of the public API directly - program
// parsing, the parametric forward analysis, counterexample extraction, the
// backward meta-analysis (printing the Figure 1(c)/(d) formulas), the
// viable-set bookkeeping - and then re-runs everything through the
// one-call TRACER driver.
//
//===----------------------------------------------------------------------===//

#include "dataflow/Forward.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "meta/Backward.h"
#include "pointer/PointsTo.h"
#include "tracer/QueryDriver.h"
#include "typestate/Typestate.h"

#include <iostream>

using namespace optabs;
using namespace optabs::ir;

static const char *Fig1Program = R"(
  proc main {
    x = new h1;
    y = x;
    if { z = x; }
    x.open();
    y.close();
    choice { check(x, closed); } or { check(x, opened); }
  }
)";

int main() {
  //===--- 1. Parse the program and build the File type-state property ----===
  Program P;
  std::string Error;
  if (!parseProgram(Fig1Program, P, Error)) {
    std::cerr << "parse error: " << Error << "\n";
    return 1;
  }
  std::cout << "Program (Figure 1 of the paper):\n";
  printProgram(std::cout, P);

  typestate::TypestateSpec Spec("closed");
  uint32_t Closed = 0;
  uint32_t Opened = Spec.addState("opened");
  MethodId Open = P.makeMethod("open");
  MethodId Close = P.makeMethod("close");
  Spec.addTransition(Open, Closed, Opened);
  Spec.addErrorTransition(Open, Opened); // open() on an opened File errs
  Spec.addTransition(Close, Opened, Closed);
  Spec.addErrorTransition(Close, Closed); // close() on a closed File errs

  pointer::PointsToResult Pt = pointer::runPointsTo(P);
  typestate::TypestateAnalysis A(P, Spec, P.findAlloc("h1"), Pt);
  auto AtomName = [&A](formula::AtomId At) { return A.atomName(At); };

  //===--- 2. One CEGAR iteration by hand: cheapest abstraction p = {} ----===
  std::cout << "\n== Manual iteration 1 for check(x, closed), p = {} ==\n";
  typestate::TsParam Empty = A.paramFromBits({});
  dataflow::ForwardAnalysis<typestate::TypestateAnalysis> Fwd(P, A, Empty);
  Fwd.run(A.initialState());

  CheckId Check1(0), Check2(1);
  formula::Dnf NotQ1 = A.notQ(Check1);
  std::cout << "failure condition not(q): " << NotQ1.toString(AtomName)
            << "\n";

  std::optional<typestate::AbsState> Bad;
  for (const auto &D : Fwd.statesAtCheck(Check1))
    if (NotQ1.eval([&](formula::AtomId At) {
          return A.evalAtom(At, Empty, D);
        }))
      Bad = D;
  if (!Bad) {
    std::cerr << "unexpected: p = {} should fail to prove check 1\n";
    return 1;
  }

  auto T = Fwd.extractTrace(Check1, *Bad);
  std::cout << "abstract counterexample trace:\n";
  printTrace(std::cout, P, *T);

  // Backward meta-analysis with k = 1, printing each step (Figure 1(c)).
  meta::BackwardConfig BwdConfig;
  BwdConfig.K = 1;
  BwdConfig.StepObserver = [&](size_t I, const Command &,
                               const formula::Dnf &F) {
    std::cout << "  phi before '" << commandToString(P, (*T)[I])
              << "' = " << F.toString(AtomName) << "\n";
  };
  meta::BackwardMetaAnalysis<typestate::TypestateAnalysis> Bwd(P, A,
                                                               BwdConfig);
  auto States = Fwd.replay(*T, A.initialState());
  std::cout << "backward meta-analysis (k = 1):\n";
  auto F = Bwd.run(*T, Empty, States, NotQ1);
  formula::Dnf Unviable = Bwd.projectToParams(*F, Empty, A.initialState());
  std::cout << "abstractions that CANNOT prove the query: "
            << Unviable.toString(AtomName)
            << "  (i.e. every p without x is eliminated)\n";

  //===--- 3. The full TRACER loop through the driver ---------------------===
  std::cout << "\n== TRACER on both queries (k = 1) ==\n";
  Config Options;
  Options.Execution.K = 1;
  tracer::QueryDriver<typestate::TypestateAnalysis> Driver(P, A, Options);
  auto Outcomes = Driver.run({Check1, Check2});
  const char *Names[] = {"check(x, closed)", "check(x, opened)"};
  for (size_t I = 0; I < Outcomes.size(); ++I) {
    const auto &O = Outcomes[I];
    std::cout << Names[I] << ": " << tracer::verdictName(O.V);
    if (O.V == tracer::Verdict::Proven)
      std::cout << " with cheapest abstraction " << O.CheapestParam
                << " (|p| = " << O.CheapestCost << ")";
    std::cout << " after " << O.Iterations << " iterations\n";
  }
  std::cout << "\nAs in the paper: the first query is proven with {x, y} "
               "(z is never tracked),\nthe second is impossible for every "
               "abstraction in the family.\n";
  return 0;
}
