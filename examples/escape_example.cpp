//===- escape_example.cpp - The paper's Figure 6, end to end ------------------===//
//
// Reproduces Figure 6: the thread-escape analysis on
//
//   u = new h1; v = new h2; v.f = u; pc: local(u)?
//
// first WITHOUT under-approximation (part (a): a single backward pass
// learns the full failure condition h1.E \/ (h1.L /\ h2.E), so the second
// forward run already uses the cheapest proving abstraction), then WITH
// beam width k = 1 (parts (b1)/(b2): one extra iteration, but each
// backward formula stays a single conjunction). Both routes find the same
// cheapest abstraction [h1 -> L, h2 -> L].
//
//===----------------------------------------------------------------------===//

#include "dataflow/Forward.h"
#include "escape/Escape.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "meta/Backward.h"
#include "tracer/QueryDriver.h"

#include <iostream>

using namespace optabs;
using namespace optabs::ir;

static const char *Fig6Program = R"(
  proc main {
    u = new h1;
    v = new h2;
    v.f = u;
    check(u);
  }
)";

/// Runs one manual CEGAR iteration with the given beam width and starting
/// abstraction bits, printing the backward formulas.
static void manualIteration(const Program &P,
                            const escape::EscapeAnalysis &A, unsigned K,
                            const std::vector<bool> &Bits) {
  escape::EscParam Prm = A.paramFromBits(Bits);
  auto AtomName = [&A](formula::AtomId At) { return A.atomName(At); };
  std::cout << "forward run with p = " << A.paramToString(Prm)
            << (K ? " (k = " + std::to_string(K) + ")"
                  : " (no under-approximation)")
            << "\n";

  dataflow::ForwardAnalysis<escape::EscapeAnalysis> Fwd(P, A, Prm);
  Fwd.run(A.initialState());
  CheckId Check(0);
  formula::Dnf NotQ = A.notQ(Check);
  std::optional<escape::EscState> Bad;
  for (const auto &D : Fwd.statesAtCheck(Check))
    if (NotQ.eval(
            [&](formula::AtomId At) { return A.evalAtom(At, Prm, D); }))
      Bad = D;
  if (!Bad) {
    std::cout << "  query PROVEN: u cannot escape under this abstraction\n";
    return;
  }
  auto T = Fwd.extractTrace(Check, *Bad);
  meta::BackwardConfig Config;
  Config.K = K;
  Config.StepObserver = [&](size_t I, const Command &,
                            const formula::Dnf &F) {
    std::cout << "  phi before '" << commandToString(P, (*T)[I])
              << "' = " << F.toString(AtomName) << "\n";
  };
  meta::BackwardMetaAnalysis<escape::EscapeAnalysis> Bwd(P, A, Config);
  auto States = Fwd.replay(*T, A.initialState());
  auto F = Bwd.run(*T, Prm, States, NotQ);
  std::cout << "  => unviable abstractions: "
            << Bwd.projectToParams(*F, Prm, A.initialState())
                   .toString(AtomName)
            << "\n";
}

int main() {
  Program P;
  std::string Error;
  if (!parseProgram(Fig6Program, P, Error)) {
    std::cerr << "parse error: " << Error << "\n";
    return 1;
  }
  std::cout << "Program (Figure 6 of the paper):\n";
  printProgram(std::cout, P);
  escape::EscapeAnalysis A(P);

  std::cout << "\n== Figure 6(a): no under-approximation ==\n";
  manualIteration(P, A, /*K=*/0, {false, false});
  manualIteration(P, A, /*K=*/0, {true, true});

  std::cout << "\n== Figure 6(b1)/(b2): beam width k = 1 ==\n";
  manualIteration(P, A, /*K=*/1, {false, false}); // learns h1.E
  manualIteration(P, A, /*K=*/1, {true, false});  // learns h1.L /\ h2.E
  manualIteration(P, A, /*K=*/1, {true, true});   // proven

  std::cout << "\n== TRACER end-to-end, both settings ==\n";
  for (unsigned K : {0u, 1u}) {
    Config Options;
    Options.Execution.K = K;
    tracer::QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
    auto Outcomes = Driver.run({CheckId(0)});
    std::cout << "k = " << (K ? std::to_string(K) : std::string("off"))
              << ": " << tracer::verdictName(Outcomes[0].V) << " with "
              << Outcomes[0].CheapestParam << " in "
              << Outcomes[0].Iterations << " iterations\n";
  }
  return 0;
}
