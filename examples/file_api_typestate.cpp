//===- file_api_typestate.cpp - Type-state verification of a file API ---------===//
//
// Uses the parametric type-state analysis as a verifier for the classic
// File discipline (closed -> open() -> opened -> close() -> closed; any
// other order is a bug). The program below opens files through wrapper
// procedures, with aliases, branches and a retry loop; one path
// double-closes. For every check the example reports either a proof -
// together with the cheapest set of variables whose must-alias tracking
// suffices - or that no abstraction of the analysis can prove it, i.e. a
// potential API-misuse warning.
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "pointer/PointsTo.h"
#include "service/Clients.h"
#include "tracer/QueryDriver.h"
#include "typestate/Typestate.h"

#include <iostream>

using namespace optabs;
using namespace optabs::ir;

static const char *FileProgram = R"(
  proc main {
    f = new h_log;
    handle = f;
    call open_log;
    loop { call write_log; }
    call close_log;
    check(f, closed);        // correct usage: provable

    f2 = new h_tmp;
    alias = f2;
    f2.open();
    choice { alias.close(); } or { }
    f2.close();              // double close on one path!
    check(f2, closed);       // NOT provable by any abstraction
  }
  proc open_log  { handle.open(); }
  proc write_log { w = handle; check(w, opened); }
  proc close_log { handle.close(); }
)";

int main() {
  Program P;
  std::string Error;
  if (!parseProgram(FileProgram, P, Error)) {
    std::cerr << "parse error: " << Error << "\n";
    return 1;
  }
  std::cout << "File-API program:\n";
  printProgram(std::cout, P);

  // The File property automaton.
  typestate::TypestateSpec Spec("closed");
  uint32_t Closed = 0;
  uint32_t Opened = Spec.addState("opened");
  MethodId Open = P.makeMethod("open");
  MethodId Close = P.makeMethod("close");
  Spec.addTransition(Open, Closed, Opened);
  Spec.addErrorTransition(Open, Opened);
  Spec.addTransition(Close, Opened, Closed);
  Spec.addErrorTransition(Close, Closed);

  // The client table's plan: the automaton plus the may-alias oracle form
  // the run's context, and each query is a (check, allocation site) pair
  // - the queried variable's may-points-to set decides which sites are
  // relevant - run once per tracked site.
  using Typestate = service::ClientTraits<typestate::TypestateAnalysis>;
  Typestate::Context Ctx{Spec, pointer::runPointsTo(P)};
  std::cout << "\nVerification report:\n";
  std::vector<CheckId> Checks;
  for (uint32_t I = 0; I < P.numChecks(); ++I)
    Checks.push_back(CheckId(I));
  for (const auto &[H, Queries] : Typestate::groups(P, Ctx, Checks)) {
    std::unique_ptr<typestate::TypestateAnalysis> A =
        Typestate::analysis(P, Ctx, H);
    tracer::QueryDriver<typestate::TypestateAnalysis> Driver(P, *A);
    auto Outcomes = Driver.run(Queries);
    for (const auto &O : Outcomes) {
      const CheckSite &Site = P.checkSite(O.Check);
      std::cout << "  " << commandToString(P, Site.Command) << " for site "
                << P.allocName(AllocId(H)) << ": ";
      if (O.V == tracer::Verdict::Proven) {
        std::cout << "SAFE - object is '" << P.symbolName(Site.Payload)
                  << "' here; proof tracks " << O.CheapestParam << " ("
                  << O.Iterations << " iteration(s))\n";
      } else if (O.V == tracer::Verdict::Impossible) {
        std::cout << "WARNING - possible API misuse; no abstraction of "
                     "this analysis proves it ("
                  << O.Iterations << " iteration(s) to refute)\n";
      } else {
        std::cout << "unresolved within budget\n";
      }
    }
  }
  return 0;
}
