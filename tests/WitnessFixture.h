//===- WitnessFixture.h - Forward runs to extract witnesses from ----------===//
//
// Shared by WitnessOracleTest and ExtractReadOnlyTest: generated programs
// (seeds other than the suite's usual 1 and 7), each analysed by both
// clients under two abstractions, with the forward run built the way the
// driver builds it (liveness and check-reach tables), and the failing
// states at every check of the run.
//
//===----------------------------------------------------------------------===//

#ifndef OPTABS_TESTS_WITNESSFIXTURE_H
#define OPTABS_TESTS_WITNESSFIXTURE_H

#include "dataflow/Forward.h"
#include "escape/Escape.h"
#include "ir/CheckReach.h"
#include "ir/Liveness.h"
#include "pointer/PointsTo.h"
#include "synth/Generator.h"
#include "typestate/Typestate.h"

#include "gtest/gtest.h"

#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace optabs::synth {
/// Names a generated program in gtest's messages.
inline void PrintTo(const BenchConfig &C, std::ostream *OS) { *OS << C.Name; }
} // namespace optabs::synth

namespace witness_fixture {

using namespace optabs;

/// Small generated programs with loops, branches and calls.
inline std::vector<synth::BenchConfig> configs() {
  std::vector<synth::BenchConfig> Cs(3);
  Cs[0].Name = "seed3";
  Cs[0].Seed = 3;
  Cs[1].Name = "seed11-loopy";
  Cs[1].Seed = 11;
  Cs[1].AppProcs = 4;
  Cs[1].LoopPercent = 50;
  Cs[1].BranchPercent = 40;
  Cs[2].Name = "seed29-calls";
  Cs[2].Seed = 29;
  Cs[2].AppProcs = 5;
  Cs[2].LibCallsPerProc = 3;
  Cs[2].ConfuserMaxWays = 5;
  return Cs;
}

/// The cheapest abstraction and one that keeps every other parameter.
template <typename Analysis>
std::vector<typename Analysis::Param> params(const Analysis &A) {
  std::vector<bool> Alternate(A.numParamBits());
  for (size_t I = 0; I < Alternate.size(); I += 2)
    Alternate[I] = true;
  return {A.paramFromBits({}), A.paramFromBits(Alternate)};
}

/// One forward run with the driver's tables, and its failing states.
template <typename Analysis> struct ForwardRun {
  using Forward = dataflow::ForwardAnalysis<Analysis>;

  ForwardRun(const ir::Program &P, const Analysis &A,
             const typename Analysis::Param &Prm,
             const ir::CommandLiveness &Live, const ir::CheckReach *Reach)
      : A(A), Prm(Prm), F(P, A, Prm, &Live, Reach) {
    F.run(A.initialState());
  }

  /// (check, state id) for every state at every check of \p Checks that
  /// fails the check's query under this run's abstraction.
  std::vector<std::pair<ir::CheckId, dataflow::StateId>>
  failing(const std::vector<ir::CheckId> &Checks) const {
    std::vector<std::pair<ir::CheckId, dataflow::StateId>> Out;
    for (ir::CheckId Check : Checks) {
      formula::Dnf NotQ = A.notQ(Check);
      for (dataflow::StateId Id : F.statesAtCheckIds(Check))
        if (NotQ.eval([&](formula::AtomId At) {
              return A.evalAtom(At, Prm, F.state(Id));
            }))
          Out.push_back({Check, Id});
    }
    return Out;
  }

  const Analysis &A;
  typename Analysis::Param Prm;
  Forward F;
};

/// Calls \p Fn(Name, Analysis, Checks) for the escape client and for the
/// type-state client at the first queried site of \p B.
template <typename FnT> void forEachClient(const synth::Benchmark &B, FnT Fn) {
  escape::EscapeAnalysis Esc(B.P);
  Fn(std::string("escape"), Esc, B.EscChecks);

  pointer::PointsToResult Pt = pointer::runPointsTo(B.P);
  ASSERT_FALSE(B.TsChecks.empty());
  std::optional<ir::AllocId> Site;
  Pt.pointsTo(B.P.checkSite(B.TsChecks[0]).Var).forEach([&](size_t H) {
    if (!Site)
      Site = ir::AllocId(static_cast<uint32_t>(H));
  });
  ASSERT_TRUE(Site.has_value());
  typestate::TypestateSpec Spec = typestate::TypestateSpec::stress();
  typestate::TypestateAnalysis Ts(B.P, Spec, *Site, Pt);
  Fn(std::string("typestate"), Ts, B.TsChecks);
}

} // namespace witness_fixture

#endif // OPTABS_TESTS_WITNESSFIXTURE_H
