//===- bench_micro.cpp - Micro-benchmarks of the core operations --------------===//
//
// google-benchmark suite for the building blocks whose costs drive the
// end-to-end numbers: DNF manipulation (product, simplify, semantic
// normalization), the min-cost SAT solver, the points-to substrate, the
// parametric forward analysis, trace extraction, and one full backward
// meta-analysis pass.
//
//===----------------------------------------------------------------------===//

#include "benchmark/benchmark.h"

#include "dataflow/Forward.h"
#include "escape/Escape.h"
#include "formula/Normalize.h"
#include "meta/Backward.h"
#include "pointer/PointsTo.h"
#include "reporting/Harness.h"
#include "support/Prng.h"
#include "tracer/MinCostSat.h"

using namespace optabs;
using formula::Cube;
using formula::Dnf;
using formula::Lit;

namespace {

Dnf randomDnf(Prng &Rng, unsigned NumCubes, unsigned NumAtoms,
              unsigned CubeLen) {
  std::vector<Cube> Cubes;
  while (Cubes.size() < NumCubes) {
    std::vector<Lit> Lits;
    for (unsigned I = 0; I < CubeLen; ++I) {
      auto A = static_cast<formula::AtomId>(Rng.nextBelow(NumAtoms));
      Lits.push_back(Rng.chance(1, 4) ? Lit::neg(A) : Lit::pos(A));
    }
    if (auto C = Cube::make(std::move(Lits)))
      Cubes.push_back(std::move(*C));
  }
  return Dnf::fromCubes(std::move(Cubes));
}

void BM_DnfProduct(benchmark::State &State) {
  Prng Rng(1);
  Dnf A = randomDnf(Rng, 16, 24, 3);
  Dnf B = randomDnf(Rng, 16, 24, 3);
  formula::AtomEval Eval = [](formula::AtomId) { return false; };
  for (auto _ : State) {
    Dnf P = Dnf::product(A, B, 0, Eval);
    benchmark::DoNotOptimize(P);
  }
}
BENCHMARK(BM_DnfProduct);

void BM_DnfSimplify(benchmark::State &State) {
  Prng Rng(2);
  Dnf D = randomDnf(Rng, 64, 16, 4);
  for (auto _ : State) {
    Dnf Copy = D;
    Copy.sortBySize();
    Copy.simplify();
    benchmark::DoNotOptimize(Copy);
  }
}
BENCHMARK(BM_DnfSimplify);

/// Escape-shaped locations: atom A belongs to the three-valued location
/// A / 3 (a variable or field holding N, L or E).
std::optional<formula::LocationInfo> triValuedLoc(formula::AtomId A) {
  formula::AtomId First = A - A % 3;
  formula::LocationInfo Info;
  Info.Values = {First, First + 1, First + 2};
  return Info;
}

void BM_SemanticNormalize(benchmark::State &State) {
  // 8 three-valued locations.
  formula::LocationFn Loc = triValuedLoc;
  formula::CubeRefiner Refine = [&Loc](const Cube &C) {
    return formula::refineCubeByLocations(C, Loc);
  };
  Prng Rng(3);
  Dnf D = randomDnf(Rng, 32, 24, 4);
  for (auto _ : State) {
    Dnf Copy = D;
    formula::semanticNormalize(Copy, Refine, Loc);
    benchmark::DoNotOptimize(Copy);
  }
}
BENCHMARK(BM_SemanticNormalize);

void BM_RefineCube(benchmark::State &State) {
  // The backward step refines every cube it produces: escape-shaped cubes
  // of up to 6 literals over 8 three-valued locations, a mix of refuted
  // and simplified ones.
  formula::LocationFn Loc = triValuedLoc;
  Prng Rng(5);
  Dnf D = randomDnf(Rng, 64, 24, 6);
  for (auto _ : State) {
    for (const Cube &C : D.cubes()) {
      auto R = formula::refineCubeByLocations(C, Loc);
      benchmark::DoNotOptimize(R);
    }
  }
  State.SetItemsProcessed(State.iterations() * D.size());
}
BENCHMARK(BM_RefineCube);

void BM_MinCostSolve(benchmark::State &State) {
  Prng Rng(4);
  tracer::Cnf F;
  for (unsigned I = 0; I < 40; ++I) {
    std::vector<tracer::BoolLit> Clause;
    for (unsigned J = 0; J < 3; ++J)
      Clause.push_back({static_cast<uint32_t>(Rng.nextBelow(64)),
                        Rng.chance(3, 4)});
    F.addClause(std::move(Clause));
  }
  for (auto _ : State) {
    auto Model = tracer::solveMinCost(F, 64);
    benchmark::DoNotOptimize(Model);
  }
}
BENCHMARK(BM_MinCostSolve);

void BM_GenerateBenchmark(benchmark::State &State) {
  const auto &Config = synth::paperSuite()[0];
  for (auto _ : State) {
    synth::Benchmark B = synth::generate(Config);
    benchmark::DoNotOptimize(B.P.numCommands());
  }
}
BENCHMARK(BM_GenerateBenchmark);

void BM_PointsTo(benchmark::State &State) {
  synth::Benchmark B = synth::generate(synth::paperSuite()[2]); // hedc
  for (auto _ : State) {
    auto R = pointer::runPointsTo(B.P);
    benchmark::DoNotOptimize(R.reachableCommands().size());
  }
}
BENCHMARK(BM_PointsTo);

void BM_ForwardEscape(benchmark::State &State) {
  synth::Benchmark B = synth::generate(synth::paperSuite()[0]); // tsp
  escape::EscapeAnalysis A(B.P);
  std::vector<bool> Bits(B.P.numAllocs(), false);
  escape::EscParam Prm = A.paramFromBits(Bits); // cheapest abstraction
  for (auto _ : State) {
    dataflow::ForwardAnalysis<escape::EscapeAnalysis> FA(B.P, A, Prm);
    FA.run(A.initialState());
    benchmark::DoNotOptimize(FA.stats().NumStates);
  }
}
BENCHMARK(BM_ForwardEscape);

void BM_TraceExtractAndBackward(benchmark::State &State) {
  synth::Benchmark B = synth::generate(synth::paperSuite()[0]);
  escape::EscapeAnalysis A(B.P);
  escape::EscParam Prm =
      A.paramFromBits(std::vector<bool>(B.P.numAllocs(), false));
  dataflow::ForwardAnalysis<escape::EscapeAnalysis> FA(B.P, A, Prm);
  FA.run(A.initialState());
  // Find one failing query to exercise extraction + meta-analysis.
  ir::CheckId Check;
  std::optional<escape::EscState> Bad;
  for (ir::CheckId C : B.EscChecks) {
    formula::Dnf NotQ = A.notQ(C);
    for (const auto &D : FA.statesAtCheck(C)) {
      if (NotQ.eval(
              [&](formula::AtomId At) { return A.evalAtom(At, Prm, D); })) {
        Check = C;
        Bad = D;
        break;
      }
    }
    if (Bad)
      break;
  }
  if (!Bad) {
    State.SkipWithError("no failing query found");
    return;
  }
  meta::BackwardMetaAnalysis<escape::EscapeAnalysis> Bwd(B.P, A);
  for (auto _ : State) {
    auto T = FA.extractTrace(Check, *Bad);
    auto States = FA.replay(*T, A.initialState());
    auto F = Bwd.run(*T, Prm, States, A.notQ(Check));
    benchmark::DoNotOptimize(F->size());
  }
}
BENCHMARK(BM_TraceExtractAndBackward);

} // namespace

BENCHMARK_MAIN();
