//===- BackwardTest.cpp - Theorem 3 property tests for the meta-analysis ------===//
//
// Theorem 3 (Soundness) of the paper:
//   1. (p, F_p[t](d)) in gamma(f)  ==>  (p, d) in gamma(B[t](p, d, f))
//      - the current pair is never lost (progress);
//   2. every (p0, d0) in gamma(B[t](p, d, f)) satisfies
//      (p0, F_p0[t](d0)) in gamma(f)
//      - everything the formula captures really fails the same way.
// These are validated here on traces extracted from randomly generated
// programs, for both client analyses and several beam widths, by sampling
// (p0, d0) pairs and replaying the trace under them.
//
// The analysis's shared wp table (meta/WpTable.h) is checked here too:
// every entry driver runs reach equals a freshly built wp, and a warm table
// changes no outcome or event-trace byte of a later run.
//
// So is the backward step itself: the client contract it relies on (the
// wp of a parameter literal is the literal), the soft-cap prune's laws,
// and step() against the literal-by-literal product it replaced, kept
// here as an oracle and normalised by the tier its cube count picks - same
// cubes in the same order, same gate charges, at the default caps and at
// caps small enough to run the soft-cap pruning, the hard-cap bail-out,
// every normalisation tier and each way step() builds a product it has
// counted. The chain counter itself is checked against the products it
// stands for.
//
//===----------------------------------------------------------------------===//

#include "meta/Backward.h"

#include "WitnessFixture.h"
#include "dataflow/Forward.h"
#include "escape/Escape.h"
#include "ir/Parser.h"
#include "pointer/PointsTo.h"
#include "support/FaultInjection.h"
#include "support/Metrics.h"
#include "support/Prng.h"
#include "synth/Generator.h"
#include "tracer/QueryDriver.h"
#include "typestate/Typestate.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

namespace {

using namespace optabs;
using namespace optabs::ir;

Program parse(const std::string &Src) {
  Program P;
  std::string Error;
  bool Ok = parseProgram(Src, P, Error);
  EXPECT_TRUE(Ok) << Error;
  return P;
}

/// Shared driver: run forward under the cheapest abstraction, take every
/// failing state at every check, extract traces, run the meta-analysis,
/// then check both halves of Theorem 3 by sampling.
template <typename Analysis, typename RandomParam, typename RandomState>
void checkTheorem3(const Program &P, const Analysis &A, unsigned K,
                   RandomParam RandParam, RandomState RandState,
                   Prng &Rng) {
  using Fwd = dataflow::ForwardAnalysis<Analysis>;
  typename Analysis::Param P0 = A.paramFromBits({});
  Fwd Forward(P, A, P0);
  Forward.run(A.initialState());

  meta::BackwardConfig Config;
  Config.K = K;
  meta::BackwardMetaAnalysis<Analysis> Bwd(P, A, Config);

  for (uint32_t CI = 0; CI < P.numChecks(); ++CI) {
    CheckId Check(CI);
    formula::Dnf NotQ = A.notQ(Check);
    for (const auto &D : Forward.statesAtCheck(Check)) {
      bool Fails = NotQ.eval(
          [&](formula::AtomId At) { return A.evalAtom(At, P0, D); });
      if (!Fails)
        continue;
      auto T = Forward.extractTrace(Check, D);
      ASSERT_TRUE(T.has_value());
      auto States = Forward.replay(*T, A.initialState());
      auto F = Bwd.run(*T, P0, States, NotQ);
      ASSERT_TRUE(F.has_value());

      // Part 1: the run's own (p, d_I) is captured.
      EXPECT_TRUE(F->eval([&](formula::AtomId At) {
        return A.evalAtom(At, P0, States.front());
      }));

      // Part 2: sampled members of gamma(F) really fail.
      for (int Sample = 0; Sample < 30; ++Sample) {
        typename Analysis::Param Prm = RandParam(Rng);
        typename Analysis::State D0 = RandState(Rng);
        bool Captured = F->eval([&](formula::AtomId At) {
          return A.evalAtom(At, Prm, D0);
        });
        if (!Captured)
          continue;
        typename Analysis::State Cur = D0;
        for (CommandId Cmd : *T)
          Cur = A.transfer(P.command(Cmd), Cur, Prm);
        EXPECT_TRUE(NotQ.eval([&](formula::AtomId At) {
          return A.evalAtom(At, Prm, Cur);
        })) << "a captured pair did not fail (check " << CI << ", k=" << K
            << ")";
      }
    }
  }
}

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
    switch (Rng.nextBelow(8)) {
    case 0:
      Src += "  " + V + " = new " + Sites[Rng.nextBelow(3)] + ";\n";
      break;
    case 1:
      Src += "  " + V + " = " + W + ";\n";
      break;
    case 2:
      Src += "  g = " + V + ";\n";
      break;
    case 3:
      Src += "  " + V + " = g;\n";
      break;
    case 4:
      Src += "  " + V + " = " + W + "." + Fields[Rng.nextBelow(2)] + ";\n";
      break;
    case 5:
      Src += "  " + V + "." + Fields[Rng.nextBelow(2)] + " = " + W + ";\n";
      break;
    case 6:
      Src += "  choice { " + V + " = " + W + "; } or { }\n";
      break;
    default:
      Src += "  " + V + " = null;\n";
      break;
    }
  }
  Src += "  check(a);\n  check(b);\n}\n";
  return Src;
}

TEST(Theorem3, HoldsForEscapeOnRandomPrograms) {
  Prng Rng(0x7EAC);
  for (int Round = 0; Round < 40; ++Round) {
    Program P = parse(randomEscapeProgram(Rng));
    escape::EscapeAnalysis A(P);
    auto RandParam = [&P, &A](Prng &R) {
      std::vector<bool> Bits(P.numAllocs());
      for (size_t I = 0; I < Bits.size(); ++I)
        Bits[I] = R.chance(1, 2);
      return A.paramFromBits(Bits);
    };
    auto RandState = [&P, &A](Prng &R) {
      escape::EscState D = A.initialState();
      for (uint32_t L = 0; L < A.numLocs(); ++L)
        D.setSlot(L, static_cast<escape::AbsVal>(R.nextBelow(3)));
      return D;
    };
    for (unsigned K : {1u, 3u, 0u})
      checkTheorem3(P, A, K, RandParam, RandState, Rng);
  }
}

TEST(Theorem3, HoldsForTypestateOnRandomPrograms) {
  Prng Rng(0x7EAD);
  const char *Vars[] = {"a", "b", "c"};
  for (int Round = 0; Round < 40; ++Round) {
    std::string Src = "proc main {\n  a = new h1;\n";
    unsigned Len = 2 + Rng.nextBelow(8);
    for (unsigned I = 0; I < Len; ++I) {
      std::string V = Vars[Rng.nextBelow(3)];
      std::string W = Vars[Rng.nextBelow(3)];
      switch (Rng.nextBelow(5)) {
      case 0:
        Src += "  " + V + " = " + W + ";\n";
        break;
      case 1:
        Src += "  " + V + ".work();\n";
        break;
      case 2:
        Src += "  " + V + " = new h1;\n";
        break;
      case 3:
        Src += "  choice { " + V + " = " + W + "; } or { }\n";
        break;
      default:
        Src += "  " + V + " = null;\n";
        break;
      }
    }
    Src += "  check(a, init);\n}\n";
    Program P = parse(Src);
    typestate::TypestateSpec Spec = typestate::TypestateSpec::stress();
    pointer::PointsToResult Pt = pointer::runPointsTo(P);
    typestate::TypestateAnalysis A(P, Spec, P.findAlloc("h1"), Pt);
    auto RandParam = [&P, &A](Prng &R) {
      std::vector<bool> Bits(P.numVars());
      for (size_t I = 0; I < Bits.size(); ++I)
        Bits[I] = R.chance(1, 2);
      return A.paramFromBits(Bits);
    };
    auto RandState = [&P](Prng &R) {
      typestate::AbsState D;
      if (R.chance(1, 6)) {
        D.Top = true;
        return D;
      }
      D.Ts = 1;
      for (uint32_t V = 0; V < P.numVars(); ++V)
        if (R.chance(1, 3))
          D.Vs.push_back(V);
      return D;
    };
    for (unsigned K : {1u, 3u, 0u})
      checkTheorem3(P, A, K, RandParam, RandState, Rng);
  }
}

TEST(Backward, StatsArePopulated) {
  Program P = parse(R"(
    global g;
    proc main { a = new h1; g = a; check(a); }
  )");
  escape::EscapeAnalysis A(P);
  escape::EscParam Prm = A.paramFromBits({});
  dataflow::ForwardAnalysis<escape::EscapeAnalysis> Fwd(P, A, Prm);
  Fwd.run(A.initialState());
  auto AtCheck = Fwd.statesAtCheck(CheckId(0));
  ASSERT_FALSE(AtCheck.empty());
  auto T = Fwd.extractTrace(CheckId(0), AtCheck[0]);
  ASSERT_TRUE(T.has_value());
  meta::BackwardMetaAnalysis<escape::EscapeAnalysis> Bwd(P, A);
  auto States = Fwd.replay(*T, A.initialState());
  auto F = Bwd.run(*T, Prm, States, A.notQ(CheckId(0)));
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(Bwd.stats().Steps, T->size());
  EXPECT_GE(Bwd.stats().MaxCubes, 1u);
}

TEST(Backward, TimeoutReturnsNullopt) {
  Program P = parse(R"(
    global g;
    proc main { a = new h1; g = a; check(a); }
  )");
  escape::EscapeAnalysis A(P);
  escape::EscParam Prm = A.paramFromBits({});
  dataflow::ForwardAnalysis<escape::EscapeAnalysis> Fwd(P, A, Prm);
  Fwd.run(A.initialState());
  auto AtCheck = Fwd.statesAtCheck(CheckId(0));
  auto T = Fwd.extractTrace(CheckId(0), AtCheck[0]);
  meta::BackwardConfig Config;
  Config.TimeoutSeconds = 1e-12; // expires immediately
  meta::BackwardMetaAnalysis<escape::EscapeAnalysis> Bwd(P, A, Config);
  auto States = Fwd.replay(*T, A.initialState());
  EXPECT_FALSE(Bwd.run(*T, Prm, States, A.notQ(CheckId(0))).has_value());
}

//===----------------------------------------------------------------------===//
// The shared wp table (meta/WpTable.h)
//===----------------------------------------------------------------------===//

/// wp of \p L across \p Cmd built from scratch, the way every backward run
/// used to build it into a private memo: wpAtom, negate, toDnf.
template <typename Analysis>
formula::Dnf freshWp(const Analysis &A, const Command &Cmd, formula::Lit L) {
  formula::Formula Wp = A.wpAtom(Cmd, L.atom());
  if (L.isNeg())
    Wp = formula::Formula::negate(Wp);
  return Wp.toDnf();
}

struct TableCounts {
  size_t Entries = 0;
  size_t Negative = 0;
  size_t Identities = 0;
};

/// Checks every entry of \p A's wp table against freshWp, cube for cube
/// and in order.
template <typename Analysis>
void expectTableMatchesFreshWps(const Program &P, const Analysis &A,
                                const std::string &Where,
                                TableCounts &Counts) {
  auto Name = [&A](formula::AtomId X) { return A.atomName(X); };
  A.wpTable().forEach(
      [&](uint32_t Cmd, formula::Lit L, const formula::Dnf &Wp) {
        formula::Dnf Want = freshWp(A, P.command(CommandId(Cmd)), L);
        EXPECT_TRUE(Wp == Want)
            << Where << " command " << Cmd << " literal " << L.raw()
            << ": table " << Wp.toString(Name) << ", fresh "
            << Want.toString(Name);
        ++Counts.Entries;
        Counts.Negative += L.isNeg();
        Counts.Identities += Wp == formula::Dnf::singleLit(L);
      });
}

/// The type-state queries of \p B grouped by tracked site, as the harness
/// plans them: each check against every site its receiver may point to.
std::map<uint32_t, std::vector<CheckId>>
typestateChecksBySite(const synth::Benchmark &B,
                      const pointer::PointsToResult &Pt) {
  std::map<uint32_t, std::vector<CheckId>> BySite;
  for (CheckId C : B.TsChecks)
    Pt.pointsTo(B.P.checkSite(C).Var).forEach([&](size_t H) {
      BySite[static_cast<uint32_t>(H)].push_back(C);
    });
  return BySite;
}

TEST(SharedWpTable, EveryEscapeEntryEqualsAFreshWp) {
  for (size_t I = 0; I < 2; ++I) {
    synth::Benchmark B = synth::generate(synth::paperSuite()[I]);
    escape::EscapeAnalysis A(B.P);
    tracer::QueryDriver<escape::EscapeAnalysis> D(B.P, A);
    D.run(B.EscChecks);
    TableCounts Counts;
    expectTableMatchesFreshWps(B.P, A, B.Config.Name, Counts);
    EXPECT_GT(Counts.Negative, 0u) << B.Config.Name;
    EXPECT_GT(Counts.Identities, 0u) << B.Config.Name;
    EXPECT_GT(Counts.Entries, Counts.Identities) << B.Config.Name;
  }
}

TEST(SharedWpTable, EveryTypestateEntryEqualsAFreshWp) {
  typestate::TypestateSpec Spec = typestate::TypestateSpec::stress();
  for (size_t I = 0; I < 2; ++I) {
    synth::Benchmark B = synth::generate(synth::paperSuite()[I]);
    pointer::PointsToResult Pt = pointer::runPointsTo(B.P);
    TableCounts Counts;
    for (const auto &[Site, Checks] : typestateChecksBySite(B, Pt)) {
      typestate::TypestateAnalysis A(B.P, Spec, AllocId(Site), Pt);
      tracer::QueryDriver<typestate::TypestateAnalysis> D(B.P, A);
      D.run(Checks);
      expectTableMatchesFreshWps(
          B.P, A, B.Config.Name + " site " + std::to_string(Site), Counts);
    }
    EXPECT_GT(Counts.Negative, 0u) << B.Config.Name;
    EXPECT_GT(Counts.Identities, 0u) << B.Config.Name;
    EXPECT_GT(Counts.Entries, Counts.Identities) << B.Config.Name;
  }
}

/// The event trace at \p Path with every wall-clock "seconds" value
/// zeroed; everything else in it is deterministic.
std::string scrubbedTrace(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string S = Buf.str();
  const std::string Key = "\"seconds\":";
  for (size_t At = S.find(Key); At != std::string::npos;
       At = S.find(Key, At + Key.size() + 1)) {
    size_t End = At + Key.size();
    while (End < S.size() && S[End] != ',' && S[End] != '}')
      ++End;
    S.replace(At + Key.size(), End - (At + Key.size()), 1, '0');
  }
  return S;
}

/// Runs a driver over \p Checks twice on the same analysis - first against
/// a cold wp table, then against the table the first run filled - at 1 and
/// 8 worker threads. Each run gets a fresh driver, so only the table is
/// warm (a reused driver would also hit its forward-run cache). Outcomes
/// and event-trace bytes must be identical, and the warm run must build no
/// wp at all.
template <typename Analysis>
void expectWarmTableChangesNothing(const Program &P, const Analysis &A,
                                   const std::vector<CheckId> &Checks,
                                   const std::string &Where) {
  auto &Misses = support::MetricRegistry::global().counter(
      "optabs_wp_table_misses_total");
  support::setMetricsEnabled(true);
  for (unsigned Threads : {1u, 8u}) {
    SCOPED_TRACE(Where + " threads " + std::to_string(Threads));
    A.wpTable().clear();
    std::vector<tracer::QueryOutcome> Out[2];
    std::string Trace[2];
    uint64_t Built[2];
    for (int Run = 0; Run < 2; ++Run) {
      std::string Path = ::testing::TempDir() + "wptable_" +
                         std::to_string(Threads) + "_" +
                         std::to_string(Run) + ".jsonl";
      std::remove(Path.c_str());
      Config O;
      O.Execution.NumThreads = Threads;
      O.Observability.EventTracePath = Path;
      uint64_t Before = Misses.value();
      tracer::QueryDriver<Analysis> D(P, A, O);
      Out[Run] = D.run(Checks);
      Built[Run] = Misses.value() - Before;
      Trace[Run] = scrubbedTrace(Path);
      std::remove(Path.c_str());
    }
    EXPECT_GT(Built[0], 0u);
    EXPECT_EQ(Built[1], 0u);
    ASSERT_EQ(Out[0].size(), Out[1].size());
    for (size_t I = 0; I < Out[0].size(); ++I) {
      EXPECT_EQ(Out[0][I].V, Out[1][I].V);
      EXPECT_EQ(Out[0][I].Iterations, Out[1][I].Iterations);
      EXPECT_EQ(Out[0][I].CheapestCost, Out[1][I].CheapestCost);
      EXPECT_EQ(Out[0][I].CheapestParam, Out[1][I].CheapestParam);
    }
    EXPECT_FALSE(Trace[0].empty());
    EXPECT_EQ(Trace[0], Trace[1]);
  }
  support::setMetricsEnabled(false);
}

TEST(SharedWpTable, WarmTableChangesNoEscapeOutcomeOrTraceByte) {
  synth::Benchmark B = synth::generate(synth::paperSuite()[0]);
  escape::EscapeAnalysis A(B.P);
  expectWarmTableChangesNothing(B.P, A, B.EscChecks, B.Config.Name);
}

TEST(SharedWpTable, WarmTableChangesNoTypestateOutcomeOrTraceByte) {
  synth::Benchmark B = synth::generate(synth::paperSuite()[0]);
  pointer::PointsToResult Pt = pointer::runPointsTo(B.P);
  typestate::TypestateSpec Spec = typestate::TypestateSpec::stress();
  auto BySite = typestateChecksBySite(B, Pt);
  ASSERT_FALSE(BySite.empty());
  // The site with the most queries, so the runs take several rounds.
  auto Most = BySite.begin();
  for (auto It = BySite.begin(); It != BySite.end(); ++It)
    if (It->second.size() > Most->second.size())
      Most = It;
  typestate::TypestateAnalysis A(B.P, Spec, AllocId(Most->first), Pt);
  expectWarmTableChangesNothing(B.P, A, Most->second,
                                B.Config.Name + " site " +
                                    std::to_string(Most->first));
}

//===----------------------------------------------------------------------===//
// The backward step
//===----------------------------------------------------------------------===//

/// Every parameter atom of \p A: escape's h.L / h.E, type-state's param(x).
std::vector<formula::AtomId> paramAtoms(const Program &P,
                                        const escape::EscapeAnalysis &) {
  std::vector<formula::AtomId> Atoms;
  for (uint32_t H = 0; H < P.numAllocs(); ++H)
    for (escape::AbsVal O : {escape::AbsVal::L, escape::AbsVal::E})
      Atoms.push_back(escape::EscapeAnalysis::atomSite(AllocId(H), O));
  return Atoms;
}
std::vector<formula::AtomId>
paramAtoms(const Program &P, const typestate::TypestateAnalysis &) {
  std::vector<formula::AtomId> Atoms;
  for (uint32_t V = 0; V < P.numVars(); ++V)
    Atoms.push_back(typestate::TypestateAnalysis::atomParam(VarId(V)));
  return Atoms;
}

/// The table wp of every parameter literal, both polarities, across every
/// command of \p P is exactly that literal.
template <typename Analysis>
void expectParamLiteralsAreIdentities(const Program &P, const Analysis &A,
                                      const std::string &Where) {
  meta::WpTable::Reader Table(A.wpTable());
  auto Name = [&A](formula::AtomId X) { return A.atomName(X); };
  size_t Checked = 0;
  for (uint32_t Cmd = 0; Cmd < P.numCommands(); ++Cmd) {
    const Command &C = P.command(CommandId(Cmd));
    for (formula::AtomId X : paramAtoms(P, A)) {
      ASSERT_TRUE(A.isParamAtom(X)) << Where << ": " << A.atomName(X);
      for (formula::Lit L : {formula::Lit::pos(X), formula::Lit::neg(X)}) {
        const formula::Dnf &Wp =
            Table.lookup(Cmd, L, [&] { return freshWp(A, C, L); });
        EXPECT_TRUE(Wp == formula::Dnf::singleLit(L))
            << Where << " command " << Cmd << ": wp of "
            << formula::Dnf::singleLit(L).toString(Name) << " is "
            << Wp.toString(Name);
        ++Checked;
      }
    }
  }
  EXPECT_GT(Checked, 0u) << Where;
}

TEST(BackwardStep, ParameterLiteralsAreTheirOwnWp) {
  typestate::TypestateSpec Spec = typestate::TypestateSpec::stress();
  for (size_t I = 0; I < 2; ++I) {
    synth::Benchmark B = synth::generate(synth::paperSuite()[I]);
    escape::EscapeAnalysis Esc(B.P);
    expectParamLiteralsAreIdentities(B.P, Esc, B.Config.Name + " escape");
    pointer::PointsToResult Pt = pointer::runPointsTo(B.P);
    auto BySite = typestateChecksBySite(B, Pt);
    EXPECT_FALSE(BySite.empty()) << B.Config.Name;
    for (const auto &Entry : BySite) {
      typestate::TypestateAnalysis Ts(B.P, Spec, AllocId(Entry.first), Pt);
      expectParamLiteralsAreIdentities(
          B.P, Ts,
          B.Config.Name + " typestate site " + std::to_string(Entry.first));
    }
  }
}

namespace oracle {

/// What the oracle saw on the way, to show which paths a sweep ran.
struct StepPaths {
  size_t SoftCapped = 0; ///< products whose cross size exceeded the cap
  size_t OverCap = 0;    ///< pruned products still over the cap when minimal
  size_t BailedOut = 0;  ///< results over the hard cap
  size_t Normalised = 0; ///< steps in the semanticNormalize tier
  size_t Minimised = 0;  ///< steps in the sortBySize + simplify tier
  size_t SortOnly = 0;   ///< steps in the sortBySize tier
  /// The ways step() itself built its products, from its BackwardStats:
  /// chains of two or more multi-cube wps carried as minimal cubes,
  /// counted chains soft-capped before another product, counted chains
  /// taking over from a pruned literal prefix, steps that passed
  /// NormalizeCap after building earlier source cubes literally, and
  /// steps past SimplifyCap that rebuilt their chains.
  size_t MinimalChains = 0;
  size_t PrunedChains = 0;
  size_t ResumedChains = 0;
  size_t CrossedSteps = 0;
  size_t Rebuilds = 0;
};

/// Dnf::productInto as it was when it took the soft cap: the full cross
/// product, and past \p SoftCap its sorted minimal cubes cut to the
/// SoftCap-1 shortest plus the shortest satisfied one (or the SoftCap-th).
void productInto(formula::Dnf &Result, const formula::Dnf &A,
                 const formula::Dnf &B, size_t SoftCap,
                 const formula::AtomEval &Eval, support::InvariantSink *Sink,
                 support::BudgetGate *Gate, StepPaths &Paths) {
  using formula::Cube;
  Result = formula::Dnf();
  if (!formula::Dnf::chargeProduct(A.size() * B.size(), Sink, Gate))
    return;
  std::vector<Cube> Cubes;
  for (const Cube &CA : A.cubes())
    for (const Cube &CB : B.cubes())
      if (auto C = Cube::conjoin(CA, CB))
        Cubes.push_back(std::move(*C));
  Result = formula::Dnf::fromCubes(std::move(Cubes));
  if (SoftCap == 0 || Result.size() <= SoftCap)
    return;
  Result.sortBySize();
  Result.simplify();
  if (Result.size() <= SoftCap)
    return;
  ++Paths.OverCap;
  std::vector<Cube> Kept(Result.cubes().begin(),
                         Result.cubes().begin() + (SoftCap - 1));
  bool HaveSatisfied = false;
  for (const Cube &C : Kept)
    HaveSatisfied = HaveSatisfied || C.eval(Eval);
  size_t Extra = SoftCap - 1;
  for (size_t I = SoftCap - 1; !HaveSatisfied && I < Result.size(); ++I) {
    if (Result.cubes()[I].eval(Eval)) {
      Extra = I;
      HaveSatisfied = true;
    }
  }
  Kept.push_back(Result.cubes()[Extra]);
  Result = formula::Dnf::fromCubes(std::move(Kept));
}

/// wpFormula as it was before the parameter frame: every literal's wp,
/// parameter literals included, looked up in the table and multiplied into
/// the running product one at a time through the capped productInto,
/// smallest first (a stable insertion sort by size).
template <typename Analysis>
std::optional<formula::Dnf>
wpFormula(meta::WpTable::Reader &Table, const Analysis &A, CommandId CmdId,
          const Command &Cmd, const formula::Dnf &F,
          const meta::BackwardConfig &Config,
          const formula::AtomEval &PreEval, support::BudgetGate *Gate,
          StepPaths &Paths) {
  auto WpLit = [&](formula::Lit L) -> const formula::Dnf & {
    return Table.lookup(CmdId.index(), L, [&] { return freshWp(A, Cmd, L); });
  };
  formula::Dnf Result;
  std::vector<const formula::Dnf *> WpOrder;
  formula::Dnf ProductBuf[2];
  const formula::Dnf TrueDnf = formula::Dnf::constTrue();
  for (const formula::Cube &Cube : F.cubes()) {
    WpOrder.clear();
    for (formula::Lit L : Cube.literals()) {
      const formula::Dnf *Wp = &WpLit(L);
      size_t At = WpOrder.size();
      WpOrder.push_back(Wp);
      for (; At > 0 && Wp->size() < WpOrder[At - 1]->size(); --At)
        WpOrder[At] = WpOrder[At - 1];
      WpOrder[At] = Wp;
    }
    const formula::Dnf *CubeWp = &TrueDnf;
    for (const formula::Dnf *Wp : WpOrder) {
      formula::Dnf &Next =
          CubeWp == &ProductBuf[0] ? ProductBuf[1] : ProductBuf[0];
      if (Config.ProductSoftCap > 0 &&
          CubeWp->size() * Wp->size() > Config.ProductSoftCap)
        ++Paths.SoftCapped;
      productInto(Next, *CubeWp, *Wp, Config.ProductSoftCap, PreEval,
                  Config.Invariants, Gate, Paths);
      CubeWp = &Next;
      if (Gate && Gate->exhausted())
        return std::nullopt;
      if (Config.HardCubeCap > 0 &&
          Result.size() + CubeWp->size() > Config.HardCubeCap) {
        ++Paths.BailedOut;
        return std::nullopt;
      }
      if (CubeWp->isFalse())
        break;
    }
    Result.orWith(*CubeWp);
  }
  return Result;
}

/// The step as it was: wpFormula's cubes, normalised by the tier their
/// count picks.
template <typename Analysis>
std::optional<formula::Dnf>
step(meta::WpTable::Reader &Table, const Analysis &A, CommandId CmdId,
     const Command &Cmd, const formula::Dnf &F,
     const meta::BackwardConfig &Config, const formula::AtomEval &PreEval,
     support::BudgetGate *Gate, StepPaths &Paths) {
  std::optional<formula::Dnf> Wp =
      wpFormula(Table, A, CmdId, Cmd, F, Config, PreEval, Gate, Paths);
  if (!Wp)
    return std::nullopt;
  if (Wp->size() <= Config.NormalizeCap) {
    ++Paths.Normalised;
    formula::semanticNormalize(
        *Wp, [&A](const formula::Cube &C) { return A.refineCube(C); },
        [&A](formula::AtomId X) { return A.atomLocation(X); });
  } else if (Wp->size() <= Config.SimplifyCap) {
    ++Paths.Minimised;
    Wp->sortBySize();
    Wp->simplify();
  } else {
    ++Paths.SortOnly;
    Wp->sortBySize();
  }
  return Wp;
}

} // namespace oracle

/// State atoms of \p A that command \p C names, and every state atom.
std::pair<std::vector<formula::AtomId>, std::vector<formula::AtomId>>
stateAtoms(const Program &P, const escape::EscapeAnalysis &,
           const Command &C) {
  using escape::AbsVal;
  using escape::EscapeAnalysis;
  std::vector<formula::AtomId> Local, All;
  for (AbsVal O : {AbsVal::N, AbsVal::L, AbsVal::E}) {
    for (VarId V : {C.Dst, C.Src})
      if (V.index() < P.numVars())
        Local.push_back(EscapeAnalysis::atomVar(V, O));
    if (C.Field.index() < P.numFields())
      Local.push_back(EscapeAnalysis::atomField(C.Field, O));
    for (uint32_t V = 0; V < P.numVars(); ++V)
      All.push_back(EscapeAnalysis::atomVar(VarId(V), O));
    for (uint32_t Fd = 0; Fd < P.numFields(); ++Fd)
      All.push_back(EscapeAnalysis::atomField(FieldId(Fd), O));
  }
  return {Local, All};
}
std::pair<std::vector<formula::AtomId>, std::vector<formula::AtomId>>
stateAtoms(const Program &P, const typestate::TypestateAnalysis &,
           const Command &C) {
  using typestate::TypestateAnalysis;
  // The stress property's automaton has the one state init.
  std::vector<formula::AtomId> Local{TypestateAnalysis::atomType(0)},
      All{TypestateAnalysis::atomErr(), TypestateAnalysis::atomType(0)};
  for (VarId V : {C.Dst, C.Src})
    if (V.index() < P.numVars())
      Local.push_back(TypestateAnalysis::atomVar(V));
  for (uint32_t V = 0; V < P.numVars(); ++V)
    All.push_back(TypestateAnalysis::atomVar(VarId(V)));
  return {Local, All};
}

/// A random formula shaped like the backward pass's: a few cubes, each
/// mostly parameter literals, plus state literals that \p Cmd often
/// changes.
template <typename Analysis>
formula::Dnf randomStepFormula(const Program &P, const Analysis &A,
                               const Command &Cmd, Prng &Rng) {
  std::vector<formula::AtomId> Params = paramAtoms(P, A);
  auto [Local, All] = stateAtoms(P, A, Cmd);
  auto Pick = [&Rng](const std::vector<formula::AtomId> &From) {
    formula::AtomId X = From[Rng.nextBelow(From.size())];
    return Rng.chance(1, 3) ? formula::Lit::neg(X) : formula::Lit::pos(X);
  };
  std::vector<formula::Cube> Cubes;
  for (unsigned I = 0, N = 1 + Rng.nextBelow(5); I < N; ++I) {
    std::vector<formula::Lit> Lits;
    for (unsigned J = 0, E = Rng.nextBelow(24); J < E; ++J)
      Lits.push_back(Pick(Params));
    for (unsigned J = 0, E = Rng.nextBelow(5); J < E; ++J)
      Lits.push_back(Pick(Local.empty() || Rng.chance(1, 3) ? All : Local));
    if (auto C = formula::Cube::make(std::move(Lits)))
      Cubes.push_back(std::move(*C));
  }
  return formula::Dnf::fromCubes(std::move(Cubes));
}

/// Over random formulas on every client command of \p P: step() returns
/// the oracle's cubes in the oracle's order and charges the gate the same
/// units; with a step budget below that charge, or a fault armed part-way,
/// both trip at the same unit.
template <typename Analysis>
void expectStepMatchesOracle(const Program &P, const Analysis &A,
                             const meta::BackwardConfig &Config, Prng &Rng,
                             oracle::StepPaths &Paths,
                             const std::string &Where) {
  meta::BackwardMetaAnalysis<Analysis> Bwd(P, A, Config);
  meta::WpTable::Reader Table(A.wpTable());
  auto Name = [&A](formula::AtomId X) { return A.atomName(X); };
  for (uint32_t CI = 0; CI < P.numCommands(); ++CI) {
    CommandId CmdId(CI);
    const Command &Cmd = P.command(CmdId);
    if (!isClientCommand(Cmd.Kind))
      continue; // expanded by the engine, never on a trace
    for (int Round = 0; Round < 6; ++Round) {
      formula::Dnf F = randomStepFormula(P, A, Cmd, Rng);
      uint64_t Salt = Rng.next();
      formula::AtomEval PreEval = [Salt](formula::AtomId X) {
        return ((X * 0x9e3779b97f4a7c15ULL + Salt) >> 61) & 1;
      };
      support::BudgetGate WantGate("backward.step");
      support::BudgetGate GotGate("backward.step");
      auto Want = oracle::step(Table, A, CmdId, Cmd, F, Config, PreEval,
                               &WantGate, Paths);
      auto Got = Bwd.step(CmdId, Cmd, F, PreEval, &GotGate);
      auto At = [&] {
        return Where + " command " + std::to_string(CI) + " formula " +
               F.toString(Name);
      };
      ASSERT_EQ(Want.has_value(), Got.has_value()) << At();
      ASSERT_EQ(WantGate.stepsUsed(), GotGate.stepsUsed()) << At();
      if (Want) {
        ASSERT_TRUE(*Want == *Got)
            << At() << "\n oracle " << Want->toString(Name) << "\n got    "
            << Got->toString(Name);
      }
      if (WantGate.stepsUsed() < 2)
        continue;
      // A budget that runs out part-way through the step trips both.
      uint64_t Limit = Rng.nextBelow(WantGate.stepsUsed());
      support::BudgetGate WantShort("backward.step", Limit);
      support::BudgetGate GotShort("backward.step", Limit);
      Want = oracle::step(Table, A, CmdId, Cmd, F, Config, PreEval,
                          &WantShort, Paths);
      Got = Bwd.step(CmdId, Cmd, F, PreEval, &GotShort);
      ASSERT_EQ(Want.has_value(), Got.has_value()) << At();
      ASSERT_EQ(WantShort.exhausted(), GotShort.exhausted()) << At();
      ASSERT_EQ(WantShort.stepsUsed(), GotShort.stepsUsed()) << At();
      // So does a fault armed at the N-th hit of either site the step
      // consults: every product charge hits dnf.product, every gate
      // charge backward.step. Every wp is in the table by now, so no
      // toDnf on a miss hits dnf.product in between.
      std::string Spec =
          std::string(Rng.chance(1, 2) ? "dnf.product" : "backward.step") +
          ":cancel@" + std::to_string(1 + Rng.nextBelow(6));
      support::BudgetGate WantFault("backward.step");
      support::BudgetGate GotFault("backward.step");
      std::string Err;
      ASSERT_TRUE(support::FaultRegistry::global().arm(Spec, Err)) << Err;
      Want = oracle::step(Table, A, CmdId, Cmd, F, Config, PreEval,
                          &WantFault, Paths);
      support::FaultRegistry::global().disarm();
      ASSERT_TRUE(support::FaultRegistry::global().arm(Spec, Err)) << Err;
      Got = Bwd.step(CmdId, Cmd, F, PreEval, &GotFault);
      support::FaultRegistry::global().disarm();
      ASSERT_EQ(Want.has_value(), Got.has_value()) << Spec << " " << At();
      ASSERT_EQ(WantFault.exhausted(), GotFault.exhausted())
          << Spec << " " << At();
      ASSERT_EQ(WantFault.stepsUsed(), GotFault.stepsUsed())
          << Spec << " " << At();
    }
  }
  Paths.MinimalChains += Bwd.stats().MinimalChains;
  Paths.PrunedChains += Bwd.stats().PrunedChains;
  Paths.ResumedChains += Bwd.stats().ResumedChains;
  Paths.CrossedSteps += Bwd.stats().CrossedSteps;
  Paths.Rebuilds += Bwd.stats().Rebuilds;
}

TEST(BackwardStep, StepMatchesTheNormalisedLiteralByLiteralProduct) {
  meta::BackwardConfig Defaults;
  meta::BackwardConfig Small;
  Small.ProductSoftCap = 8;
  Small.HardCubeCap = 24;
  meta::BackwardConfig Tiers;
  Tiers.ProductSoftCap = 8;
  Tiers.NormalizeCap = 4;
  Tiers.SimplifyCap = 16;
  // A soft cap below the room under NormalizeCap prunes inside a chain's
  // literal prefix, before the count takes over.
  meta::BackwardConfig Prefix;
  Prefix.ProductSoftCap = 8;
  Prefix.NormalizeCap = 48;
  oracle::StepPaths DefaultPaths, SmallPaths, TierPaths, PrefixPaths;
  Prng Rng(0x57E9);
  for (const synth::BenchConfig &Config : witness_fixture::configs()) {
    synth::Benchmark B = synth::generate(Config);
    witness_fixture::forEachClient(
        B, [&](const std::string &Client, const auto &A,
               const std::vector<CheckId> &) {
          expectStepMatchesOracle(B.P, A, Defaults, Rng, DefaultPaths,
                                  Config.Name + " " + Client + " default");
          expectStepMatchesOracle(B.P, A, Small, Rng, SmallPaths,
                                  Config.Name + " " + Client + " small");
          expectStepMatchesOracle(B.P, A, Tiers, Rng, TierPaths,
                                  Config.Name + " " + Client + " tiers");
          expectStepMatchesOracle(B.P, A, Prefix, Rng, PrefixPaths,
                                  Config.Name + " " + Client + " prefix");
        });
  }
  // The small caps ran the pruning and the bail-out paths; the tier caps
  // ran every normalisation tier and a prune whose minimal cubes still
  // exceeded the cap. The tier caps also ran each way step() builds past
  // NormalizeCap: a chain of multi-cube wps on minimal cubes, a counted
  // chain pruned before another product, a step crossing the cap after
  // literal source cubes, and the rebuild past SimplifyCap. The prefix
  // caps ran counted chains that took over from a pruned literal prefix,
  // counting on from its running cubes.
  EXPECT_GT(SmallPaths.SoftCapped, 0u);
  EXPECT_GT(SmallPaths.BailedOut, 0u);
  EXPECT_GT(TierPaths.Normalised, 0u);
  EXPECT_GT(TierPaths.Minimised, 0u);
  EXPECT_GT(TierPaths.SortOnly, 0u);
  EXPECT_GT(TierPaths.OverCap, 0u);
  EXPECT_GT(TierPaths.MinimalChains, 0u);
  EXPECT_GT(TierPaths.PrunedChains, 0u);
  EXPECT_GT(TierPaths.CrossedSteps, 0u);
  EXPECT_GT(TierPaths.Rebuilds, 0u);
  EXPECT_GT(PrefixPaths.ResumedChains, 0u);
  for (const auto &[Name, Paths] :
       {std::pair<const char *, oracle::StepPaths *>{"default", &DefaultPaths},
        {"small", &SmallPaths},
        {"tiers", &TierPaths},
        {"prefix", &PrefixPaths}})
    std::printf("step builds, %s caps: %zu minimal chains, %zu pruned before "
                "a product, %zu resumed after a prefix prune, %zu crossed, "
                "%zu rebuilt\n",
                Name, Paths->MinimalChains, Paths->PrunedChains,
                Paths->ResumedChains, Paths->CrossedSteps, Paths->Rebuilds);
  std::printf("step paths: default %zu/%zu/%zu tiers, small %zu soft-capped "
              "%zu bailed out, tiers %zu/%zu/%zu with %zu over the cap\n",
              DefaultPaths.Normalised, DefaultPaths.Minimised,
              DefaultPaths.SortOnly, SmallPaths.SoftCapped,
              SmallPaths.BailedOut, TierPaths.Normalised,
              TierPaths.Minimised, TierPaths.SortOnly, TierPaths.OverCap);
}

/// A random formula over atoms 0..5, and the evaluator of a mask over them.
formula::Dnf randomSmallDnf(Prng &Rng) {
  std::vector<formula::Cube> Cubes;
  for (unsigned I = 0, N = 1 + Rng.nextBelow(6); I < N; ++I) {
    std::vector<formula::Lit> Lits;
    for (unsigned J = 0, Len = Rng.nextBelow(4); J < Len; ++J) {
      formula::AtomId X = static_cast<formula::AtomId>(Rng.nextBelow(6));
      Lits.push_back(Rng.chance(1, 3) ? formula::Lit::neg(X)
                                      : formula::Lit::pos(X));
    }
    if (auto C = formula::Cube::make(std::move(Lits)))
      Cubes.push_back(std::move(*C));
  }
  return formula::Dnf::fromCubes(std::move(Cubes));
}
formula::AtomEval evalOfMask(unsigned Mask) {
  return [Mask](formula::AtomId X) { return X < 6 && ((Mask >> X) & 1); };
}

TEST(BackwardStep, ChainCounterCountsTheLiteralChain) {
  // Random chains over atoms 0..5, so that many cubes contradict: the
  // counter's sizes are those of the products it stands for, running
  // cube major with duplicates kept, up to the first level whose size
  // reaches the limit, and that level's size does reach it.
  Prng Rng(0xC0DE);
  meta::ChainCounter Counter;
  std::vector<size_t> Counts;
  size_t Stopped = 0, Ran = 0;
  for (int Round = 0; Round < 400; ++Round) {
    formula::Dnf Base = randomSmallDnf(Rng);
    std::vector<formula::Cube> Cubes;
    std::vector<size_t> Ends;
    std::vector<formula::Dnf> Levels;
    for (unsigned J = 0, N = 1 + Rng.nextBelow(4); J < N; ++J) {
      Levels.push_back(Rng.chance(1, 8) ? formula::Dnf() : randomSmallDnf(Rng));
      for (const formula::Cube &C : Levels.back().cubes())
        Cubes.push_back(C);
      Ends.push_back(Cubes.size());
    }
    size_t First = Rng.nextBelow(Levels.size());
    size_t Limit = Rng.chance(1, 2) ? SIZE_MAX : 1 + Rng.nextBelow(40);
    size_t Over = Counter.count(Base.cubes().data(), Base.size(), Cubes,
                                Ends, First, Limit, Counts);
    ASSERT_EQ(Counts.size(), Levels.size());
    formula::Dnf Product = Base;
    for (size_t J = First; J < Levels.size(); ++J) {
      Product = formula::Dnf::product(Product, Levels[J]);
      if (J < Over) {
        ASSERT_EQ(Counts[J], Product.size()) << "round " << Round;
        ASSERT_LT(Counts[J], Limit);
        ++Ran;
      } else {
        ASSERT_GE(Product.size(), Limit) << "round " << Round;
        ++Stopped;
        break;
      }
    }
  }
  EXPECT_GT(Ran, 0u);
  EXPECT_GT(Stopped, 0u);
}

TEST(BackwardStep, SoftCapPruneUnderApproximatesAndKeepsJointWitness) {
  // A product of two random formulas, pruned to 2 cubes under a frame
  // over atom 7, which every mask reads false: the frame !a7 holds at the
  // witness, so a satisfied cube must survive; under the frame a7 none
  // holds, and the prune keeps the 2 shortest.
  Prng Rng(0xCA99);
  size_t Pruned = 0;
  for (int Round = 0; Round < 500; ++Round) {
    formula::Dnf A = randomSmallDnf(Rng), B = randomSmallDnf(Rng);
    std::optional<unsigned> Witness;
    for (unsigned Mask = 0; Mask < 64 && !Witness; ++Mask)
      if (A.eval(evalOfMask(Mask)) && B.eval(evalOfMask(Mask)))
        Witness = Mask;
    if (!Witness)
      continue;
    for (bool FrameHolds : {true, false}) {
      formula::Lit FrameLit =
          FrameHolds ? formula::Lit::neg(7) : formula::Lit::pos(7);
      formula::Cube Frame = *formula::Cube::make({FrameLit});
      support::InvariantSink Sink;
      std::vector<formula::Cube> Cubes =
          formula::Dnf::product(A, B).takeCubes();
      Pruned += Cubes.size() > 2;
      meta::pruneToSoftCap(Cubes, 2, Frame, evalOfMask(*Witness), &Sink);
      ASSERT_LE(Cubes.size(), 2u);
      EXPECT_EQ(Sink.count(), 0u);
      // The kept cubes stand for themselves under the frame, which no
      // cube mentions: they under-approximate A /\ B, and keep the
      // witness whenever the frame holds there.
      formula::Dnf P = formula::Dnf::fromCubes(std::move(Cubes));
      for (unsigned Mask = 0; Mask < 64; ++Mask) {
        if (P.eval(evalOfMask(Mask))) {
          ASSERT_TRUE(A.eval(evalOfMask(Mask)) && B.eval(evalOfMask(Mask)));
        }
      }
      if (FrameHolds) {
        EXPECT_TRUE(P.eval(evalOfMask(*Witness))) << "round " << Round;
      }
    }
  }
  EXPECT_GT(Pruned, 0u);
}

} // namespace
