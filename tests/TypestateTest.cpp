//===- TypestateTest.cpp - Unit tests for the type-state client --------------===//

#include "typestate/Typestate.h"

#include "ir/Parser.h"
#include "pointer/PointsTo.h"
#include "support/Prng.h"
#include "synth/Generator.h"
#include "typestate/Properties.h"

#include "gtest/gtest.h"

namespace {

using namespace optabs::ir;
using namespace optabs::typestate;
using optabs::BitSet;
using optabs::Prng;
using optabs::formula::AtomId;
using optabs::formula::Formula;

Program parse(const char *Src) {
  Program P;
  std::string Error;
  bool Ok = parseProgram(Src, P, Error);
  EXPECT_TRUE(Ok) << Error;
  return P;
}

/// The File property of Figure 1: closed (init) <-> opened; open() on
/// opened and close() on closed are errors.
TypestateSpec fileSpec(Program &P) {
  TypestateSpec Spec("closed");
  uint32_t Closed = 0;
  uint32_t Opened = Spec.addState("opened");
  MethodId Open = P.makeMethod("open");
  MethodId Close = P.makeMethod("close");
  Spec.addTransition(Open, Closed, Opened);
  Spec.addErrorTransition(Open, Opened);
  Spec.addTransition(Close, Opened, Closed);
  Spec.addErrorTransition(Close, Closed);
  return Spec;
}

TsParam paramOf(const Program &P, std::initializer_list<const char *> Vars) {
  TsParam Prm;
  Prm.Tracked = BitSet(P.numVars());
  for (const char *Name : Vars) {
    VarId V = P.findVar(Name);
    EXPECT_TRUE(V.isValid()) << Name;
    Prm.Tracked.set(V.index());
  }
  return Prm;
}

struct Fixture {
  Program P;
  std::unique_ptr<TypestateSpec> Spec;
  std::unique_ptr<optabs::pointer::PointsToResult> Pt;
  std::unique_ptr<TypestateAnalysis> A;

  explicit Fixture(const char *Src, bool Stress = false) {
    P = parse(Src);
    Spec = std::make_unique<TypestateSpec>(
        Stress ? TypestateSpec::stress() : fileSpec(P));
    Pt = std::make_unique<optabs::pointer::PointsToResult>(
        optabs::pointer::runPointsTo(P));
    A = std::make_unique<TypestateAnalysis>(P, *Spec, P.findAlloc("h1"),
                                            *Pt);
  }

  const Command &cmd(uint32_t I) const { return P.command(CommandId(I)); }
};

const char *Fig1Src = R"(
  proc main {
    x = new h1;
    y = x;
    if { z = x; }
    x.open();
    y.close();
    choice { check(x, closed); } or { check(x, opened); }
  }
)";

TEST(TypestateSpec, AutomatonLookup) {
  Program P;
  TypestateSpec Spec = fileSpec(P);
  MethodId Open = P.makeMethod("open");
  MethodId Close = P.makeMethod("close");
  EXPECT_EQ(Spec.apply(Open, 0), std::optional<uint32_t>(1));
  EXPECT_EQ(Spec.apply(Open, 1), std::nullopt);
  EXPECT_EQ(Spec.apply(Close, 1), std::optional<uint32_t>(0));
  EXPECT_EQ(Spec.apply(Close, 0), std::nullopt);
  // Unknown methods keep the state.
  MethodId Other = P.makeMethod("read");
  EXPECT_EQ(Spec.apply(Other, 0), std::optional<uint32_t>(0));
  EXPECT_EQ(Spec.findState("opened"), std::optional<uint32_t>(1));
  EXPECT_FALSE(Spec.findState("nope").has_value());
}

TEST(Typestate, TransferFollowsFigure4) {
  Fixture F(Fig1Src);
  TsParam Full = paramOf(F.P, {"x", "y", "z"});
  AbsState D = F.A->initialState();
  EXPECT_EQ(D.Ts, 1u);
  EXPECT_TRUE(D.Vs.empty());

  // x = new h1: vs = {x} (tracked by p).
  D = F.A->transfer(F.cmd(0), D, Full);
  EXPECT_EQ(D.Vs.size(), 1u);
  // y = x: vs = {x, y}.
  D = F.A->transfer(F.cmd(1), D, Full);
  EXPECT_EQ(D.Vs.size(), 2u);
  // x.open(): strong update, ts = {opened}.
  AbsState AfterOpen = F.A->transfer(F.cmd(3), D, Full);
  EXPECT_EQ(AfterOpen.Ts, 2u);
  EXPECT_FALSE(AfterOpen.Top);
  // y.close() on opened: back to closed.
  AbsState AfterClose = F.A->transfer(F.cmd(4), AfterOpen, Full);
  EXPECT_EQ(AfterClose.Ts, 1u);
  // y.close() on closed: error.
  AbsState Err = F.A->transfer(F.cmd(4), AfterClose, Full);
  EXPECT_TRUE(Err.Top);
  // TOP is absorbing.
  EXPECT_TRUE(F.A->transfer(F.cmd(0), Err, Full).Top);
}

TEST(Typestate, WeakUpdateWithoutMustAlias) {
  Fixture F(Fig1Src);
  TsParam Empty = paramOf(F.P, {});
  AbsState D = F.A->initialState();
  D = F.A->transfer(F.cmd(0), D, Empty); // x = new h1, x untracked
  EXPECT_TRUE(D.Vs.empty());
  // x.open() with x not in vs: weak update keeps closed and adds opened.
  AbsState After = F.A->transfer(F.cmd(3), D, Empty);
  EXPECT_EQ(After.Ts, 3u);
  // y.close() now errs: closed in ts and [close](closed) = TOP.
  EXPECT_TRUE(F.A->transfer(F.cmd(4), After, Empty).Top);
}

TEST(Typestate, CallOnUnrelatedReceiverIsIdentity) {
  Fixture F(R"(
    proc main {
      x = new h1;
      w = new h2;
      w.open();
      check(x, closed);
    }
  )");
  TsParam Full = paramOf(F.P, {"x", "w"});
  AbsState D = F.A->initialState();
  D = F.A->transfer(F.cmd(0), D, Full);
  // w.open(): w cannot point to h1, so the tracked object is unaffected.
  AbsState After = F.A->transfer(F.cmd(2), D, Full);
  EXPECT_EQ(After, D);
}

TEST(Typestate, UntrackedAllocationDropsMustAlias) {
  Fixture F(R"(
    proc main { x = new h1; x = new h2; check(x, closed); }
  )");
  TsParam Full = paramOf(F.P, {"x"});
  AbsState D = F.A->initialState();
  D = F.A->transfer(F.cmd(0), D, Full);
  EXPECT_EQ(D.Vs.size(), 1u);
  D = F.A->transfer(F.cmd(1), D, Full);
  EXPECT_TRUE(D.Vs.empty());
}

TEST(Typestate, StressModeErrsExactlyOnWeakCalls) {
  Fixture F(R"(
    proc main { x = new h1; y = x; y.work(); check(x, init); }
  )", /*Stress=*/true);
  TsParam Both = paramOf(F.P, {"x", "y"});
  TsParam JustX = paramOf(F.P, {"x"});
  AbsState D0 = F.A->initialState();
  AbsState D1 = F.A->transfer(F.cmd(0), D0, Both);
  AbsState D2 = F.A->transfer(F.cmd(1), D1, Both);
  EXPECT_FALSE(F.A->transfer(F.cmd(2), D2, Both).Top); // y in vs: precise
  AbsState E1 = F.A->transfer(F.cmd(0), D0, JustX);
  AbsState E2 = F.A->transfer(F.cmd(1), E1, JustX);
  EXPECT_TRUE(F.A->transfer(F.cmd(2), E2, JustX).Top); // weak: errs
}

//===----------------------------------------------------------------------===//
// Requirement (2) of the framework: gamma(wp(A)) = {(p,d) | A(p, [a]_p(d))},
// checked by property testing over random states, abstractions, commands.
//===----------------------------------------------------------------------===//

AbsState randomState(Prng &Rng, uint32_t NumVars, uint32_t NumTs) {
  AbsState D;
  if (Rng.chance(1, 8)) {
    D.Top = true;
    return D;
  }
  D.Ts = static_cast<uint32_t>(Rng.nextBelow(1u << NumTs));
  if (D.Ts == 0)
    D.Ts = 1;
  for (uint32_t V = 0; V < NumVars; ++V)
    if (Rng.chance(1, 3))
      D.Vs.push_back(V);
  return D;
}

void wpSoundnessProperty(const char *Src, bool Stress) {
  Fixture F(Src, Stress);
  Prng Rng(Stress ? 0xBEEF : 0xFEED);
  uint32_t NumTs = F.Spec->numStates();

  // All atoms of the domain (Figure 9).
  std::vector<AtomId> Atoms;
  Atoms.push_back(TypestateAnalysis::atomErr());
  for (uint32_t V = 0; V < F.P.numVars(); ++V) {
    Atoms.push_back(TypestateAnalysis::atomParam(VarId(V)));
    Atoms.push_back(TypestateAnalysis::atomVar(VarId(V)));
  }
  for (uint32_t S = 0; S < NumTs; ++S)
    Atoms.push_back(TypestateAnalysis::atomType(S));

  for (int Round = 0; Round < 300; ++Round) {
    TsParam Prm;
    Prm.Tracked = BitSet(F.P.numVars());
    for (uint32_t V = 0; V < F.P.numVars(); ++V)
      if (Rng.chance(1, 2))
        Prm.Tracked.set(V);
    AbsState D = randomState(Rng, F.P.numVars(), NumTs);
    for (uint32_t CI = 0; CI < F.P.numCommands(); ++CI) {
      const Command &Cmd = F.P.command(CommandId(CI));
      if (Cmd.Kind == CmdKind::Invoke)
        continue;
      AbsState Post = F.A->transfer(Cmd, D, Prm);
      for (AtomId A : Atoms) {
        bool PostHolds = F.A->evalAtom(A, Prm, Post);
        bool WpHolds = F.A->wpAtom(Cmd, A).eval([&](AtomId B) {
          return F.A->evalAtom(B, Prm, D);
        });
        ASSERT_EQ(WpHolds, PostHolds)
            << "cmd " << CI << " atom " << F.A->atomName(A) << " round "
            << Round;
      }
    }
  }
}

TEST(TypestateWp, SoundAndCompleteForAutomaton) {
  wpSoundnessProperty(R"(
    global g;
    proc main {
      x = new h1;
      w = new h2;
      y = x;
      y = null;
      y = g;
      y = x.f;
      x.f = y;
      g = x;
      x.open();
      y.close();
      w.open();
      assume(*);
      check(x, closed);
    }
  )", /*Stress=*/false);
}

TEST(TypestateWp, SoundAndCompleteForStress) {
  wpSoundnessProperty(R"(
    global g;
    proc main {
      x = new h1;
      w = new h2;
      y = x;
      y = null;
      y = g;
      y = x.f;
      x.f = y;
      x.work();
      y.work();
      w.work();
      check(x, init);
    }
  )", /*Stress=*/true);
}

//===----------------------------------------------------------------------===//
// The derived wp against the hand-written Figure 10 table it replaced.
//===----------------------------------------------------------------------===//

namespace oracle {
/// The hand-written TypestateAnalysis::wpAtom that the case lists replaced,
/// for the analysis of \p Tracked under \p Spec.
Formula wpAtom(const TypestateSpec &Spec, AllocId Tracked,
               const optabs::pointer::PointsToResult &Pt, const Command &Cmd,
               AtomId A) {
  enum { KErr = 0, KParam = 1, KVar = 2 };
  unsigned Kind = A & 3;
  uint32_t Payload = A >> 2;
  Formula Same = Formula::atom(A);
  AtomId Err = TypestateAnalysis::atomErr();

  if (Kind == KParam)
    return Same;

  switch (Cmd.Kind) {
  case CmdKind::Assume:
  case CmdKind::Check:
  case CmdKind::StoreGlobal:
  case CmdKind::StoreField:
    return Same;

  case CmdKind::New:
    if (Cmd.Alloc == Tracked) {
      if (Kind == KErr)
        return Same;
      if (Kind == KVar) {
        if (Payload != Cmd.Dst.index())
          return Formula::constant(false);
        return Formula::conj(
            {Formula::negAtom(Err),
             Formula::atom(TypestateAnalysis::atomParam(Cmd.Dst))});
      }
      if (Payload == 0)
        return Formula::negAtom(Err);
      return Same;
    }
    [[fallthrough]];
  case CmdKind::Null:
  case CmdKind::LoadGlobal:
  case CmdKind::LoadField:
    if (Kind == KVar && Payload == Cmd.Dst.index())
      return Formula::constant(false);
    return Same;

  case CmdKind::Copy:
    if (Kind == KVar && Payload == Cmd.Dst.index())
      return Formula::conj(
          {Formula::atom(TypestateAnalysis::atomVar(Cmd.Src)),
           Formula::atom(TypestateAnalysis::atomParam(Cmd.Dst))});
    return Same;

  case CmdKind::MethodCall: {
    if (!Pt.mayPoint(Cmd.Dst, Tracked))
      return Same;
    AtomId VarDst = TypestateAnalysis::atomVar(Cmd.Dst);
    if (Spec.isStress()) {
      if (Kind == KErr)
        return Formula::disj({Same, Formula::negAtom(VarDst)});
      return Formula::conj({Formula::atom(VarDst), Same});
    }
    std::vector<Formula> ErrSources;
    for (uint32_t S = 0; S < Spec.numStates(); ++S)
      if (Cmd.Method.isValid() && !Spec.apply(Cmd.Method, S))
        ErrSources.push_back(Formula::atom(TypestateAnalysis::atomType(S)));
    if (Kind == KErr)
      return Formula::disj(
          {Same, Formula::disj(std::vector<Formula>(ErrSources))});
    std::vector<Formula> NoErr;
    for (const Formula &F : ErrSources)
      NoErr.push_back(Formula::negate(F));
    if (Kind == KVar)
      return Formula::conj(
          {Same, Formula::conj(std::vector<Formula>(NoErr))});
    std::vector<Formula> Producers;
    for (uint32_t S = 0; S < Spec.numStates(); ++S)
      if (Spec.apply(Cmd.Method, S) == std::optional<uint32_t>(Payload))
        Producers.push_back(Formula::atom(TypestateAnalysis::atomType(S)));
    Formula Weak = Formula::conj({Formula::negAtom(VarDst), Same});
    return Formula::conj(
        {Formula::negAtom(Err), Formula::conj(std::move(NoErr)),
         Formula::disj({Formula::disj(std::move(Producers)), Weak})});
  }

  case CmdKind::Invoke:
    break;
  }
  ADD_FAILURE() << "Invoke has no wp";
  return Same;
}
} // namespace oracle

void collectAtoms(const Formula &F, std::vector<AtomId> &Atoms) {
  if (F.kind() == Formula::Kind::Literal) {
    if (std::find(Atoms.begin(), Atoms.end(), F.literal().atom()) ==
        Atoms.end())
      Atoms.push_back(F.literal().atom());
    return;
  }
  for (const Formula &Kid : F.children())
    collectAtoms(Kid, Atoms);
}

/// Checks the derived wp of every atom across every non-Invoke command of
/// \p P against the oracle, for the analysis of each site in \p Sites:
/// equal on every assignment to the atoms either formula mentions, and
/// equal cube for cube once converted to DNF, negated or not, as the
/// backward meta-analysis converts them.
void expectWpMatchesOracle(const Program &P, const TypestateSpec &Spec,
                             const optabs::pointer::PointsToResult &Pt,
                             const std::vector<uint32_t> &Sites) {
  std::vector<AtomId> Atoms{TypestateAnalysis::atomErr()};
  for (uint32_t V = 0; V < P.numVars(); ++V) {
    Atoms.push_back(TypestateAnalysis::atomParam(VarId(V)));
    Atoms.push_back(TypestateAnalysis::atomVar(VarId(V)));
  }
  for (uint32_t S = 0; S < Spec.numStates(); ++S)
    Atoms.push_back(TypestateAnalysis::atomType(S));

  for (uint32_t Site : Sites) {
    TypestateAnalysis A(P, Spec, AllocId(Site), Pt);
    for (uint32_t CI = 0; CI < P.numCommands(); ++CI) {
      const Command &Cmd = P.command(CommandId(CI));
      if (Cmd.Kind == CmdKind::Invoke)
        continue;
      for (AtomId At : Atoms) {
        Formula Got = A.wpAtom(Cmd, At);
        Formula Want = oracle::wpAtom(Spec, AllocId(Site), Pt, Cmd, At);
        std::vector<AtomId> Mentioned;
        collectAtoms(Got, Mentioned);
        collectAtoms(Want, Mentioned);
        ASSERT_LE(Mentioned.size(), 16u);
        for (uint32_t Bits = 0; Bits < (1u << Mentioned.size()); ++Bits) {
          auto Eval = [&](AtomId B) {
            size_t I = std::find(Mentioned.begin(), Mentioned.end(), B) -
                       Mentioned.begin();
            return ((Bits >> I) & 1) != 0;
          };
          ASSERT_EQ(Got.eval(Eval), Want.eval(Eval))
              << "site " << Site << " cmd " << CI << " atom "
              << A.atomName(At) << " assignment " << Bits;
        }
        ASSERT_EQ(Got.toDnf(), Want.toDnf())
            << "site " << Site << " cmd " << CI << " atom " << A.atomName(At);
        ASSERT_EQ(Formula::negate(Got).toDnf(), Formula::negate(Want).toDnf())
            << "site " << Site << " cmd " << CI << " !atom "
            << A.atomName(At);
      }
    }
  }
}

/// A sample of \p P's allocation sites: the first one a call's receiver
/// may point to, so that some call's case list depends on the site, and
/// the middle one.
std::vector<uint32_t> sampleSites(const Program &P,
                                  const optabs::pointer::PointsToResult &Pt) {
  std::vector<uint32_t> Sites;
  for (uint32_t CI = 0; CI < P.numCommands() && Sites.empty(); ++CI) {
    const Command &Cmd = P.command(CommandId(CI));
    if (Cmd.Kind == CmdKind::MethodCall)
      Pt.pointsTo(Cmd.Dst).forEach([&](size_t H) {
        if (Sites.empty())
          Sites.push_back(static_cast<uint32_t>(H));
      });
  }
  uint32_t Middle = P.numAllocs() / 2;
  if (Sites.empty() || Sites[0] != Middle)
    Sites.push_back(Middle);
  return Sites;
}

TEST(TypestateWp, DerivedMatchesHandWrittenOnFixtures) {
  Fixture Auto(Fig1Src);
  expectWpMatchesOracle(Auto.P, *Auto.Spec, *Auto.Pt,
                        {Auto.P.findAlloc("h1").index()});
  Fixture Stress(R"(
    proc main { x = new h1; y = x; y.work(); x = new h2; x.work(); }
  )", /*Stress=*/true);
  expectWpMatchesOracle(Stress.P, *Stress.Spec, *Stress.Pt, {0, 1});
}

TEST(TypestateWp, DerivedMatchesHandWrittenOnSuite) {
  // Every suite program under the stress property (the one the suite runs)
  // and under an automaton over the program's own methods, built so that
  // each method has transitions, error transitions and undeclared states.
  for (const optabs::synth::BenchConfig &Config :
       optabs::synth::paperSuite()) {
    optabs::synth::Benchmark B = optabs::synth::generate(Config);
    optabs::pointer::PointsToResult Pt = optabs::pointer::runPointsTo(B.P);
    std::vector<uint32_t> Sites = sampleSites(B.P, Pt);
    ASSERT_EQ(Sites.size(), 2u);
    std::string Err;
    std::optional<TypestateSpec> Stress = specFor("", B.P, Err);
    ASSERT_TRUE(Stress) << Err;
    expectWpMatchesOracle(B.P, *Stress, Pt, Sites);

    TypestateSpec Auto("s0");
    Auto.addState("s1");
    Auto.addState("s2");
    for (uint32_t M = 0; M < B.P.numMethods(); ++M) {
      Auto.addTransition(MethodId(M), M % 3, (M + 1) % 3);
      Auto.addErrorTransition(MethodId(M), (M + 1) % 3);
    }
    expectWpMatchesOracle(B.P, Auto, Pt, Sites);
    if (testing::Test::HasFatalFailure())
      return;
  }
}

TEST(Typestate, NotQForAutomatonChecks) {
  Fixture F(Fig1Src);
  // check(x, closed): err \/ type(opened)
  auto D0 = F.A->notQ(CheckId(0));
  EXPECT_EQ(D0.size(), 2u);
  AbsState Closed = F.A->initialState();
  TsParam Empty = paramOf(F.P, {});
  auto Eval = [&](const AbsState &D) {
    return [&, D](AtomId A) { return F.A->evalAtom(A, Empty, D); };
  };
  EXPECT_FALSE(D0.eval(Eval(Closed)));
  AbsState Opened = Closed;
  Opened.Ts = 2;
  EXPECT_TRUE(D0.eval(Eval(Opened)));
  AbsState Top;
  Top.Top = true;
  EXPECT_TRUE(D0.eval(Eval(Top)));
}

TEST(Typestate, ParamCodec) {
  Fixture F(Fig1Src);
  EXPECT_EQ(F.A->numParamBits(), F.P.numVars());
  VarId X = F.P.findVar("x");
  auto [Bit, Val] = F.A->decodeParamAtom(TypestateAnalysis::atomParam(X));
  EXPECT_EQ(Bit, X.index());
  EXPECT_TRUE(Val);
  std::vector<bool> Bits(F.P.numVars(), false);
  Bits[X.index()] = true;
  TsParam Prm = F.A->paramFromBits(Bits);
  EXPECT_EQ(F.A->paramCost(Prm), 1u);
  EXPECT_EQ(F.A->paramToString(Prm), "{x}");
}

TEST(Typestate, AtomNames) {
  Fixture F(Fig1Src);
  EXPECT_EQ(F.A->atomName(TypestateAnalysis::atomErr()), "err");
  EXPECT_EQ(F.A->atomName(TypestateAnalysis::atomType(0)), "type(closed)");
  EXPECT_EQ(F.A->atomName(TypestateAnalysis::atomType(1)), "type(opened)");
  VarId X = F.P.findVar("x");
  EXPECT_EQ(F.A->atomName(TypestateAnalysis::atomParam(X)), "param(x)");
  EXPECT_EQ(F.A->atomName(TypestateAnalysis::atomVar(X)), "var(x)");
}

} // namespace
