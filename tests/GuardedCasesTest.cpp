//===- GuardedCasesTest.cpp - The §8 synthesis recipe on a third client -------===//
//
// §8 of the paper proposes synthesizing the backward meta-analysis's
// transfer functions automatically from the forward analysis. The
// meta::GuardedTransfer recipe does this for guarded-case transfer
// functions; the thread-escape and type-state clients use it in
// production. To show the recipe is generic, this test derives a THIRD
// parametric client - a
// little taint analysis (parameter: which allocation sites are trusted) -
// writing only the forward case lists, and property-checks that the
// synthesized weakest preconditions satisfy requirement (2) exactly.
//
//===----------------------------------------------------------------------===//

#include "meta/GuardedCases.h"

#include "ir/Parser.h"
#include "support/BitSet.h"
#include "support/Prng.h"

#include "gtest/gtest.h"

namespace {

using namespace optabs;
using namespace optabs::ir;
using formula::AtomId;
using formula::Formula;

/// A toy parametric taint analysis. State: taint bit per variable.
/// Parameter: the set of allocation sites considered trusted (cost =
/// number of trusted sites). Globals are tainted; copies propagate.
class TaintAnalysis {
public:
  struct Param {
    BitSet Trusted;
  };
  struct State {
    std::vector<uint8_t> Taint; // per variable

    friend bool operator==(const State &A, const State &B) {
      return A.Taint == B.Taint;
    }
  };

  // Atom encoding: (id << 1) | kind; kind 0 = "site id is trusted"
  // (parameter atom), kind 1 = "variable id is tainted" (state atom).
  static AtomId atomTrusted(AllocId H) { return H.index() << 1; }
  static AtomId atomTaint(VarId V) { return (V.index() << 1) | 1; }

  explicit TaintAnalysis(const Program &P) : P(P) {}

  bool evalAtom(AtomId A, const Param &Prm, const State &D) const {
    if ((A & 1) == 0)
      return Prm.Trusted.test(A >> 1);
    return D.Taint[A >> 1];
  }

  /// Where an assigned taint bit comes from.
  struct Src {
    enum Kind : uint8_t { Const, OfVar, OfSite } K = Const;
    bool C = false;
    uint32_t Id = 0;
  };
  struct Effect {
    bool HasAssign = false;
    uint32_t Var = 0;
    Src S;
  };
  using Transfer = meta::GuardedTransfer<Effect>;

  /// The ONLY analysis-specific definitions: forward case lists and the
  /// per-effect atom precondition. Everything else is synthesized.
  Transfer cases(const Command &Cmd) const {
    Transfer T;
    auto Assign = [&T](Formula Guard, VarId V, Src S) {
      Effect E;
      E.HasAssign = true;
      E.Var = V.index();
      E.S = S;
      T.addCase(std::move(Guard), E);
    };
    Formula True = Formula::constant(true);
    switch (Cmd.Kind) {
    case CmdKind::New:
      // Fresh objects are clean iff their site is trusted.
      Assign(True, Cmd.Dst, Src{Src::OfSite, false, Cmd.Alloc.index()});
      return T;
    case CmdKind::Copy:
      Assign(True, Cmd.Dst, Src{Src::OfVar, false, Cmd.Src.index()});
      return T;
    case CmdKind::Null:
      Assign(True, Cmd.Dst, Src{Src::Const, false, 0});
      return T;
    case CmdKind::LoadGlobal:
      Assign(True, Cmd.Dst, Src{Src::Const, true, 0}); // globals taint
      return T;
    case CmdKind::LoadField: {
      // Loading through a tainted base taints; else propagate nothing
      // (fields are not modeled in this toy domain).
      Formula BaseTaint = Formula::atom(atomTaint(Cmd.Src));
      Assign(BaseTaint, Cmd.Dst, Src{Src::Const, true, 0});
      Assign(Formula::negate(BaseTaint), Cmd.Dst, Src{Src::Const, false, 0});
      return T;
    }
    default:
      T.addCase(True, Effect{});
      return T;
    }
  }

  State transfer(const Command &Cmd, const State &In,
                 const Param &Prm) const {
    return cases(Cmd).apply(*this, Prm, In, [&](const Effect &E) {
      if (!E.HasAssign)
        return In;
      State Out = In;
      switch (E.S.K) {
      case Src::Const:
        Out.Taint[E.Var] = E.S.C;
        break;
      case Src::OfVar:
        Out.Taint[E.Var] = In.Taint[E.S.Id];
        break;
      case Src::OfSite:
        Out.Taint[E.Var] = !Prm.Trusted.test(E.S.Id);
        break;
      }
      return Out;
    });
  }

  /// Synthesized backward transfer (requirement (2) by construction).
  Formula wpAtom(const Command &Cmd, AtomId A) const {
    if ((A & 1) == 0)
      return Formula::atom(A); // parameter atoms never change
    return cases(Cmd).wpAtom(A, [&](const Effect &E, AtomId Atom) {
      uint32_t V = Atom >> 1;
      if (!E.HasAssign || E.Var != V)
        return Formula::atom(Atom);
      switch (E.S.K) {
      case Src::Const:
        return Formula::constant(E.S.C);
      case Src::OfVar:
        return Formula::atom(atomTaint(VarId(E.S.Id)));
      case Src::OfSite:
        return Formula::negAtom(atomTrusted(AllocId(E.S.Id)));
      }
      return Formula::constant(false);
    });
  }

private:
  const Program &P;
};

TEST(GuardedCases, SynthesizedWpIsExactForTheToyClient) {
  Program P;
  std::string Error;
  ASSERT_TRUE(parseProgram(R"(
    global g;
    proc main {
      a = new h1;
      b = new h2;
      c = a;
      c = null;
      c = g;
      c = a.f;
      b.work();
      assume(*);
      check(a);
    }
  )", P, Error)) << Error;
  TaintAnalysis A(P);
  Prng Rng(0x7A197);

  for (int Round = 0; Round < 400; ++Round) {
    TaintAnalysis::Param Prm;
    Prm.Trusted = BitSet(P.numAllocs());
    for (uint32_t H = 0; H < P.numAllocs(); ++H)
      if (Rng.chance(1, 2))
        Prm.Trusted.set(H);
    TaintAnalysis::State D;
    D.Taint.resize(P.numVars());
    for (auto &B : D.Taint)
      B = Rng.chance(1, 2);

    for (uint32_t CI = 0; CI < P.numCommands(); ++CI) {
      const Command &Cmd = P.command(CommandId(CI));
      if (Cmd.Kind == CmdKind::Invoke)
        continue;
      TaintAnalysis::State Post = A.transfer(Cmd, D, Prm);
      for (uint32_t V = 0; V < P.numVars(); ++V) {
        AtomId Atom = TaintAnalysis::atomTaint(VarId(V));
        bool PostHolds = A.evalAtom(Atom, Prm, Post);
        bool WpHolds = A.wpAtom(Cmd, Atom).eval([&](AtomId B) {
          return A.evalAtom(B, Prm, D);
        });
        ASSERT_EQ(WpHolds, PostHolds)
            << "cmd " << CI << " var " << V << " round " << Round;
      }
    }
  }
}

TEST(GuardedCases, ApplyPicksTheEnabledCase) {
  meta::GuardedTransfer<int> T;
  T.addCase(Formula::atom(1), 10);
  T.addCase(Formula::negAtom(1), 20);
  struct { // atom A holds of (p, d) iff A == p + d
    bool evalAtom(AtomId A, int Prm, int D) const {
      return A == AtomId(Prm + D);
    }
  } Client;
  EXPECT_EQ(T.apply(Client, 1, 0, [](int E) { return E; }), 10);
  EXPECT_EQ(T.apply(Client, 2, 0, [](int E) { return E; }), 20);
}

TEST(GuardedCases, WpAtomIsGuardWeightedDisjunction) {
  meta::GuardedTransfer<bool> T; // effect: does atom 5 hold afterwards?
  T.addCase(Formula::atom(1), true);
  T.addCase(Formula::negAtom(1), false);
  Formula Wp = T.wpAtom(5, [](bool E, AtomId) {
    return Formula::constant(E);
  });
  // wp(atom5) = (a1 /\ true) \/ (!a1 /\ false) = a1.
  for (unsigned Mask = 0; Mask < 4; ++Mask) {
    formula::AtomEval Eval = [Mask](AtomId A) { return (Mask >> A) & 1; };
    EXPECT_EQ(Wp.eval(Eval), Eval(1));
  }
}

} // namespace
