//===- EscapeSemanticsTest.cpp - Exhaustive Figure 5 semantics tests ----------===//
//
// Parameterized sweep over every combination of abstract values for the
// locations a command reads, checking the transfer function against an
// independently hand-written oracle of Figure 5. Complements the
// random-state wp property test in EscapeTest with exhaustive coverage of
// the store/load case analysis.
//
//===----------------------------------------------------------------------===//

#include "escape/Escape.h"

#include "ir/Parser.h"

#include "gtest/gtest.h"

namespace {

using namespace optabs;
using namespace optabs::ir;
using escape::AbsVal;
using escape::EscapeAnalysis;
using escape::EscParam;
using escape::EscState;

struct Fixture {
  Program P;
  std::unique_ptr<EscapeAnalysis> A;
  VarId V, W, U;
  FieldId F, K;

  Fixture() {
    std::string Error;
    bool Ok = parseProgram(R"(
      global g;
      proc main {
        v = new h1;
        w = new h2;
        v.f = w;
        u = v.f;
        u.k = u;
        g = v;
        check(v);
      }
    )", P, Error);
    EXPECT_TRUE(Ok) << Error;
    A = std::make_unique<EscapeAnalysis>(P);
    V = P.findVar("v");
    W = P.findVar("w");
    U = P.findVar("u");
    F = P.findField("f");
    K = P.findField("k");
  }

  EscState stateWith(AbsVal Vv, AbsVal Wv, AbsVal Fv, AbsVal Kv) const {
    EscState D = A->initialState();
    D.setSlot(A->locOfVar(V), Vv);
    D.setSlot(A->locOfVar(W), Wv);
    D.setSlot(A->locOfField(F), Fv);
    D.setSlot(A->locOfField(K), Kv);
    return D;
  }

  CommandId cmd(size_t I) const { return CommandId(static_cast<uint32_t>(I)); }
};

constexpr AbsVal Vals[] = {AbsVal::N, AbsVal::L, AbsVal::E};

/// The esc() of Figure 5, written independently of the implementation.
EscState oracleEsc(const EscapeAnalysis &A, const Program &P,
                   const EscState &D) {
  EscState Out = D;
  for (uint32_t I = 0; I < P.numVars(); ++I)
    if (Out.slot(I) != AbsVal::N)
      Out.setSlot(I, AbsVal::E);
  for (uint32_t I = 0; I < P.numFields(); ++I)
    Out.setSlot(P.numVars() + I, AbsVal::N);
  (void)A;
  return Out;
}

using Triple = std::tuple<int, int, int>;

class StoreFieldSemantics : public ::testing::TestWithParam<Triple> {};

TEST_P(StoreFieldSemantics, MatchesFigure5Oracle) {
  Fixture Fx;
  auto [VI, WI, FI] = GetParam();
  AbsVal Vv = Vals[VI], Wv = Vals[WI], Fv = Vals[FI];
  EscState D = Fx.stateWith(Vv, Wv, Fv, AbsVal::N);
  EscParam Prm = Fx.A->paramFromBits({});
  // Command 2 is "v.f = w".
  EscState Got = Fx.A->transfer(Fx.P.command(Fx.cmd(2)), D, Prm);

  EscState Expect = D;
  if (Vv == AbsVal::N) {
    // Null base: no continuation; identity is a sound choice.
  } else if (Vv == AbsVal::E) {
    if (Wv == AbsVal::L)
      Expect = oracleEsc(*Fx.A, Fx.P, D); // L reachable from E: collapse
  } else {
    // Base L: weak update of the f summary.
    if (Fv == Wv) {
      // Nothing to change.
    } else if ((Fv == AbsVal::N && Wv == AbsVal::L) ||
               (Fv == AbsVal::L && Wv == AbsVal::N)) {
      Expect.setSlot(Fx.A->locOfField(Fx.F), AbsVal::L);
    } else if ((Fv == AbsVal::N && Wv == AbsVal::E) ||
               (Fv == AbsVal::E && Wv == AbsVal::N)) {
      Expect.setSlot(Fx.A->locOfField(Fx.F), AbsVal::E);
    } else {
      Expect = oracleEsc(*Fx.A, Fx.P, D); // {L, E}: not representable
    }
  }
  EXPECT_EQ(Got, Expect) << "v=" << escape::absValName(Vv)
                         << " w=" << escape::absValName(Wv)
                         << " f=" << escape::absValName(Fv);
}

INSTANTIATE_TEST_SUITE_P(
    AllValueCombinations, StoreFieldSemantics,
    ::testing::Combine(::testing::Range(0, 3), ::testing::Range(0, 3),
                       ::testing::Range(0, 3)),
    [](const ::testing::TestParamInfo<Triple> &Info) {
      return std::string("v") +
             escape::absValName(Vals[std::get<0>(Info.param)]) + "_w" +
             escape::absValName(Vals[std::get<1>(Info.param)]) + "_f" +
             escape::absValName(Vals[std::get<2>(Info.param)]);
    });

using Pair = std::tuple<int, int>;

class LoadFieldSemantics : public ::testing::TestWithParam<Pair> {};

TEST_P(LoadFieldSemantics, MatchesFigure5Oracle) {
  Fixture Fx;
  auto [VI, FI] = GetParam();
  AbsVal Vv = Vals[VI], Fv = Vals[FI];
  EscState D = Fx.stateWith(Vv, AbsVal::N, Fv, AbsVal::N);
  EscParam Prm = Fx.A->paramFromBits({});
  // Command 3 is "u = v.f".
  EscState Got = Fx.A->transfer(Fx.P.command(Fx.cmd(3)), D, Prm);
  AbsVal ExpectU = Vv == AbsVal::L ? Fv : AbsVal::E;
  EXPECT_EQ(Got.slot(Fx.A->locOfVar(Fx.U)), ExpectU);
  // Nothing else changes.
  EscState Rest = Got;
  Rest.setSlot(Fx.A->locOfVar(Fx.U), D.slot(Fx.A->locOfVar(Fx.U)));
  EXPECT_EQ(Rest, D);
}

INSTANTIATE_TEST_SUITE_P(AllValueCombinations, LoadFieldSemantics,
                         ::testing::Combine(::testing::Range(0, 3),
                                            ::testing::Range(0, 3)));

class StoreGlobalSemantics : public ::testing::TestWithParam<int> {};

TEST_P(StoreGlobalSemantics, MatchesFigure5Oracle) {
  Fixture Fx;
  AbsVal Vv = Vals[GetParam()];
  EscState D = Fx.stateWith(Vv, AbsVal::L, AbsVal::L, AbsVal::E);
  EscParam Prm = Fx.A->paramFromBits({});
  // Command 5 is "g = v".
  EscState Got = Fx.A->transfer(Fx.P.command(Fx.cmd(5)), D, Prm);
  EscState Expect = Vv == AbsVal::L ? oracleEsc(*Fx.A, Fx.P, D) : D;
  EXPECT_EQ(Got, Expect);
}

INSTANTIATE_TEST_SUITE_P(AllValues, StoreGlobalSemantics,
                         ::testing::Range(0, 3));

TEST(EscapeSemantics, NewBindsToParameterValue) {
  Fixture Fx;
  EscState D = Fx.A->initialState();
  // Command 0 is "v = new h1".
  std::vector<bool> L{true, false};
  EscState GotL =
      Fx.A->transfer(Fx.P.command(Fx.cmd(0)), D, Fx.A->paramFromBits(L));
  EXPECT_EQ(GotL.slot(Fx.A->locOfVar(Fx.V)), AbsVal::L);
  EscState GotE =
      Fx.A->transfer(Fx.P.command(Fx.cmd(0)), D, Fx.A->paramFromBits({}));
  EXPECT_EQ(GotE.slot(Fx.A->locOfVar(Fx.V)), AbsVal::E);
}

} // namespace
