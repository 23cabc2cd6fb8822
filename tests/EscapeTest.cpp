//===- EscapeTest.cpp - Unit tests for the thread-escape client --------------===//

#include "escape/Escape.h"

#include "ir/Parser.h"
#include "support/Prng.h"
#include "synth/Generator.h"

#include "gtest/gtest.h"

#include <set>

namespace {

using namespace optabs::ir;
using namespace optabs::escape;
using optabs::BitSet;
using optabs::Prng;
using optabs::formula::AtomId;

Program parse(const char *Src) {
  Program P;
  std::string Error;
  bool Ok = parseProgram(Src, P, Error);
  EXPECT_TRUE(Ok) << Error;
  return P;
}

EscParam paramOf(const Program &P, std::initializer_list<const char *> LSites) {
  EscParam Prm;
  Prm.LSites = BitSet(P.numAllocs());
  for (const char *Name : LSites) {
    AllocId H = P.findAlloc(Name);
    EXPECT_TRUE(H.isValid()) << Name;
    Prm.LSites.set(H.index());
  }
  return Prm;
}

AbsVal varVal(const EscapeAnalysis &A, const Program &P, const EscState &D,
              const char *Name) {
  return static_cast<AbsVal>(D.Vals[A.locOfVar(P.findVar(Name))]);
}

AbsVal fieldVal(const EscapeAnalysis &A, const Program &P, const EscState &D,
                const char *Name) {
  return static_cast<AbsVal>(D.Vals[A.locOfField(P.findField(Name))]);
}

/// The Figure 6 program.
const char *Fig6Src = R"(
  proc main {
    u = new h1;
    v = new h2;
    v.f = u;
    check(u);
  }
)";

TEST(Escape, TransferFollowsFigure5OnFig6Program) {
  Program P = parse(Fig6Src);
  EscapeAnalysis A(P);

  // (b2) of Figure 6: p = [h1 -> L, h2 -> E].
  EscParam Prm = paramOf(P, {"h1"});
  EscState D = A.initialState();
  D = A.transfer(P.command(CommandId(0)), D, Prm); // u = new h1
  EXPECT_EQ(varVal(A, P, D, "u"), AbsVal::L);
  D = A.transfer(P.command(CommandId(1)), D, Prm); // v = new h2
  EXPECT_EQ(varVal(A, P, D, "v"), AbsVal::E);
  D = A.transfer(P.command(CommandId(2)), D, Prm); // v.f = u: E.f := L
  // Storing a local into an escaped object: esc() collapses the state.
  EXPECT_EQ(varVal(A, P, D, "u"), AbsVal::E);
  EXPECT_EQ(varVal(A, P, D, "v"), AbsVal::E);
  EXPECT_EQ(fieldVal(A, P, D, "f"), AbsVal::N);

  // p = [h1 -> L, h2 -> L]: the cheapest proving abstraction of Figure 6.
  EscParam Both = paramOf(P, {"h1", "h2"});
  EscState E = A.initialState();
  E = A.transfer(P.command(CommandId(0)), E, Both);
  E = A.transfer(P.command(CommandId(1)), E, Both);
  E = A.transfer(P.command(CommandId(2)), E, Both); // L.f := L, f was N
  EXPECT_EQ(varVal(A, P, E, "u"), AbsVal::L);
  EXPECT_EQ(fieldVal(A, P, E, "f"), AbsVal::L);
}

TEST(Escape, GlobalStorePublishesLocals) {
  Program P = parse(R"(
    global g;
    proc main {
      a = new h1;
      b = new h2;
      b.f = b;
      g = a;
      check(b);
    }
  )");
  EscapeAnalysis A(P);
  EscParam Prm = paramOf(P, {"h1", "h2"});
  EscState D = A.initialState();
  for (uint32_t I = 0; I < 4; ++I)
    D = A.transfer(P.command(CommandId(I)), D, Prm);
  // g = a escapes a and collapses every L, including b; fields reset.
  EXPECT_EQ(varVal(A, P, D, "a"), AbsVal::E);
  EXPECT_EQ(varVal(A, P, D, "b"), AbsVal::E);
  EXPECT_EQ(fieldVal(A, P, D, "f"), AbsVal::N);
}

TEST(Escape, GlobalStoreOfEscapedIsNoop) {
  Program P = parse(R"(
    global g;
    proc main { a = new h1; b = g; g = b; check(a); }
  )");
  EscapeAnalysis A(P);
  EscParam Prm = paramOf(P, {"h1"});
  EscState D = A.initialState();
  D = A.transfer(P.command(CommandId(0)), D, Prm);
  D = A.transfer(P.command(CommandId(1)), D, Prm);
  EXPECT_EQ(varVal(A, P, D, "b"), AbsVal::E);
  EscState After = A.transfer(P.command(CommandId(2)), D, Prm);
  EXPECT_EQ(After, D); // storing an escaped pointer changes nothing
}

TEST(Escape, LoadFromLocalReadsFieldSummary) {
  Program P = parse(R"(
    proc main { a = new h1; b = new h2; a.f = b; c = a.f; d = b.f; check(c); }
  )");
  EscapeAnalysis A(P);
  EscParam Prm = paramOf(P, {"h1", "h2"});
  EscState D = A.initialState();
  for (uint32_t I = 0; I < 5; ++I)
    D = A.transfer(P.command(CommandId(I)), D, Prm);
  EXPECT_EQ(varVal(A, P, D, "c"), AbsVal::L); // read of f summary
  EXPECT_EQ(varVal(A, P, D, "d"), AbsVal::L);
}

TEST(Escape, LoadFromEscapedYieldsEscaped) {
  Program P = parse(R"(
    global g;
    proc main { a = g; b = a.f; check(b); }
  )");
  EscapeAnalysis A(P);
  EscParam Prm = paramOf(P, {});
  EscState D = A.initialState();
  D = A.transfer(P.command(CommandId(0)), D, Prm);
  D = A.transfer(P.command(CommandId(1)), D, Prm);
  EXPECT_EQ(varVal(A, P, D, "b"), AbsVal::E);
}

TEST(Escape, StoreFieldMixedSummaryCollapses) {
  // f holds L (from a), then storing an escaped value into an L object's
  // field forces esc: {L, E} is not representable.
  Program P = parse(R"(
    global g;
    proc main {
      a = new h1;
      a.f = a;
      e = g;
      a.f = e;
      check(a);
    }
  )");
  EscapeAnalysis A(P);
  EscParam Prm = paramOf(P, {"h1"});
  EscState D = A.initialState();
  for (uint32_t I = 0; I < 4; ++I)
    D = A.transfer(P.command(CommandId(I)), D, Prm);
  EXPECT_EQ(varVal(A, P, D, "a"), AbsVal::E);
  EXPECT_EQ(fieldVal(A, P, D, "f"), AbsVal::N);
}

TEST(Escape, NullBaseStoreIsIdentity) {
  Program P = parse(R"(
    proc main { a = null; b = new h1; a.f = b; check(b); }
  )");
  EscapeAnalysis A(P);
  EscParam Prm = paramOf(P, {"h1"});
  EscState D = A.initialState();
  D = A.transfer(P.command(CommandId(0)), D, Prm);
  D = A.transfer(P.command(CommandId(1)), D, Prm);
  EscState After = A.transfer(P.command(CommandId(2)), D, Prm);
  EXPECT_EQ(After, D);
}

//===----------------------------------------------------------------------===//
// Requirement (2): wp is exactly the weakest precondition, by property
// testing over random states/abstractions and all commands of a program
// that covers every case of Figure 5.
//===----------------------------------------------------------------------===//

TEST(EscapeWp, SoundAndCompleteOnAllCommandKinds) {
  Program P = parse(R"(
    global g;
    proc main {
      a = new h1;
      b = new h2;
      a = b;
      a = null;
      a = g;
      g = a;
      b = a.f;
      a.f = b;
      a.k = a;
      b.work();
      assume(*);
      check(a);
    }
  )");
  EscapeAnalysis A(P);
  Prng Rng(0xE5CA9E);

  std::vector<AtomId> Atoms;
  for (uint32_t H = 0; H < P.numAllocs(); ++H)
    for (AbsVal O : {AbsVal::L, AbsVal::E})
      Atoms.push_back(EscapeAnalysis::atomSite(AllocId(H), O));
  for (uint32_t V = 0; V < P.numVars(); ++V)
    for (AbsVal O : {AbsVal::N, AbsVal::L, AbsVal::E})
      Atoms.push_back(EscapeAnalysis::atomVar(VarId(V), O));
  for (uint32_t F = 0; F < P.numFields(); ++F)
    for (AbsVal O : {AbsVal::N, AbsVal::L, AbsVal::E})
      Atoms.push_back(EscapeAnalysis::atomField(FieldId(F), O));

  for (int Round = 0; Round < 500; ++Round) {
    EscParam Prm;
    Prm.LSites = BitSet(P.numAllocs());
    for (uint32_t H = 0; H < P.numAllocs(); ++H)
      if (Rng.chance(1, 2))
        Prm.LSites.set(H);
    EscState D = A.initialState();
    for (uint8_t &V : D.Vals)
      V = static_cast<uint8_t>(Rng.nextBelow(3));

    for (uint32_t CI = 0; CI < P.numCommands(); ++CI) {
      const Command &Cmd = P.command(CommandId(CI));
      if (Cmd.Kind == CmdKind::Invoke)
        continue;
      EscState Post = A.transfer(Cmd, D, Prm);
      for (AtomId Atom : Atoms) {
        bool PostHolds = A.evalAtom(Atom, Prm, Post);
        bool WpHolds = A.wpAtom(Cmd, Atom).eval(
            [&](AtomId B) { return A.evalAtom(B, Prm, D); });
        ASSERT_EQ(WpHolds, PostHolds)
            << "cmd " << CI << " (" << cmdKindName(Cmd.Kind) << ") atom "
            << A.atomName(Atom) << " round " << Round;
      }
    }
  }
}

TEST(Escape, ParamCodecAndNames) {
  Program P = parse(Fig6Src);
  EscapeAnalysis A(P);
  EXPECT_EQ(A.numParamBits(), 2u);
  AllocId H1 = P.findAlloc("h1");
  auto [BitL, ValL] =
      A.decodeParamAtom(EscapeAnalysis::atomSite(H1, AbsVal::L));
  EXPECT_EQ(BitL, H1.index());
  EXPECT_TRUE(ValL);
  auto [BitE, ValE] =
      A.decodeParamAtom(EscapeAnalysis::atomSite(H1, AbsVal::E));
  EXPECT_EQ(BitE, H1.index());
  EXPECT_FALSE(ValE);

  std::vector<bool> Bits{true, false};
  EscParam Prm = A.paramFromBits(Bits);
  EXPECT_EQ(A.paramCost(Prm), 1u);
  EXPECT_EQ(A.paramToString(Prm), "[L:h1]");

  EXPECT_EQ(A.atomName(EscapeAnalysis::atomSite(H1, AbsVal::E)), "h1.E");
  EXPECT_EQ(A.atomName(EscapeAnalysis::atomVar(P.findVar("u"), AbsVal::L)),
            "u.L");
  EXPECT_EQ(
      A.atomName(EscapeAnalysis::atomField(P.findField("f"), AbsVal::N)),
      "f.N");
}

TEST(Escape, NotQIsQueriedVarEscapes) {
  Program P = parse(Fig6Src);
  EscapeAnalysis A(P);
  auto NotQ = A.notQ(CheckId(0));
  EXPECT_EQ(NotQ.size(), 1u);
  EscParam Prm = paramOf(P, {});
  EscState D = A.initialState();
  auto Eval = [&](const EscState &S) {
    return [&, S](AtomId At) { return A.evalAtom(At, Prm, S); };
  };
  EXPECT_FALSE(NotQ.eval(Eval(D)));
  D.Vals[A.locOfVar(P.findVar("u"))] = static_cast<uint8_t>(AbsVal::E);
  EXPECT_TRUE(NotQ.eval(Eval(D)));
}

//===----------------------------------------------------------------------===//
// Escape kernel: word-wise state operations and compiled case lists
//===----------------------------------------------------------------------===//

namespace oracle {
/// The byte loop the word-wise EscapeAnalysis::pruneState replaced.
void pruneState(EscState &S, const BitSet &Live, size_t NumVars) {
  for (size_t V = 0; V < NumVars && V < S.Vals.size(); ++V)
    if (V >= Live.size() || !Live.test(V))
      S.Vals[V] = static_cast<uint8_t>(AbsVal::N);
}
} // namespace oracle

EscState randomState(Prng &Rng, size_t Size) {
  EscState D;
  D.Vals.resize(Size);
  for (uint8_t &V : D.Vals)
    V = static_cast<uint8_t>(Rng.nextBelow(3));
  return D;
}

TEST(EscapeKernel, WordWisePruneMatchesByteLoop) {
  Prng Rng(0x9E11);
  // Variable counts off every multiple of 8 and 64, and live sets shorter
  // than, equal to and longer than the variable range.
  for (uint32_t NumVars :
       {0u, 1u, 5u, 7u, 8u, 9u, 15u, 17u, 63u, 64u, 65u, 71u, 130u}) {
    Program P;
    for (uint32_t V = 0; V < NumVars; ++V)
      P.makeVar(std::string("v").append(std::to_string(V)));
    P.makeField("f");
    P.makeField("g");
    EscapeAnalysis A(P);
    const size_t Size = NumVars + P.numFields();
    for (size_t LiveSize : {size_t(0), size_t(NumVars / 2),
                            size_t(NumVars ? NumVars - 1 : 0),
                            size_t(NumVars), size_t(NumVars + 11)}) {
      for (unsigned Round = 0; Round < 20; ++Round) {
        BitSet Live(LiveSize);
        for (size_t I = 0; I < LiveSize; ++I)
          if (Rng.nextBelow(2))
            Live.set(I);
        EscState Got = randomState(Rng, Size);
        EscState Want = Got;
        A.pruneState(Got, Live);
        oracle::pruneState(Want, Live, NumVars);
        ASSERT_EQ(Got.Vals, Want.Vals)
            << "vars " << NumVars << ", live size " << LiveSize;
      }
    }
  }
}

TEST(EscapeKernel, EqualStatesHashEqual) {
  Prng Rng(0x4A5);
  EscapeAnalysis::StateHash Hash;
  std::set<std::vector<uint8_t>> Distinct;
  std::set<size_t> Hashes;
  for (size_t Size = 0; Size < 40; ++Size) {
    for (unsigned Round = 0; Round < 50; ++Round) {
      EscState A = randomState(Rng, Size);
      EscState B;
      B.Vals = A.Vals; // a separate buffer with the same bytes
      ASSERT_EQ(Hash(A), Hash(B));
      if (Distinct.insert(A.Vals).second)
        Hashes.insert(Hash(A));
    }
  }
  // Sanity, not a contract: random distinct states do not collide.
  EXPECT_EQ(Hashes.size(), Distinct.size());
}

TEST(EscapeKernel, CompiledCaseListsMatchFreshOnes) {
  // A copy of a pool command is outside the pool, so it takes the
  // cases(Cmd) path; the pool command itself takes the compiled list.
  Prng Rng(0xCA5E);
  const auto &Small = optabs::synth::smallSuite();
  for (size_t B = 0; B < 2; ++B) {
    optabs::synth::Benchmark Bench = optabs::synth::generate(Small[B]);
    const Program &P = Bench.P;
    EscapeAnalysis A(P);
    const size_t Size = P.numVars() + P.numFields();
    auto Name = [&](AtomId At) { return A.atomName(At); };
    for (uint32_t I = 0; I < P.numCommands(); ++I) {
      const Command &Pooled = P.command(CommandId(I));
      if (Pooled.Kind == CmdKind::Invoke)
        continue;
      const Command Copy = Pooled;
      for (unsigned Round = 0; Round < 4; ++Round) {
        EscState D = randomState(Rng, Size);
        EscParam Prm;
        Prm.LSites = BitSet(P.numAllocs());
        for (uint32_t H = 0; H < P.numAllocs(); ++H)
          if (Rng.nextBelow(2))
            Prm.LSites.set(H);
        ASSERT_EQ(A.transfer(Pooled, D, Prm).Vals,
                  A.transfer(Copy, D, Prm).Vals)
            << "command " << I;
      }
      for (unsigned Round = 0; Round < 6; ++Round) {
        AbsVal O = static_cast<AbsVal>(Rng.nextBelow(3));
        uint32_t Loc = static_cast<uint32_t>(Rng.nextBelow(Size));
        AtomId At =
            Loc < P.numVars()
                ? EscapeAnalysis::atomVar(VarId(Loc), O)
                : EscapeAnalysis::atomField(FieldId(Loc - P.numVars()), O);
        ASSERT_EQ(A.wpAtom(Pooled, At).toString(Name),
                  A.wpAtom(Copy, At).toString(Name))
            << "command " << I << ", atom " << A.atomName(At);
      }
    }
  }
}

} // namespace
