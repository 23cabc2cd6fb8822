//===- EscapeTest.cpp - Unit tests for the thread-escape client --------------===//

#include "escape/Escape.h"

#include "ir/Liveness.h"
#include "ir/Parser.h"
#include "support/Prng.h"
#include "synth/Generator.h"

#include "gtest/gtest.h"

#include <map>
#include <set>
#include <sstream>

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
  return D.slot(A.locOfVar(P.findVar(Name)));
}

AbsVal fieldVal(const EscapeAnalysis &A, const Program &P, const EscState &D,
                const char *Name) {
  return D.slot(A.locOfField(P.findField(Name)));
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
    for (uint32_t L = 0; L < A.numLocs(); ++L)
      D.setSlot(L, static_cast<AbsVal>(Rng.nextBelow(3)));

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
  D.setSlot(A.locOfVar(P.findVar("u")), AbsVal::E);
  EXPECT_TRUE(NotQ.eval(Eval(D)));
}

//===----------------------------------------------------------------------===//
// Escape kernel: word-wise state operations and compiled case lists
//===----------------------------------------------------------------------===//

namespace oracle {
/// The byte-per-location representation the packed EscState replaced:
/// one AbsVal per location, variables first, then fields.
using Bytes = std::vector<uint8_t>;
constexpr uint8_t N = 0, L = 1, E = 2;

/// esc() of Figure 5: locals keep N or become E; field summaries reset.
Bytes esc(const Bytes &D, size_t NumVars) {
  Bytes Out = D;
  for (size_t I = 0; I < Out.size(); ++I)
    Out[I] = I < NumVars && Out[I] != N ? E : N;
  return Out;
}

/// Resets dead variables to N; fields stay.
void pruneState(Bytes &S, const BitSet &Live, size_t NumVars) {
  for (size_t V = 0; V < NumVars && V < S.size(); ++V)
    if (V >= Live.size() || !Live.test(V))
      S[V] = N;
}

/// Figure 5, case by case, written independently of the case lists.
Bytes transfer(const EscapeAnalysis &A, const Program &P, const Command &Cmd,
               const Bytes &D, const EscParam &Prm) {
  const size_t NumVars = P.numVars();
  Bytes Out = D;
  switch (Cmd.Kind) {
  case CmdKind::Assume:
  case CmdKind::Check:
  case CmdKind::MethodCall:
  case CmdKind::Invoke:
    return D;
  case CmdKind::New:
    Out[A.locOfVar(Cmd.Dst)] = Prm.LSites.test(Cmd.Alloc.index()) ? L : E;
    return Out;
  case CmdKind::Copy:
    Out[A.locOfVar(Cmd.Dst)] = D[A.locOfVar(Cmd.Src)];
    return Out;
  case CmdKind::Null:
    Out[A.locOfVar(Cmd.Dst)] = N;
    return Out;
  case CmdKind::LoadGlobal:
    Out[A.locOfVar(Cmd.Dst)] = E;
    return Out;
  case CmdKind::StoreGlobal:
    return D[A.locOfVar(Cmd.Src)] == L ? esc(D, NumVars) : D;
  case CmdKind::LoadField:
    Out[A.locOfVar(Cmd.Dst)] =
        D[A.locOfVar(Cmd.Src)] == L ? D[A.locOfField(Cmd.Field)] : E;
    return Out;
  case CmdKind::StoreField: {
    const uint8_t Base = D[A.locOfVar(Cmd.Dst)];
    const uint8_t Val = D[A.locOfVar(Cmd.Src)];
    uint8_t &F = Out[A.locOfField(Cmd.Field)];
    if (Base == N)
      return D;
    if (Base == E)
      return Val == L ? esc(D, NumVars) : D;
    // Base L: weak update of the summary; {L, E} collapses.
    if (F == N || Val == N || F == Val) {
      F = std::max(F, Val);
      return Out;
    }
    return esc(D, NumVars);
  }
  }
  return D;
}
} // namespace oracle

oracle::Bytes bytesOf(const EscState &S, size_t NumLocs) {
  oracle::Bytes B(NumLocs);
  for (uint32_t Loc = 0; Loc < NumLocs; ++Loc)
    B[Loc] = static_cast<uint8_t>(S.slot(Loc));
  return B;
}

EscState packed(const oracle::Bytes &B) {
  EscState S;
  S.Words.assign(EscState::wordsFor(B.size()), 0);
  for (uint32_t Loc = 0; Loc < B.size(); ++Loc)
    S.setSlot(Loc, static_cast<AbsVal>(B[Loc]));
  return S;
}

oracle::Bytes randomBytes(Prng &Rng, size_t NumLocs) {
  oracle::Bytes B(NumLocs);
  for (uint8_t &V : B)
    V = static_cast<uint8_t>(Rng.nextBelow(3));
  return B;
}

EscState randomState(Prng &Rng, size_t NumLocs) {
  return packed(randomBytes(Rng, NumLocs));
}

EscParam randomParam(Prng &Rng, const Program &P) {
  EscParam Prm;
  Prm.LSites = BitSet(P.numAllocs());
  for (uint32_t H = 0; H < P.numAllocs(); ++H)
    if (Rng.nextBelow(2))
      Prm.LSites.set(H);
  return Prm;
}

/// Runs every command of \p P on random states, packed and through the
/// oracle, and checks transfer, pruneState, equality, StateHash and the
/// state order against the bytes, slot for slot. Comparing words, not only
/// slots, also checks that the padding past the last location stays zero.
void expectKernelMatchesOracle(const Program &P, Prng &Rng, unsigned Rounds) {
  EscapeAnalysis A(P);
  CommandLiveness Live(P);
  EscapeAnalysis::StateHash Hash;
  const size_t NumLocs = A.numLocs();
  // Every result seen, by bytes and by words: equal bytes must mean equal
  // words and hash, and equal words equal bytes.
  std::map<std::string, EscState> ByBytes;
  std::map<std::vector<uint64_t>, oracle::Bytes> ByWords;
  auto Record = [&](const EscState &S, const oracle::Bytes &B) {
    auto [It, New] = ByBytes.emplace(std::string(B.begin(), B.end()), S);
    ASSERT_TRUE(It->second == S);
    ASSERT_EQ(Hash(It->second), Hash(S));
    auto [WIt, WNew] = ByWords.emplace(S.Words, B);
    ASSERT_EQ(WIt->second, B);
    ASSERT_EQ(New, WNew);
  };
  std::vector<oracle::Bytes> Seen;
  for (uint32_t CI = 0; CI < P.numCommands(); ++CI) {
    const Command &Cmd = P.command(CommandId(CI));
    if (Cmd.Kind == CmdKind::Invoke)
      continue;
    for (unsigned Round = 0; Round < Rounds; ++Round) {
      // Mostly-N states make commands hit N cases and repeat results.
      oracle::Bytes In = randomBytes(Rng, NumLocs);
      if (Round % 2)
        for (uint8_t &V : In)
          V = Rng.nextBelow(4) ? oracle::N : V;
      EscParam Prm = randomParam(Rng, P);
      oracle::Bytes Want = oracle::transfer(A, P, Cmd, In, Prm);
      EscState Got = A.transfer(Cmd, packed(In), Prm);
      ASSERT_EQ(bytesOf(Got, NumLocs), Want)
          << "command " << CI << " (" << cmdKindName(Cmd.Kind) << ")";
      ASSERT_EQ(Got.Words, packed(Want).Words) << "command " << CI;
      Record(Got, Want);
      oracle::pruneState(Want, Live.liveOut(CommandId(CI)), P.numVars());
      A.pruneState(Got, Live.liveOut(CommandId(CI)));
      ASSERT_EQ(Got.Words, packed(Want).Words) << "pruned, command " << CI;
      Record(Got, Want);
      Seen.push_back(Want);
    }
  }
  // The driver picks counterexample states by operator<: it must order
  // states as their bytes compare.
  for (size_t I = 0; I + 1 < Seen.size(); ++I) {
    const oracle::Bytes &X = Seen[I], &Y = Seen[Rng.nextBelow(Seen.size())];
    ASSERT_EQ(packed(X) < packed(Y), X < Y);
    ASSERT_EQ(packed(Y) < packed(X), Y < X);
  }
}

TEST(EscapeKernel, PackedKernelMatchesByteOracleOnGeneratedPrograms) {
  Prng Rng(0x0AC1E);
  const auto &Small = optabs::synth::smallSuite();
  for (size_t B = 0; B < 2; ++B) {
    SCOPED_TRACE(::testing::Message() << "program " << B);
    expectKernelMatchesOracle(optabs::synth::generate(Small[B]).P, Rng, 8);
  }
}

/// A program over exactly \p NumVars variables v0.. and \p NumFields
/// fields f0.., numbered in that order, with every command kind the
/// counts allow in a random mix.
Program programWithLocations(Prng &Rng, uint32_t NumVars, uint32_t NumFields) {
  std::ostringstream Src;
  Src << "global g;\nproc main {\n";
  for (uint32_t V = 0; V < NumVars; ++V)
    Src << "  v" << V << " = new h" << V % 3 << ";\n";
  for (uint32_t F = 0; F < NumFields; ++F)
    Src << "  v" << F % NumVars << ".f" << F << " = v" << (F + 1) % NumVars
        << ";\n";
  for (unsigned I = 0; I < 60; ++I) {
    const uint64_t D = Rng.nextBelow(NumVars), S = Rng.nextBelow(NumVars);
    switch (Rng.nextBelow(NumFields ? 10 : 8)) {
    case 0:
      Src << "  v" << D << " = v" << S << ";\n";
      break;
    case 1:
      Src << "  v" << D << " = null;\n";
      break;
    case 2:
      Src << "  v" << D << " = new h" << Rng.nextBelow(3) << ";\n";
      break;
    case 3:
      Src << "  v" << D << " = g;\n";
      break;
    case 4:
      Src << "  g = v" << S << ";\n";
      break;
    case 5:
      Src << "  v" << D << ".work();\n";
      break;
    case 6:
      Src << "  assume(*);\n";
      break;
    case 7:
      Src << "  check(v" << D << ");\n";
      break;
    case 8:
      Src << "  v" << D << " = v" << S << ".f" << Rng.nextBelow(NumFields)
          << ";\n";
      break;
    default:
      Src << "  v" << D << ".f" << Rng.nextBelow(NumFields) << " = v" << S
          << ";\n";
      break;
    }
  }
  Src << "  check(v0);\n}\n";
  Program P = parse(Src.str().c_str());
  EXPECT_EQ(P.numVars(), NumVars);
  EXPECT_EQ(P.numFields(), NumFields);
  return P;
}

TEST(EscapeKernel, PackedKernelMatchesByteOracleAtWordBoundaries) {
  Prng Rng(0xB0D7);
  // Location counts 1, 31, 32, 33 and 64 + k, with words that hold only
  // variables, only fields, or both, and padding past the last location.
  const std::pair<uint32_t, uint32_t> Shapes[] = {
      {1, 0},  {31, 0}, {1, 30}, {32, 0}, {20, 12},
      {32, 1}, {30, 3}, {40, 27}, {64, 6}, {70, 30}};
  for (auto [NumVars, NumFields] : Shapes) {
    SCOPED_TRACE(::testing::Message() << NumVars << " variables, "
                                      << NumFields << " fields");
    expectKernelMatchesOracle(programWithLocations(Rng, NumVars, NumFields),
                              Rng, 6);
  }
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
    const size_t Size = A.numLocs();
    for (size_t LiveSize : {size_t(0), size_t(NumVars / 2),
                            size_t(NumVars ? NumVars - 1 : 0),
                            size_t(NumVars), size_t(NumVars + 11)}) {
      for (unsigned Round = 0; Round < 20; ++Round) {
        BitSet Live(LiveSize);
        for (size_t I = 0; I < LiveSize; ++I)
          if (Rng.nextBelow(2))
            Live.set(I);
        oracle::Bytes Want = randomBytes(Rng, Size);
        EscState Got = packed(Want);
        A.pruneState(Got, Live);
        oracle::pruneState(Want, Live, NumVars);
        ASSERT_EQ(bytesOf(Got, Size), Want)
            << "vars " << NumVars << ", live size " << LiveSize;
      }
    }
  }
}

TEST(EscapeKernel, EqualStatesHashEqual) {
  Prng Rng(0x4A5);
  EscapeAnalysis::StateHash Hash;
  std::set<std::vector<uint64_t>> Distinct;
  std::set<size_t> Hashes;
  for (size_t Size = 0; Size < 40; ++Size) {
    for (unsigned Round = 0; Round < 50; ++Round) {
      EscState A = randomState(Rng, Size);
      EscState B;
      B.Words = A.Words; // a separate buffer with the same words
      ASSERT_EQ(Hash(A), Hash(B));
      if (Distinct.insert(A.Words).second)
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
    const size_t Size = A.numLocs();
    auto Name = [&](AtomId At) { return A.atomName(At); };
    for (uint32_t I = 0; I < P.numCommands(); ++I) {
      const Command &Pooled = P.command(CommandId(I));
      if (Pooled.Kind == CmdKind::Invoke)
        continue;
      const Command Copy = Pooled;
      for (unsigned Round = 0; Round < 4; ++Round) {
        EscState D = randomState(Rng, Size);
        EscParam Prm = randomParam(Rng, P);
        ASSERT_EQ(A.transfer(Pooled, D, Prm).Words,
                  A.transfer(Copy, D, Prm).Words)
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
