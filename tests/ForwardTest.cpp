//===- ForwardTest.cpp - Unit tests for the forward analysis engine ----------===//
//
// Exercises the generic engine with a deliberately simple client (a
// saturating counter of New commands) so that reachable state sets and
// witness traces can be predicted by hand.
//
//===----------------------------------------------------------------------===//

#include "dataflow/Forward.h"

#include "ir/Parser.h"
#include "ir/Printer.h"

#include "gtest/gtest.h"

#include <set>

namespace {

using namespace optabs::ir;
using optabs::dataflow::ForwardAnalysis;

/// Counts New commands, saturating at Max; Null resets to zero.
struct CounterClient {
  struct Param {
    unsigned Max = 5;
  };
  using State = unsigned;
  struct StateHash {
    size_t operator()(unsigned S) const { return S; }
  };

  State transfer(const Command &Cmd, const State &In, const Param &P) const {
    if (Cmd.Kind == CmdKind::New)
      return std::min(In + 1, P.Max);
    if (Cmd.Kind == CmdKind::Null)
      return 0;
    return In;
  }
};

Program parse(const char *Src) {
  Program P;
  std::string Error;
  bool Ok = parseProgram(Src, P, Error);
  EXPECT_TRUE(Ok) << Error;
  return P;
}

std::set<unsigned> statesAt(const Program &P, CheckId Check,
                            unsigned Max = 5) {
  CounterClient C;
  CounterClient::Param Prm{Max};
  ForwardAnalysis<CounterClient> FA(P, C, Prm);
  FA.run(0);
  std::set<unsigned> Result;
  for (unsigned S : FA.statesAtCheck(Check))
    Result.insert(S);
  return Result;
}

TEST(Forward, StraightLine) {
  Program P = parse(R"(
    proc main { x = new h1; x = new h2; check(x); x = new h3; }
  )");
  EXPECT_EQ(statesAt(P, CheckId(0)), (std::set<unsigned>{2}));
}

TEST(Forward, ChoiceProducesBothStates) {
  Program P = parse(R"(
    proc main {
      choice { x = new h1; } or { }
      check(x);
    }
  )");
  EXPECT_EQ(statesAt(P, CheckId(0)), (std::set<unsigned>{0, 1}));
}

TEST(Forward, LoopSaturates) {
  Program P = parse(R"(
    proc main {
      loop { x = new h1; }
      check(x);
    }
  )");
  EXPECT_EQ(statesAt(P, CheckId(0)), (std::set<unsigned>{0, 1, 2, 3, 4, 5}));
}

TEST(Forward, ProcedureSummariesAreContextSensitive) {
  // two() adds exactly two; called from two different contexts.
  Program P = parse(R"(
    proc main {
      call two;
      check(x);
      call two;
      check(x);
    }
    proc two { x = new h1; x = new h1; }
  )");
  EXPECT_EQ(statesAt(P, CheckId(0)), (std::set<unsigned>{2}));
  EXPECT_EQ(statesAt(P, CheckId(1)), (std::set<unsigned>{4}));
}

TEST(Forward, RecursionReachesFixpoint) {
  Program P = parse(R"(
    proc main { call rec; check(x); }
    proc rec { x = new h1; if { call rec; } }
  )");
  // rec adds 1..Max (saturating): recursion depth is unbounded.
  EXPECT_EQ(statesAt(P, CheckId(0)), (std::set<unsigned>{1, 2, 3, 4, 5}));
}

TEST(Forward, ChecksInsideCalleesSeeAllContexts) {
  Program P = parse(R"(
    proc main {
      call probe;
      x = new h1;
      call probe;
    }
    proc probe { check(x); }
  )");
  EXPECT_EQ(statesAt(P, CheckId(0)), (std::set<unsigned>{0, 1}));
}

TEST(Forward, NestedLoopsAndReset) {
  Program P = parse(R"(
    proc main {
      loop {
        x = null;
        loop { x = new h1; }
      }
      check(x);
    }
  )");
  EXPECT_EQ(statesAt(P, CheckId(0)), (std::set<unsigned>{0, 1, 2, 3, 4, 5}));
}

//===----------------------------------------------------------------------===//
// Trace extraction
//===----------------------------------------------------------------------===//

/// Extracts a trace for every state reaching the check and validates it by
/// replaying: the replayed final state must be the target and the replayed
/// prefix must match the engine's state sequence.
void checkAllTracesValid(const char *Src, CheckId Check = CheckId(0)) {
  Program P = parse(Src);
  CounterClient C;
  CounterClient::Param Prm{5};
  ForwardAnalysis<CounterClient> FA(P, C, Prm);
  FA.run(0);
  std::vector<unsigned> AtCheck = FA.statesAtCheck(Check);
  EXPECT_FALSE(AtCheck.empty());
  for (unsigned Target : AtCheck) {
    auto T = FA.extractTrace(Check, Target);
    ASSERT_TRUE(T.has_value()) << "no trace for target " << Target;
    for (CommandId Cmd : *T)
      EXPECT_NE(P.command(Cmd).Kind, CmdKind::Invoke)
          << "traces must expand procedure calls";
    std::vector<unsigned> States = FA.replay(*T, 0);
    EXPECT_EQ(States.size(), T->size() + 1);
    EXPECT_EQ(States.back(), Target);
  }
}

TEST(TraceExtraction, StraightLine) {
  checkAllTracesValid("proc main { x = new h1; x = new h2; check(x); }");
}

TEST(TraceExtraction, Choice) {
  checkAllTracesValid(R"(
    proc main {
      choice { x = new h1; } or { x = null; } or { x = new h1; x = new h2; }
      check(x);
    }
  )");
}

TEST(TraceExtraction, LoopNeedsUnrolling) {
  checkAllTracesValid(R"(
    proc main { loop { x = new h1; } check(x); }
  )");
}

TEST(TraceExtraction, AcrossProcedures) {
  checkAllTracesValid(R"(
    proc main { call a; call a; check(x); }
    proc a { if { x = new h1; } else { call b; } }
    proc b { x = new h1; x = new h1; }
  )");
}

TEST(TraceExtraction, InsideCalleeCheck) {
  checkAllTracesValid(R"(
    proc main { x = new h1; call probe; x = new h1; call probe; }
    proc probe { check(x); }
  )");
}

TEST(TraceExtraction, ThroughRecursion) {
  checkAllTracesValid(R"(
    proc main { call rec; check(x); }
    proc rec { x = new h1; if { call rec; } }
  )");
}

TEST(TraceExtraction, LoopInsideCalleeWithReset) {
  checkAllTracesValid(R"(
    proc main { loop { call body; } check(x); }
    proc body { choice { x = new h1; } or { x = null; } }
  )");
}

TEST(TraceExtraction, TraceForUnreachedStateFails) {
  Program P = parse("proc main { x = new h1; check(x); }");
  CounterClient C;
  ForwardAnalysis<CounterClient> FA(P, C, CounterClient::Param{5});
  FA.run(0);
  EXPECT_FALSE(FA.extractTrace(CheckId(0), 3u).has_value());
}

/// Records every saveTo() call, tagged with its width, for comparison.
struct RecordingSink {
  std::vector<std::pair<char, uint64_t>> Records;
  void u32(uint32_t V) { Records.push_back({'w', V}); }
  void u64(uint64_t V) { Records.push_back({'d', V}); }
  void state(unsigned S) { Records.push_back({'s', S}); }
};

TEST(TraceExtraction, UnknownTargetLeavesTheRunUntouched) {
  // A state the run never reached is looked up, not interned: the run
  // (which the driver may cache and snapshot) must not grow.
  Program P = parse("proc main { x = new h1; check(x); }");
  CounterClient C;
  ForwardAnalysis<CounterClient> FA(P, C, CounterClient::Param{5});
  FA.run(0);
  size_t NumStates = FA.stats().NumStates;
  RecordingSink Before;
  FA.saveTo(Before);

  EXPECT_TRUE(FA.extractTraces(CheckId(0), 4u, 3).empty());

  EXPECT_EQ(FA.stats().NumStates, NumStates);
  RecordingSink After;
  FA.saveTo(After);
  EXPECT_EQ(After.Records, Before.Records);
}

//===----------------------------------------------------------------------===//
// State-interner footprint and dead-variable pruning
//===----------------------------------------------------------------------===//

TEST(StateInterner, ApproxBytesGrowsWithDistinctStatesOnly) {
  optabs::dataflow::StateInterner<unsigned, CounterClient::StateHash> I;
  size_t Empty = I.approxBytes();
  for (unsigned S = 0; S < 64; ++S)
    I.intern(S);
  EXPECT_EQ(I.size(), 64u);
  size_t Full = I.approxBytes();
  EXPECT_GT(Full, Empty);
  // The estimate covers at least the stored states themselves.
  EXPECT_GE(Full, 64 * sizeof(unsigned));
  // Re-interning existing states mints no ids and allocates nothing.
  for (unsigned S = 0; S < 64; ++S)
    EXPECT_LT(I.intern(S), 64u);
  EXPECT_EQ(I.size(), 64u);
  EXPECT_EQ(I.approxBytes(), Full);
}

/// Tracks per variable whether it currently holds a fresh allocation (one
/// bit per variable index). Exposes the optional pruneState hook, so the
/// engine can forget dead variables and collapse states that differ only
/// in them.
struct BitsClient {
  struct Param {};
  using State = uint32_t;
  struct StateHash {
    size_t operator()(uint32_t S) const { return S; }
  };

  State transfer(const Command &Cmd, const State &In, const Param &) const {
    auto Bit = [](VarId V) { return 1u << V.index(); };
    switch (Cmd.Kind) {
    case CmdKind::New:
      return In | Bit(Cmd.Dst);
    case CmdKind::Null:
      return In & ~Bit(Cmd.Dst);
    case CmdKind::Copy:
      return (In & Bit(Cmd.Src)) ? (In | Bit(Cmd.Dst)) : (In & ~Bit(Cmd.Dst));
    default:
      return In;
    }
  }

  void pruneState(State &S, const optabs::BitSet &Live) const {
    State Keep = 0;
    for (size_t I = 0; I < Live.size() && I < 32; ++I)
      if (Live.test(I))
        Keep |= 1u << I;
    S &= Keep;
  }
};

TEST(Forward, PruningCollapsesDeadVariableStates) {
  // x and w are dead the moment they are assigned; only y reaches the
  // check. Without pruning the two choices make four distinct states at
  // the check; with pruning they collapse to one.
  Program P = parse(R"(
    proc main {
      choice { x = new h1; } or { x = null; }
      choice { w = new h2; } or { w = null; }
      y = new h3;
      check(y);
    }
  )");
  BitsClient C;
  ForwardAnalysis<BitsClient> Plain(P, C, BitsClient::Param{});
  Plain.run(0);
  CommandLiveness L(P);
  ForwardAnalysis<BitsClient> Pruned(P, C, BitsClient::Param{}, &L);
  Pruned.run(0);

  // The live variable's verdict bit is identical in every reached state.
  unsigned YBit = 1u << P.findVar("y").index();
  for (BitsClient::State S : Plain.statesAtCheck(CheckId(0)))
    EXPECT_TRUE(S & YBit);
  ASSERT_EQ(Pruned.statesAtCheck(CheckId(0)).size(), 1u);
  EXPECT_TRUE(Pruned.statesAtCheck(CheckId(0)).front() & YBit);
  EXPECT_EQ(Plain.statesAtCheck(CheckId(0)).size(), 4u);

  // Collapsing dead-variable diversity shrinks the interner and the
  // footprint estimate the forward-run cache's resident-bytes gauge uses.
  EXPECT_LT(Pruned.stats().NumStates, Plain.stats().NumStates);
  EXPECT_LE(Pruned.approxMemoryBytes(), Plain.approxMemoryBytes());
}

TEST(Forward, LoadFromRejectsOversizedStateSetClaims) {
  Program P = parse("proc main { x = new h1; check(x); }");
  CounterClient C;
  ForwardAnalysis<CounterClient> FA(P, C, CounterClient::Param{5});

  // A crafted record stream: two interned states, then a value cell
  // claiming a ~4 billion element state set. A valid set is bounded by
  // the interned table, so the claim must fail structurally before it
  // can size a 16 GiB reservation.
  struct FakeSource {
    std::vector<uint64_t> Vals;
    size_t I = 0;
    std::string Err;
    bool next(uint64_t &V) {
      if (I >= Vals.size())
        return false;
      V = Vals[I++];
      return true;
    }
    bool u32(uint32_t &V) {
      uint64_t X = 0;
      if (!next(X))
        return false;
      V = static_cast<uint32_t>(X);
      return true;
    }
    bool u64(uint64_t &V) { return next(V); }
    bool state(unsigned &S) {
      uint32_t X = 0;
      if (!u32(X))
        return false;
      S = X;
      return true;
    }
    void fail(const std::string &What) { Err = What; }
  };
  FakeSource S;
  S.Vals = {0,           // fixpoint round
            2, 7, 9,     // two distinct interned states
            0,           // initial state id
            1,           // one tabulated value cell
            42,          // its key
            0xffffffffu}; // claimed set size
  EXPECT_FALSE(FA.loadFrom(S));
  EXPECT_NE(S.Err.find("state set larger"), std::string::npos) << S.Err;
}

TEST(Forward, StatsArePopulated) {
  Program P = parse("proc main { loop { x = new h1; } check(x); }");
  CounterClient C;
  ForwardAnalysis<CounterClient> FA(P, C, CounterClient::Param{5});
  FA.run(0);
  const auto &S = FA.stats();
  EXPECT_GE(S.NumStates, 6u);
  EXPECT_GT(S.NumPairs, 0u);
  EXPECT_GT(S.NumVisits, 0u);
  EXPECT_GE(S.NumRounds, 1u);
}

} // namespace
