//===- ForwardTest.cpp - Unit tests for the forward analysis engine ----------===//
//
// Exercises the generic engine with a deliberately simple client (a
// saturating counter of New commands) so that reachable state sets and
// witness traces can be predicted by hand.
//
//===----------------------------------------------------------------------===//

#include "dataflow/Forward.h"

#include "escape/Escape.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "synth/Generator.h"

#include "gtest/gtest.h"

#include <set>

namespace {

using namespace optabs::ir;
using optabs::dataflow::ForwardAnalysis;
using optabs::dataflow::StateId;
using optabs::dataflow::StateSet;

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
  S.Vals = {2, 7, 9,     // two distinct interned states
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

//===----------------------------------------------------------------------===//
// One round without a cut: the engine against the multi-round loop
//===----------------------------------------------------------------------===//

namespace oracle {

/// The engine's fixpoint loop as it was before runs stopped after a
/// cut-free round: whole rounds repeat until one changes nothing, and
/// every transfer is memoised beside the tabulation. No liveness pruning.
template <typename Client> class ForwardAnalysis {
public:
  using Param = typename Client::Param;
  using State = typename Client::State;

  ForwardAnalysis(const Program &P, const Client &C, Param Prm)
      : P(P), C(C), Prm(std::move(Prm)) {}

  void run(const State &Init) {
    InitId = Interner.intern(Init);
    StmtId Root = P.proc(P.main()).Body;
    do {
      Changed = false;
      ++Round;
      visit(Root, InitId);
    } while (Changed);
  }

  size_t rounds() const { return Round; }
  size_t numStates() const { return Interner.size(); }
  const State &state(StateId Id) const { return Interner.state(Id); }
  const auto &values() const { return Values.entries(); }
  const StateSet &statesAtCheckIds(CheckId Check) const {
    static const StateSet Empty;
    auto It = CheckStates.find(Check.index());
    return It == CheckStates.end() ? Empty : It->second;
  }

private:
  struct Cell {
    StateSet Set;
    uint64_t RoundSeen = 0;
    bool OnStack = false;
  };

  static uint64_t makeKey(uint32_t Index, StateId In) {
    return (static_cast<uint64_t>(Index) << 32) | In;
  }

  StateId applyCommand(CommandId Cmd, StateId In) {
    uint64_t K = makeKey(Cmd.index(), In);
    if (const StateId *Memo = TransferMemo.find(K))
      return *Memo;
    StateId Out =
        Interner.intern(C.transfer(P.command(Cmd), Interner.state(In), Prm));
    TransferMemo.insert(K, Out);
    return Out;
  }

  static void addState(StateSet &Set, StateId Id) {
    auto It = std::lower_bound(Set.begin(), Set.end(), Id);
    if (It == Set.end() || *It != Id)
      Set.insert(It, Id);
  }

  static bool contains(const StateSet &Set, StateId Id) {
    return std::binary_search(Set.begin(), Set.end(), Id);
  }

  const StateSet &visit(StmtId S, StateId In) {
    auto [Idx, Inserted] = Values.insert(makeKey(S.index(), In));
    Cell &Slot = Values.at(Idx);
    if (!Inserted && (Slot.RoundSeen == Round || Slot.OnStack))
      return Slot.Set;
    Slot.RoundSeen = Round;
    Slot.OnStack = true;
    StateSet Fresh = evaluate(S, In);
    Cell &Stored = Values.at(Idx);
    Stored.OnStack = false;
    for (StateId Id : Fresh) {
      if (!contains(Stored.Set, Id)) {
        addState(Stored.Set, Id);
        Changed = true;
      }
    }
    return Stored.Set;
  }

  StateSet evaluate(StmtId S, StateId In) {
    const Stmt &Node = P.stmt(S);
    switch (Node.Kind) {
    case StmtKind::Atom: {
      const Command &Cmd = P.command(Node.Cmd);
      if (Cmd.Kind == CmdKind::Invoke)
        return visit(P.proc(Cmd.Callee).Body, In);
      if (Cmd.Kind == CmdKind::Check)
        addState(CheckStates[Cmd.Check.index()], In);
      return {applyCommand(Node.Cmd, In)};
    }
    case StmtKind::Seq: {
      StateSet Cur{In};
      for (StmtId Child : Node.Children) {
        StateSet Next;
        for (StateId Id : Cur)
          for (StateId Out : visit(Child, Id))
            addState(Next, Out);
        Cur = std::move(Next);
        if (Cur.empty())
          break;
      }
      return Cur;
    }
    case StmtKind::Choice: {
      StateSet Result;
      for (StmtId Child : Node.Children)
        for (StateId Out : visit(Child, In))
          addState(Result, Out);
      return Result;
    }
    case StmtKind::Star: {
      StateSet D{In};
      bool Grew = true;
      while (Grew) {
        Grew = false;
        StateSet Snapshot = D;
        for (StateId Id : Snapshot) {
          for (StateId Out : visit(Node.Children[0], Id)) {
            if (!contains(D, Out)) {
              addState(D, Out);
              Grew = true;
            }
          }
        }
      }
      return D;
    }
    }
    return {};
  }

  const Program &P;
  const Client &C;
  Param Prm;
  optabs::dataflow::StateInterner<State, typename Client::StateHash>
      Interner;
  StateId InitId = 0;
  optabs::dataflow::FlatTable<Cell> Values;
  optabs::dataflow::FlatTable<StateId> TransferMemo;
  std::unordered_map<uint32_t, StateSet> CheckStates;
  uint64_t Round = 0;
  bool Changed = false;
};

} // namespace oracle

/// Runs the engine and the oracle on \p P from \p Init and compares every
/// tabulated value, the states at every check, and the interned states in
/// id order. Returns the engine's and the oracle's round counts.
template <typename Client>
std::pair<size_t, size_t>
compareWithOracle(const Program &P, const Client &C,
                  const typename Client::Param &Prm,
                  const typename Client::State &Init) {
  ForwardAnalysis<Client> Engine(P, C, Prm);
  Engine.run(Init);
  oracle::ForwardAnalysis<Client> Oracle(P, C, Prm);
  Oracle.run(Init);

  EXPECT_EQ(Engine.stats().NumPairs, Oracle.values().size());
  for (const auto &E : Oracle.values()) {
    StmtId S(static_cast<uint32_t>(E.K >> 32));
    StateId In = static_cast<StateId>(E.K);
    EXPECT_EQ(Engine.value(S, In), E.Value.Set)
        << "statement " << S.index() << ", entry state " << In;
  }
  for (uint32_t I = 0; I < P.numChecks(); ++I)
    EXPECT_EQ(Engine.statesAtCheckIds(CheckId(I)),
              Oracle.statesAtCheckIds(CheckId(I)))
        << "check " << I;
  EXPECT_EQ(Engine.stats().NumStates, Oracle.numStates());
  for (StateId Id = 0; Id < Engine.stats().NumStates && Id < Oracle.numStates();
       ++Id)
    EXPECT_TRUE(Engine.state(Id) == Oracle.state(Id)) << "state id " << Id;
  return {Engine.stats().NumRounds, Oracle.rounds()};
}

/// Recursive programs whose fixpoints take a recursion cut. On most of
/// them round 1 leaves some table short, so only the repeated rounds reach
/// the fixpoint.
const char *const RecursiveSources[] = {
    // RobustnessTest's fixture: the call follows the update.
    R"(
      proc main { call rec; check(x); }
      proc rec { x = new h1; if { call rec; } }
    )",
    // The call precedes the update, so every round adds one state.
    R"(
      proc main { call rec; check(x); }
      proc rec { if { call rec; } x = new h1; }
    )",
    // Mutual recursion.
    R"(
      proc main { call even; check(x); }
      proc even { if { call odd; } x = new h1; }
      proc odd { if { call even; } x = new h1; x = new h2; }
    )",
    // Recursion under a Star, with a reset.
    R"(
      proc main { loop { call rec; check(x); } }
      proc rec { choice { x = null; } or { loop { call rec; } x = new h1; } }
    )",
};

TEST(ForwardRounds, RecursiveFixpointsMatchTheMultiRoundLoop) {
  size_t NeedManyRounds = 0;
  for (const char *Src : RecursiveSources) {
    SCOPED_TRACE(Src);
    Program P = parse(Src);
    CounterClient C;
    auto [Rounds, OracleRounds] =
        compareWithOracle(P, C, CounterClient::Param{5}, 0u);
    // A cut fired, so the engine kept iterating as the oracle does.
    EXPECT_EQ(Rounds, OracleRounds);
    EXPECT_GE(Rounds, 2u);
    NeedManyRounds += OracleRounds > 2;

    optabs::escape::EscapeAnalysis A(P);
    for (bool Bit : {false, true}) {
      auto [EscRounds, EscOracleRounds] = compareWithOracle(
          P, A, A.paramFromBits(std::vector<bool>(A.numParamBits(), Bit)),
          A.initialState());
      EXPECT_EQ(EscRounds, EscOracleRounds);
      EXPECT_GE(EscRounds, 2u);
    }
  }
  // Round 2 grew some table, so stopping after round 1 would be wrong.
  EXPECT_GE(NeedManyRounds, 3u);
}

TEST(ForwardRounds, CutFreeSuiteProgramTakesOneRound) {
  optabs::synth::Benchmark B =
      optabs::synth::generate(optabs::synth::paperSuite()[0]);
  optabs::escape::EscapeAnalysis A(B.P);
  auto [Rounds, OracleRounds] = compareWithOracle(
      B.P, A, A.paramFromBits({}), A.initialState());
  EXPECT_EQ(Rounds, 1u);
  // The oracle's second round confirmed the first.
  EXPECT_EQ(OracleRounds, 2u);
}

} // namespace
