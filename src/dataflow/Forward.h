//===- Forward.h - Generic parametric forward analysis ---------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generic parametric (disjunctive) forward dataflow analysis of §3.2 /
/// Figure 3, instantiated over a client analysis:
///
/// \code
///   struct Client {
///     using Param = ...;                 // the abstraction p in P
///     using State = ...;                 // an element d of the finite D
///     struct StateHash { size_t operator()(const State&) const; };
///     // The parameterized transfer function [a]_p : D -> D. Only called
///     // for client commands (never Invoke).
///     State transfer(const ir::Command &Cmd, const State &In,
///                    const Param &P) const;
///     // Optional: forget the variable components outside Live (detected
///     // by SFINAE). When present and the engine is built with a
///     // CommandLiveness, every transfer output is pruned to the command's
///     // live-out variables before interning, so states differing only in
///     // dead variables collapse to one id. Exact for verdicts: a dead
///     // variable is, by construction, never read by any continuation.
///     void pruneState(State &S, const BitSet &Live) const;
///   };
/// \endcode
///
/// The engine computes, on demand from main's body and an initial state,
/// the least solution of
///
///   F_p[a](D)     = { [a]_p(d) | d in D }
///   F_p[s;s'](D)  = F_p[s'](F_p[s](D))
///   F_p[s+s'](D)  = F_p[s](D) u F_p[s'](D)
///   F_p[s*](D)    = leastFix lam D0. D u F_p[s](D0)
///
/// extended with procedure summaries for Invoke commands (the RHS-style
/// tabulation of the paper's implementation: an Invoke is analyzed by
/// tabulating its callee's body per entry state, with chaotic iteration to
/// a global fixpoint, so the analysis is fully context-sensitive).
///
/// One round evaluates every demanded (statement, entry) key once and
/// reads a key again only after its evaluation has finished, unless the
/// key is still on the evaluation stack: a recursion cut, which only
/// recursion through Invoke causes, reads the value so far. A round without
/// a cut built every value from finished values alone, so it reached the
/// least fixpoint and run() stops; after a round with a cut, rounds repeat
/// until one changes nothing. A client command's atom cell holds its one
/// transfer output, a function of (command, entry state) only: a filled
/// cell is final, later rounds do not evaluate it again, and it is the
/// run's only transfer memo.
///
/// Because the analysis is disjunctive, Lemma 1 applies: every abstract
/// state reaching a check site is witnessed by a single trace whose
/// per-command semantics is deterministic. extractWitnesses() reconstructs
/// such an abstract counterexample trace, with the state id at each of its
/// points, for the backward meta-analysis.
///
/// The witness search is a depth-first walk of the statement tree guided
/// by the tabulated values, and it only reads the finished run: each step
/// of a witness is read from its command's atom cell (ir::Program::atomOf),
/// so extraction neither interns a state nor fills a cell, and a cached or
/// snapshotted run is the same before and after it. The search's mutable
/// parts - the two cycle stacks and the reachable-set frames - live in a
/// caller-owned Scratch reused across extractions. Given an ir::CheckReach,
/// the search skips every subtree that cannot reach the check, and a Seq
/// computes its children's reachable sets once, only up to the last child
/// that can reach it. None of this changes which witness is found: the
/// order of the search, Choice rotation included, is that of the plain
/// walk. The states along a witness are read by reference (statesOf()),
/// so the backward pass copies none; replay() remains as a copying helper
/// for tests and examples.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_DATAFLOW_FORWARD_H
#define OPTABS_DATAFLOW_FORWARD_H

#include "dataflow/FlatTable.h"
#include "dataflow/StateInterner.h"
#include "ir/CheckReach.h"
#include "ir/Liveness.h"
#include "ir/Program.h"
#include "ir/Trace.h"
#include "support/BitSet.h"
#include "support/Budget.h"
#include "support/Metrics.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace optabs {
namespace dataflow {

/// A set of interned states, kept sorted and duplicate-free.
using StateSet = std::vector<StateId>;

/// State sets lent to the levels of a recursive walk and reused across
/// walks: a level takes cleared sets on entry and gives them back when it
/// returns. A deque, so a level's sets stay put while deeper levels take
/// theirs.
class SetStack {
public:
  class Level {
  public:
    Level(SetStack &Stack, size_t N) : Stack(Stack) {
      if (Stack.Depth == Stack.Levels.size())
        Stack.Levels.emplace_back();
      Sets = &Stack.Levels[Stack.Depth];
      if (Sets->size() < N)
        Sets->resize(N);
      for (size_t I = 0; I < N; ++I)
        (*Sets)[I].clear();
      ++Stack.Depth; // last, so a throw above leaves the depth as it was
    }
    ~Level() { --Stack.Depth; }
    Level(const Level &) = delete;
    Level &operator=(const Level &) = delete;
    StateSet &operator[](size_t I) { return (*Sets)[I]; }
    const std::vector<StateSet> &sets() const { return *Sets; }

  private:
    SetStack &Stack;
    std::vector<StateSet> *Sets;
  };

private:
  std::deque<std::vector<StateSet>> Levels;
  size_t Depth = 0;
};

/// Statistics of one forward run, reported by the benchmark harnesses.
struct ForwardStats {
  size_t NumStates = 0;   ///< distinct abstract states interned
  size_t NumPairs = 0;    ///< tabulated (statement, entry-state) pairs
  size_t NumVisits = 0;   ///< key evaluations; atom cells evaluate once
  size_t NumRounds = 0;   ///< outer rounds: 1 unless a recursion cut fired
};

namespace detail {
/// True when the client exposes the optional pruneState(State&, BitSet)
/// dead-variable hook (see the file comment).
template <typename ClientT, typename StateT, typename = void>
struct HasPruneState : std::false_type {};
template <typename ClientT, typename StateT>
struct HasPruneState<
    ClientT, StateT,
    std::void_t<decltype(std::declval<const ClientT &>().pruneState(
        std::declval<StateT &>(), std::declval<const BitSet &>()))>>
    : std::true_type {};
} // namespace detail

template <typename Client> class ForwardAnalysis {
public:
  using Param = typename Client::Param;
  using State = typename Client::State;

  /// When \p Live is non-null and the client exposes pruneState, every
  /// transfer output is restricted to the command's live-out variables
  /// before interning. When \p MayReach is non-null, the witness search
  /// skips subtrees that cannot reach the check it extracts for. Both
  /// must outlive the analysis.
  ForwardAnalysis(const ir::Program &P, const Client &C, Param Prm,
                  const ir::CommandLiveness *Live = nullptr,
                  const ir::CheckReach *MayReach = nullptr)
      : P(P), C(C), Prm(std::move(Prm)), Live(Live), MayReach(MayReach) {}

  /// Runs the analysis from \p Init to the global least fixpoint. When
  /// \p G is set, every state visit charges it; an exhausted gate stops the
  /// chaotic iteration at the next visit and leaves the run in a *partial*
  /// under-fixpoint state — exhausted() is then true and the caller must
  /// not classify queries against or cache this run (the table may still
  /// grow, so "no bad state reached" proves nothing). Because visits are
  /// counted by this task alone, the cut point is the same at any worker
  /// count.
  void run(const State &Init, support::BudgetGate *G = nullptr) {
    Gate = G;
    Exhaustion.reset();
    InitId = Interner.intern(Init);
    ir::StmtId Root = P.proc(P.main()).Body;
    // A round without a cut is exact (see the file comment).
    do {
      Changed = Cut = false;
      ++Round; // invalidates every cell's RoundSeen mark at once
      ++Stats.NumRounds;
      visit(Root, InitId);
    } while (Changed && Cut && !Exhaustion);
    Gate = nullptr;
    Pool = SetStack(); // a cached run keeps no scratch
    if (support::metricsEnabled()) {
      auto &Reg = support::MetricRegistry::global();
      static auto &Rounds = Reg.histogram("optabs_forward_fixpoint_rounds");
      static auto &States = Reg.histogram("optabs_forward_states");
      static auto &Visits = Reg.counter("optabs_forward_visits_total");
      Rounds.record(Stats.NumRounds);
      States.record(Interner.size());
      Visits.add(Stats.NumVisits);
    }
  }

  /// True when the last run() was cut short by its budget gate. A run in
  /// this state is a partial under-fixpoint: sound to extract nothing
  /// from, unsound to classify against or cache.
  bool exhausted() const { return Exhaustion.has_value(); }
  const std::optional<support::Exhausted> &exhaustion() const {
    return Exhaustion;
  }

  /// All abstract states reaching check site \p Check (i.e. flowing into
  /// its Check command), across all calling contexts.
  std::vector<State> statesAtCheck(ir::CheckId Check) const {
    std::vector<State> Result;
    for (StateId Id : statesAtCheckIds(Check))
      Result.push_back(Interner.state(Id));
    return Result;
  }

  /// Id-based variant of statesAtCheck(): the sorted interned ids, without
  /// copying any state. Resolve ids with state(). This is what the TRACER
  /// driver iterates every CEGAR iteration; it is read-only and safe to
  /// call concurrently as long as no thread mutates this analysis (after
  /// run(), only replay() and loadFrom() do).
  const StateSet &statesAtCheckIds(ir::CheckId Check) const {
    static const StateSet Empty;
    auto It = CheckStates.find(Check.index());
    return It == CheckStates.end() ? Empty : It->second;
  }

  /// One abstract counterexample: a trace from program entry to a check
  /// and the interned state at each of its points. States[0] is the
  /// initial state, States[I] the state after command I, and
  /// States.back() the state flowing into the check.
  struct Witness {
    ir::Trace T;
    std::vector<StateId> States;
  };

  /// The witness search's reusable buffers: its two cycle stacks and its
  /// reachable-set frames. The caller owns them, not the run, so a cached
  /// run carries none; use one per thread.
  class Scratch {
    friend class ForwardAnalysis;
    TripleSet PrefixStack, ThroughStack;
    SetStack Levels; ///< the reachable-set frames
  };

  /// Extracts up to \p MaxCount *distinct* counterexample witnesses along
  /// which the run computes state \p Target at check site \p Check, by
  /// rotating the exploration order of Choice branches. Distinct traces
  /// expose independent failure causes, which the multi-counterexample
  /// mode of the TRACER driver conjoins (§8's DAG-counterexample
  /// direction). Invoke commands are expanded into callee steps; traces
  /// hold only client commands. Empty only when \p Target does not reach
  /// the check. Reads the run only, so any number of threads may extract
  /// from one run at once, each with its own \p W.
  std::vector<Witness> extractWitnesses(ir::CheckId Check, StateId Target,
                                        size_t MaxCount, Scratch &W) const {
    std::vector<Witness> Result;
    if (!contains(statesAtCheckIds(Check), Target))
      return Result;
    for (unsigned R = 0; R < 2 * MaxCount + 1 && Result.size() < MaxCount;
         ++R) {
      // Empty unless an exception unwound the last search mid-way.
      W.PrefixStack.clear();
      W.ThroughStack.clear();
      ir::Trace T;
      if (!Search(*this, W, Check, Target, R)
               .findPrefix(P.proc(P.main()).Body, InitId, T))
        break;
      if (std::none_of(Result.begin(), Result.end(),
                       [&](const Witness &X) { return X.T == T; }))
        Result.push_back({std::move(T), {}});
    }
    for (Witness &X : Result)
      X.States = statesAlong(X.T);
    return Result;
  }

  /// The traces of extractWitnesses() for a state given by value, with a
  /// scratch of their own; empty when \p Target does not reach the check.
  std::vector<ir::Trace> extractTraces(ir::CheckId Check, const State &Target,
                                       size_t MaxCount) const {
    std::vector<ir::Trace> Traces;
    std::optional<StateId> Found = Interner.find(Target);
    if (!Found)
      return Traces;
    Scratch W;
    for (Witness &X : extractWitnesses(Check, *Found, MaxCount, W))
      Traces.push_back(std::move(X.T));
    return Traces;
  }

  /// One trace of extractTraces(), or nullopt when \p Target does not
  /// reach the check.
  std::optional<ir::Trace> extractTrace(ir::CheckId Check,
                                        const State &Target) const {
    std::vector<ir::Trace> Traces = extractTraces(Check, Target, 1);
    if (Traces.empty())
      return std::nullopt;
    return std::move(Traces.front());
  }

  /// The states of a witness, read by reference from this run's interner.
  /// Indexes like the std::vector<State> that replay() returns, without
  /// copying a state; valid while the run and \p Ids are.
  class StateSeq {
  public:
    StateSeq(const ForwardAnalysis &F, const std::vector<StateId> &Ids)
        : F(F), Ids(Ids) {}
    size_t size() const { return Ids.size(); }
    const State &operator[](size_t I) const { return F.state(Ids[I]); }
    const State &back() const { return F.state(Ids.back()); }

  private:
    const ForwardAnalysis &F;
    const std::vector<StateId> &Ids;
  };
  StateSeq statesOf(const Witness &W) const { return {*this, W.States}; }

  /// Replays \p T from \p Init, returning copies of the states d0..dn
  /// with d0 = Init and d_{i} the state after command i. A helper for
  /// tests and examples; it interns, so it must not run concurrently with
  /// anything else on this run. The driver reads extractWitnesses()'
  /// state ids through statesOf() instead.
  std::vector<State> replay(const ir::Trace &T, const State &Init) {
    std::vector<State> States;
    States.reserve(T.size() + 1);
    StateId Cur = Interner.intern(Init);
    States.push_back(Interner.state(Cur));
    for (ir::CommandId Cmd : T) {
      Cur = applyCommand(Cmd, Cur);
      States.push_back(Interner.state(Cur));
    }
    return States;
  }

  /// The interned initial state of the last run().
  StateId initId() const { return InitId; }

  /// The tabulated value of (\p S, \p In): the states F_p[S]({In}) at
  /// the fixpoint, or the empty set when the pair was never demanded. The
  /// reference stays valid until the run changes.
  const StateSet &value(ir::StmtId S, StateId In) const {
    static const StateSet Empty;
    const Cell *Found = Values.find(makeKey(S, In));
    return Found ? Found->Set : Empty;
  }

  /// The client this run analyses with.
  const Client &client() const { return C; }

  const ForwardStats &stats() const {
    Stats.NumStates = Interner.size();
    Stats.NumPairs = Values.size();
    return Stats;
  }

  const State &state(StateId Id) const { return Interner.state(Id); }

  /// Serializes the complete fixpoint state through \p S, which must
  /// provide u32(uint32_t), u64(uint64_t), and state(const State &). The
  /// encoding is deterministic: interned states are emitted in id order
  /// (so a round-trip preserves every StateId) and the unordered tables
  /// are emitted sorted by key. Exhausted runs are never cached, so
  /// exhaustion state is not part of the format; loadFrom() yields a
  /// non-exhausted run.
  template <typename SinkT> void saveTo(SinkT &S) const {
    S.u32(static_cast<uint32_t>(Interner.size()));
    for (StateId Id = 0; Id < Interner.size(); ++Id)
      S.state(Interner.state(Id));
    S.u32(InitId);
    std::vector<const typename FlatTable<Cell>::Entry *> SortedValues;
    SortedValues.reserve(Values.size());
    for (const auto &E : Values.entries())
      SortedValues.push_back(&E);
    std::sort(SortedValues.begin(), SortedValues.end(),
              [](const auto *A, const auto *B) { return A->K < B->K; });
    S.u32(static_cast<uint32_t>(Values.size()));
    for (const auto *E : SortedValues) {
      S.u64(E->K);
      S.u32(static_cast<uint32_t>(E->Value.Set.size()));
      for (StateId Id : E->Value.Set)
        S.u32(Id);
    }
    std::vector<uint32_t> Checks;
    Checks.reserve(CheckStates.size());
    for (const auto &KV : CheckStates)
      Checks.push_back(KV.first);
    std::sort(Checks.begin(), Checks.end());
    S.u32(static_cast<uint32_t>(Checks.size()));
    for (uint32_t C : Checks) {
      const StateSet &Set = CheckStates.find(C)->second;
      S.u32(C);
      S.u32(static_cast<uint32_t>(Set.size()));
      for (StateId Id : Set)
        S.u32(Id);
    }
  }

  /// Restores a run saved by saveTo() into this (freshly constructed)
  /// analysis. \p S must provide bool u32(uint32_t&), bool u64(uint64_t&),
  /// bool state(State&), and void fail(const std::string&). Returns false
  /// on any framing or consistency violation - truncated records, state
  /// ids out of range, or duplicate interned states (which would renumber
  /// ids) - leaving a structured reason in the source. A run that fails to
  /// load must be discarded; nothing about it is usable.
  template <typename SourceT> bool loadFrom(SourceT &S) {
    uint32_t NumStates = 0;
    if (!S.u32(NumStates))
      return false;
    for (uint32_t I = 0; I < NumStates; ++I) {
      State St;
      if (!S.state(St))
        return false;
      if (Interner.intern(St) != I) {
        S.fail("duplicate interned state (ids would renumber)");
        return false;
      }
    }
    auto ValidId = [&](uint32_t Id) { return Id < NumStates; };
    uint32_t Init32 = 0;
    if (!S.u32(Init32))
      return false;
    if (NumStates > 0 && !ValidId(Init32)) {
      S.fail("initial state id out of range");
      return false;
    }
    InitId = Init32;
    auto LoadSet = [&](StateSet &Set) {
      uint32_t N = 0;
      if (!S.u32(N))
        return false;
      // A valid set is strictly increasing ids below NumStates, so its
      // size is bounded by the interned table; a larger claim is damage
      // and must fail before it can drive the reserve below.
      if (N > NumStates) {
        S.fail("state set larger than the interned state table");
        return false;
      }
      Set.clear();
      Set.reserve(N);
      uint32_t Prev = 0;
      for (uint32_t I = 0; I < N; ++I) {
        uint32_t Id = 0;
        if (!S.u32(Id))
          return false;
        if (!ValidId(Id) || (I > 0 && Id <= Prev)) {
          S.fail("state set not a sorted set of valid ids");
          return false;
        }
        Prev = Id;
        Set.push_back(Id);
      }
      return true;
    };
    uint32_t NumValues = 0;
    if (!S.u32(NumValues))
      return false;
    for (uint32_t I = 0; I < NumValues; ++I) {
      uint64_t K = 0;
      if (!S.u64(K))
        return false;
      Cell C;
      if (!LoadSet(C.Set))
        return false;
      Values.insert(K, std::move(C));
    }
    uint32_t NumChecks = 0;
    if (!S.u32(NumChecks))
      return false;
    for (uint32_t I = 0; I < NumChecks; ++I) {
      uint32_t C = 0;
      if (!S.u32(C))
        return false;
      if (!LoadSet(CheckStates[C]))
        return false;
    }
    return true;
  }

  /// Approximate heap footprint of this run: interned states plus the
  /// tabulation. Feeds the forward-run cache's resident-bytes gauge; an
  /// estimate, not exact accounting.
  size_t approxMemoryBytes() const {
    size_t Bytes = Interner.approxBytes() + Values.approxBytes();
    for (const auto &E : Values.entries())
      Bytes += E.Value.Set.capacity() * sizeof(StateId);
    for (const auto &KV : CheckStates)
      Bytes += KV.second.capacity() * sizeof(StateId) + sizeof(KV);
    return Bytes;
  }

private:
  //===--------------------------------------------------------------------===
  // Fixpoint engine
  //===--------------------------------------------------------------------===

  using Key = uint64_t;
  static Key makeKey(ir::StmtId S, StateId In) {
    return (static_cast<uint64_t>(S.index()) << 32) | In;
  }

  /// One tabulation entry: the accumulated value of a (statement, entry)
  /// pair plus the per-round visit mark and recursion flag, so a visit
  /// costs one probe.
  struct Cell {
    StateSet Set;
    uint64_t RoundSeen = 0; ///< Round of the last evaluation (0 = never)
    bool OnStack = false;   ///< currently on the evaluation stack
  };

  /// The client transfer of \p Cmd on \p In, pruned to the command's
  /// live-out variables when the engine has a liveness table.
  State transferState(ir::CommandId Cmd, StateId In) const {
    const ir::Command &Command = P.command(Cmd);
    assert(ir::isClientCommand(Command.Kind) &&
           "Invoke is expanded by the engine, not by transfer functions");
    State OutState = C.transfer(Command, Interner.state(In), Prm);
    if constexpr (detail::HasPruneState<Client, State>::value) {
      if (Live)
        C.pruneState(OutState, Live->liveOut(Cmd));
    }
    return OutState;
  }

  /// Applies the client transfer for a single command on a single state
  /// and interns its output.
  StateId applyCommand(ir::CommandId Cmd, StateId In) {
    return Interner.intern(transferState(Cmd, In));
  }

  static void addState(StateSet &Set, StateId Id) {
    auto It = std::lower_bound(Set.begin(), Set.end(), Id);
    if (It == Set.end() || *It != Id)
      Set.insert(It, Id);
  }

  static bool contains(const StateSet &Set, StateId Id) {
    return std::binary_search(Set.begin(), Set.end(), Id);
  }

  /// Evaluates F_p[S]({In}) under the current table, updating the table
  /// monotonically. Within one outer round each key is evaluated once;
  /// recursion through Invoke is broken by returning the current value for
  /// keys already on the evaluation stack (a cut, recorded in Cut), with
  /// the outer rounds restoring the fixpoint. The returned reference points
  /// into Values and stays valid only until the next insert into Values
  /// (the next visit()).
  const StateSet &visit(ir::StmtId S, StateId In) {
    auto [Idx, Inserted] = Values.insert(makeKey(S, In));
    Cell &Slot = Values.at(Idx);
    if (!Inserted && Slot.RoundSeen == Round) {
      Cut |= Slot.OnStack;
      return Slot.Set;
    }
    const ir::Stmt &Node = P.stmt(S);
    bool IsTransfer = Node.Kind == ir::StmtKind::Atom &&
                      P.command(Node.Cmd).Kind != ir::CmdKind::Invoke;
    // A client command's filled cell is its one, final transfer output.
    if (IsTransfer && !Slot.Set.empty())
      return Slot.Set;
    if (Gate && !Gate->charge()) {
      // Budget exhausted: refuse the evaluation (the key stays unmarked and
      // NumVisits unbumped) and return the stored value so the recursion
      // unwinds quickly — every enclosing Seq/Star loop sees a stable value
      // and the outer loop stops on the Exhaustion flag.
      Exhaustion = Gate->why();
      return Slot.Set;
    }
    Slot.RoundSeen = Round;
    ++Stats.NumVisits;
    if (IsTransfer) {
      const ir::Command &Cmd = P.command(Node.Cmd);
      if (Cmd.Kind == ir::CmdKind::Check)
        addState(CheckStates[Cmd.Check.index()], In);
      // Interning touches no cell, so Slot is still valid.
      Slot.Set.push_back(applyCommand(Node.Cmd, In));
      Changed = true;
      return Slot.Set;
    }
    Slot.OnStack = true;
    SetStack::Level Sets(Pool, 2);
    evaluate(Node, In, Sets);
    const StateSet &Fresh = Sets[0];
    // evaluate() visits other keys, whose inserts may move every cell:
    // re-fetch the cell by its stable dense index instead of trusting Slot.
    Cell &Stored = Values.at(Idx);
    Stored.OnStack = false;
    if (Stored.Set.empty()) {
      Changed |= !Fresh.empty();
      Stored.Set = Fresh;
      return Stored.Set;
    }
    for (StateId Id : Fresh) {
      if (!contains(Stored.Set, Id)) {
        addState(Stored.Set, Id);
        Changed = true;
      }
    }
    return Stored.Set;
  }

  /// Writes F_p[Node]({In}) for a composite statement or an Invoke atom
  /// into Sets[0], using Sets[1] as a buffer; visit() evaluates client
  /// commands itself.
  void evaluate(const ir::Stmt &Node, StateId In, SetStack::Level &Sets) {
    StateSet &Out = Sets[0];
    switch (Node.Kind) {
    case ir::StmtKind::Atom:
      // Tabulate the callee: F_p[invoke q]({In}) = F_p[body(q)]({In}).
      Out = visit(P.proc(P.command(Node.Cmd).Callee).Body, In);
      return;
    case ir::StmtKind::Seq: {
      // Out holds the states before each child in turn.
      Out.push_back(In);
      StateSet &Next = Sets[1];
      for (ir::StmtId Child : Node.Children) {
        Next.clear();
        for (StateId Id : Out)
          for (StateId Succ : visit(Child, Id))
            addState(Next, Succ);
        Out.swap(Next);
        if (Out.empty())
          break;
      }
      return;
    }
    case ir::StmtKind::Choice:
      for (ir::StmtId Child : Node.Children)
        for (StateId Succ : visit(Child, In))
          addState(Out, Succ);
      return;
    case ir::StmtKind::Star: {
      // leastFix lam D0. {In} u F_p[child](D0), iterated locally; stale
      // child values within this round are repaired by the outer rounds.
      Out.push_back(In);
      StateSet &Snapshot = Sets[1];
      bool Grew = true;
      while (Grew) {
        Grew = false;
        Snapshot = Out;
        for (StateId Id : Snapshot) {
          for (StateId Succ : visit(Node.Children[0], Id)) {
            if (!contains(Out, Succ)) {
              addState(Out, Succ);
              Grew = true;
            }
          }
        }
      }
      return;
    }
    }
  }

  //===--------------------------------------------------------------------===
  // Witness (abstract counterexample trace) reconstruction
  //===--------------------------------------------------------------------===

  /// The state ids along \p T from the initial state, each step read
  /// from its command's atom cell.
  std::vector<StateId> statesAlong(const ir::Trace &T) const {
    std::vector<StateId> Ids;
    Ids.reserve(T.size() + 1);
    Ids.push_back(InitId);
    for (ir::CommandId Cmd : T) {
      // The search accepted every step of T on exactly these ids.
      const StateSet &Next = value(P.atomOf(Cmd), Ids.back());
      assert(Next.size() == 1 && "a witness step left the run's cells");
      Ids.push_back(Next.front());
    }
    return Ids;
  }

  /// One depth-first witness search for (Check, Target) under one Choice
  /// rotation. Reads the run only; its cycle stacks and reachable sets
  /// live in the caller's Scratch. Subtrees that cannot reach the check
  /// (ir::CheckReach) are skipped before any work: a prefix search there
  /// never succeeds and leaves no trace behind, so skipping it changes no
  /// result.
  class Search {
  public:
    Search(const ForwardAnalysis &F, Scratch &W, ir::CheckId Check,
           StateId Target, unsigned Rotation)
        : F(F), P(F.P), W(W), Check(Check),
          CheckCmd(F.P.checkSite(Check).Command), Target(Target),
          Rotation(Rotation) {}

    /// Finds a trace prefix through S from In that ends exactly at the
    /// check command with incoming state Target.
    bool findPrefix(ir::StmtId S, StateId In, ir::Trace &T) {
      if (!mayReach(S) || !W.PrefixStack.insert(S.index(), In, Target))
        return false;
      bool Found = findPrefixImpl(S, In, T);
      W.PrefixStack.erase(S.index(), In, Target);
      return Found;
    }

  private:
    using Level = SetStack::Level;

    bool mayReach(ir::StmtId S) const {
      return !F.MayReach || F.MayReach->reaches(S, Check);
    }

    /// Fills Reach[0, N) with Reach[0] = {In} and Reach[I + 1] =
    /// F_p[Children[I]](Reach[I]): Reach[I] holds the states before child
    /// I, and N = Children.size() + 1 adds the states after the last.
    void reachBefore(const std::vector<ir::StmtId> &Children, size_t N,
                     StateId In, Level &Reach) {
      Reach[0].push_back(In);
      for (size_t I = 0; I + 1 < N; ++I)
        for (StateId Id : Reach[I])
          for (StateId Succ : F.value(Children[I], Id))
            addState(Reach[I + 1], Succ);
    }

    /// Finds a full trace through S transforming In to Out. Completeness
    /// relies on minimal derivations never repeating a (S, In, Out) triple
    /// on one derivation path, so such repetitions are pruned.
    bool findThrough(ir::StmtId S, StateId In, StateId Out, ir::Trace &T) {
      if (!contains(F.value(S, In), Out) ||
          !W.ThroughStack.insert(S.index(), In, Out))
        return false;
      bool Found = findThroughImpl(S, In, Out, T);
      W.ThroughStack.erase(S.index(), In, Out);
      return Found;
    }

    bool findThroughImpl(ir::StmtId S, StateId In, StateId Out,
                         ir::Trace &T) {
      const ir::Stmt &Node = P.stmt(S);
      switch (Node.Kind) {
      case ir::StmtKind::Atom: {
        const ir::Command &Cmd = P.command(Node.Cmd);
        if (Cmd.Kind == ir::CmdKind::Invoke)
          return findThrough(P.proc(Cmd.Callee).Body, In, Out, T);
        // findThrough() found Out in this atom's cell, its one output.
        T.push_back(Node.Cmd);
        return true;
      }
      case ir::StmtKind::Seq: {
        size_t N = Node.Children.size();
        if (N == 0)
          return In == Out;
        // Forward-propagate reachable sets to prune the backward choice.
        Level Reach(W.Levels, N + 1);
        reachBefore(Node.Children, N + 1, In, Reach);
        if (!contains(Reach[N], Out))
          return false;
        return findThroughSeq(Node.Children, N, Reach.sets(), Out, T);
      }
      case ir::StmtKind::Choice: {
        size_t N = Node.Children.size();
        for (size_t J = 0; J < N; ++J) {
          ir::StmtId Child = Node.Children[(J + Rotation) % N];
          size_t Mark = T.size();
          if (findThrough(Child, In, Out, T))
            return true;
          T.resize(Mark);
        }
        return false;
      }
      case ir::StmtKind::Star: {
        Level OnPath(W.Levels, 1);
        OnPath[0].push_back(In);
        return starSearch(Node.Children[0], In, Out, OnPath[0], T);
      }
      }
      return false;
    }

    /// DFS over the one-iteration successor relation of a star body: finds
    /// a simple path of states In = s0 -> s1 -> ... -> Out (each step one
    /// full body execution) and expands each step with findThrough. A
    /// witness over a simple state path always exists when Out is
    /// star-reachable from In, because repeated states can be excised from
    /// any witness.
    bool starSearch(ir::StmtId Body, StateId Cur, StateId Out,
                    StateSet &OnPath, ir::Trace &T) {
      if (Cur == Out)
        return true;
      for (StateId Succ : F.value(Body, Cur)) {
        if (contains(OnPath, Succ))
          continue;
        size_t Mark = T.size();
        if (findThrough(Body, Cur, Succ, T)) {
          addState(OnPath, Succ);
          if (starSearch(Body, Succ, Out, OnPath, T))
            return true;
          // Keep Succ on the path for this search: a different route
          // through it cannot reach Out either (reachability is
          // route-independent).
        }
        T.resize(Mark);
      }
      return false;
    }

    /// Finds a trace through Children[0, End) from Reach[0][0] to Out.
    /// Recurses on the last child: chooses an intermediate state X before
    /// it, solves the shorter prefix first (so the trace is emitted
    /// left-to-right), then expands the last child. Backtracks over
    /// candidate X on failure. Reach[I] holds the states before child I.
    bool findThroughSeq(const std::vector<ir::StmtId> &Children, size_t End,
                        const std::vector<StateSet> &Reach, StateId Out,
                        ir::Trace &T) {
      if (End == 0)
        return Out == Reach[0][0];
      ir::StmtId Last = Children[End - 1];
      for (StateId X : Reach[End - 1]) {
        if (!contains(F.value(Last, X), Out))
          continue;
        size_t Mark = T.size();
        if (findThroughSeq(Children, End - 1, Reach, X, T) &&
            findThrough(Last, X, Out, T))
          return true;
        T.resize(Mark);
      }
      return false;
    }

    bool findPrefixImpl(ir::StmtId S, StateId In, ir::Trace &T) {
      const ir::Stmt &Node = P.stmt(S);
      switch (Node.Kind) {
      case ir::StmtKind::Atom: {
        const ir::Command &Cmd = P.command(Node.Cmd);
        if (Node.Cmd == CheckCmd)
          return In == Target;
        if (Cmd.Kind == ir::CmdKind::Invoke)
          return findPrefix(P.proc(Cmd.Callee).Body, In, T);
        return false;
      }
      case ir::StmtKind::Seq: {
        // The check lies inside child I; the trace passes fully through
        // children [0, I) and then a prefix of child I. Children after the
        // last one that can reach the check are never I, so their
        // reachable sets are not computed.
        const std::vector<ir::StmtId> &Children = Node.Children;
        size_t N = Children.size();
        while (N > 0 && !mayReach(Children[N - 1]))
          --N;
        if (N == 0)
          return false;
        Level Reach(W.Levels, N);
        reachBefore(Children, N, In, Reach);
        for (size_t I = 0; I < N; ++I) {
          if (!mayReach(Children[I]))
            continue;
          for (StateId X : Reach[I]) {
            // Probe the cheap leg first: whether the check (with state
            // Target) is reachable from X inside child I. Only the winning
            // candidate pays for the full witness of the children before
            // I. The accepted (I, X) pair is the first for which both legs
            // succeed - the same pair the through-first order accepts -
            // and each leg emits its subtrace deterministically, so
            // rotating the suffix behind the through part yields the
            // through-first trace.
            size_t Mark = T.size();
            if (!findPrefix(Children[I], X, T))
              continue;
            size_t Split = T.size();
            if (!findThroughSeq(Children, I, Reach.sets(), X, T)) {
              T.resize(Mark);
              continue;
            }
            std::rotate(T.begin() + Mark, T.begin() + Split, T.end());
            return true;
          }
        }
        return false;
      }
      case ir::StmtKind::Choice: {
        size_t N = Node.Children.size();
        for (size_t J = 0; J < N; ++J) {
          ir::StmtId Child = Node.Children[(J + Rotation) % N];
          size_t Mark = T.size();
          if (findPrefix(Child, In, T))
            return true;
          T.resize(Mark);
        }
        return false;
      }
      case ir::StmtKind::Star: {
        // The check occurs within some iteration: reach X via the star,
        // then take a prefix of the body from X. Sets[0] is the star
        // closure of In, Sets[1] its worklist, Sets[2] a star path.
        ir::StmtId Body = Node.Children[0];
        Level Sets(W.Levels, 3);
        StateSet &Reachable = Sets[0];
        StateSet &Work = Sets[1];
        Reachable.push_back(In);
        Work.push_back(In);
        while (!Work.empty()) {
          StateId Id = Work.back();
          Work.pop_back();
          for (StateId Succ : F.value(Body, Id))
            if (!contains(Reachable, Succ)) {
              addState(Reachable, Succ);
              Work.push_back(Succ);
            }
        }
        // Prefix leg first, as in the Seq case: the accepted X and the
        // trace are those of the star-path-first order.
        for (StateId X : Reachable) {
          size_t Mark = T.size();
          if (!findPrefix(Body, X, T))
            continue;
          size_t Split = T.size();
          StateSet &OnPath = Sets[2];
          OnPath.assign(1, In);
          if (!starSearch(Body, In, X, OnPath, T)) {
            T.resize(Mark);
            continue;
          }
          std::rotate(T.begin() + Mark, T.begin() + Split, T.end());
          return true;
        }
        return false;
      }
      }
      return false;
    }

    const ForwardAnalysis &F;
    const ir::Program &P;
    Scratch &W;
    ir::CheckId Check;
    ir::CommandId CheckCmd;
    StateId Target;
    unsigned Rotation;
  };

  const ir::Program &P;
  const Client &C;
  Param Prm;
  const ir::CommandLiveness *Live = nullptr;
  const ir::CheckReach *MayReach = nullptr;

  StateInterner<State, typename Client::StateHash> Interner;
  StateId InitId = 0;

  FlatTable<Cell> Values;
  std::unordered_map<uint32_t, StateSet> CheckStates;
  uint64_t Round = 0;
  bool Changed = false;
  bool Cut = false; ///< this round read a key still on the stack
  SetStack Pool; ///< evaluate()'s sets; emptied after run()
  support::BudgetGate *Gate = nullptr;
  std::optional<support::Exhausted> Exhaustion;

  mutable ForwardStats Stats;
};

} // namespace dataflow
} // namespace optabs

#endif // OPTABS_DATAFLOW_FORWARD_H
