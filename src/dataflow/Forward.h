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
/// Because the analysis is disjunctive, Lemma 1 applies: every abstract
/// state reaching a check site is witnessed by a single trace whose
/// per-command semantics is deterministic. extractTrace() reconstructs such
/// an abstract counterexample trace for the backward meta-analysis.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_DATAFLOW_FORWARD_H
#define OPTABS_DATAFLOW_FORWARD_H

#include "dataflow/FlatTable.h"
#include "dataflow/StateInterner.h"
#include "ir/Liveness.h"
#include "ir/Program.h"
#include "ir/Trace.h"
#include "support/BitSet.h"
#include "support/Budget.h"
#include "support/Metrics.h"

#include <algorithm>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace optabs {
namespace dataflow {

/// A set of interned states, kept sorted and duplicate-free.
using StateSet = std::vector<StateId>;

/// Statistics of one forward run, reported by the benchmark harnesses.
struct ForwardStats {
  size_t NumStates = 0;   ///< distinct abstract states interned
  size_t NumPairs = 0;    ///< tabulated (statement, entry-state) pairs
  size_t NumVisits = 0;   ///< visit() evaluations across all rounds
  size_t NumRounds = 0;   ///< outer chaotic-iteration rounds
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
  /// before interning. \p Live must outlive the analysis.
  ForwardAnalysis(const ir::Program &P, const Client &C, Param Prm,
                  const ir::CommandLiveness *Live = nullptr)
      : P(P), C(C), Prm(std::move(Prm)), Live(Live) {}

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
    do {
      Changed = false;
      ++Round; // invalidates every cell's RoundSeen mark at once
      ++Stats.NumRounds;
      visit(Root, InitId);
    } while (Changed && !Exhaustion);
    Gate = nullptr;
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
  /// call concurrently as long as no thread mutates this analysis (trace
  /// extraction and replay mutate).
  const StateSet &statesAtCheckIds(ir::CheckId Check) const {
    static const StateSet Empty;
    auto It = CheckStates.find(Check.index());
    return It == CheckStates.end() ? Empty : It->second;
  }

  /// Reconstructs an abstract counterexample trace from program entry to
  /// check site \p Check along which the analysis computes \p Target at the
  /// check. Invoke commands are expanded into callee steps; the trace
  /// contains only client commands. Returns nullopt only if \p Target does
  /// not actually reach the check (callers pass states from
  /// statesAtCheck(), so a result is guaranteed).
  std::optional<ir::Trace> extractTrace(ir::CheckId Check,
                                        const State &Target) {
    auto Traces = extractTraces(Check, Target, 1);
    if (Traces.empty())
      return std::nullopt;
    return std::move(Traces.front());
  }

  /// Extracts up to \p MaxCount *distinct* counterexample traces for the
  /// same failing state by rotating the exploration order of Choice
  /// branches. Distinct traces expose independent failure causes, which
  /// the multi-counterexample mode of the TRACER driver conjoins (§8's
  /// DAG-counterexample direction).
  std::vector<ir::Trace> extractTraces(ir::CheckId Check,
                                       const State &Target,
                                       size_t MaxCount) {
    std::vector<ir::Trace> Result;
    auto It = CheckStates.find(Check.index());
    if (It == CheckStates.end())
      return Result;
    // Look the target up without interning it: a state the run never
    // reached must not grow a run that may be cached and snapshotted.
    std::optional<StateId> Found = Interner.find(Target);
    if (!Found || !contains(It->second, *Found))
      return Result;
    StateId TargetId = *Found;
    ir::CommandId CheckCmd = P.checkSite(Check).Command;
    for (unsigned R = 0; R < 2 * MaxCount + 1 && Result.size() < MaxCount;
         ++R) {
      Rotation = R;
      ir::Trace T;
      PrefixStack.clear();
      ThroughStack.clear();
      if (!findPrefix(P.proc(P.main()).Body, InitId, CheckCmd, TargetId, T))
        break;
      if (std::find(Result.begin(), Result.end(), T) == Result.end())
        Result.push_back(std::move(T));
    }
    Rotation = 0;
    return Result;
  }

  /// Replays \p T from \p Init, returning the state sequence d0..dn with
  /// d0 = Init and d_{i} the state after command i. Used by the backward
  /// meta-analysis, which needs F_p[t](d) at every trace point (Figure 7).
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
    S.u64(Round);
    S.u32(static_cast<uint32_t>(Interner.size()));
    for (StateId Id = 0; Id < Interner.size(); ++Id)
      S.state(Interner.state(Id));
    S.u32(InitId);
    auto SortedByKey = [](const auto &Table) {
      std::vector<const typename std::decay_t<decltype(Table)>::Entry *> Es;
      Es.reserve(Table.size());
      for (const auto &E : Table.entries())
        Es.push_back(&E);
      std::sort(Es.begin(), Es.end(),
                [](const auto *A, const auto *B) { return A->K < B->K; });
      return Es;
    };
    S.u32(static_cast<uint32_t>(Values.size()));
    for (const auto *E : SortedByKey(Values)) {
      S.u64(E->K);
      S.u32(static_cast<uint32_t>(E->Value.Set.size()));
      for (StateId Id : E->Value.Set)
        S.u32(Id);
    }
    S.u32(static_cast<uint32_t>(TransferMemo.size()));
    for (const auto *E : SortedByKey(TransferMemo)) {
      S.u64(E->K);
      S.u32(E->Value);
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
    if (!S.u64(Round) || !S.u32(NumStates))
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
    uint32_t NumMemo = 0;
    if (!S.u32(NumMemo))
      return false;
    for (uint32_t I = 0; I < NumMemo; ++I) {
      uint64_t K = 0;
      uint32_t Out = 0;
      if (!S.u64(K) || !S.u32(Out))
        return false;
      if (!ValidId(Out)) {
        S.fail("transfer memo output id out of range");
        return false;
      }
      TransferMemo.insert(K, Out);
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
  /// tabulation/memo tables. Feeds the forward-run cache's resident-bytes
  /// gauge; an estimate, not exact accounting.
  size_t approxMemoryBytes() const {
    size_t Bytes = Interner.approxBytes() + Values.approxBytes() +
                   TransferMemo.approxBytes();
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

  /// Applies the client transfer (or expands summaries for Invoke) for a
  /// single command on a single state, memoized.
  StateId applyCommand(ir::CommandId Cmd, StateId In) {
    const ir::Command &Command = P.command(Cmd);
    assert(ir::isClientCommand(Command.Kind) &&
           "Invoke is expanded by the engine, not by transfer functions");
    Key K = (static_cast<uint64_t>(Cmd.index()) << 32) | In;
    if (const StateId *Memo = TransferMemo.find(K))
      return *Memo;
    State OutState = C.transfer(Command, Interner.state(In), Prm);
    if constexpr (detail::HasPruneState<Client, State>::value) {
      if (Live)
        C.pruneState(OutState, Live->liveOut(Cmd));
    }
    StateId Out = Interner.intern(OutState);
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

  /// Evaluates F_p[S]({In}) under the current table, updating the table
  /// monotonically. Within one outer round each key is evaluated once;
  /// recursion through Invoke is broken by returning the current value for
  /// keys already on the evaluation stack, with the outer rounds restoring
  /// the fixpoint. The returned reference points into Values and stays
  /// valid only until the next insert into Values (the next visit()).
  const StateSet &visit(ir::StmtId S, StateId In) {
    auto [Idx, Inserted] = Values.insert(makeKey(S, In));
    Cell &Slot = Values.at(Idx);
    if (!Inserted && (Slot.RoundSeen == Round || Slot.OnStack))
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
    Slot.OnStack = true;
    ++Stats.NumVisits;

    StateSet Fresh = evaluate(S, In);

    // evaluate() visits other keys, whose inserts may move every cell:
    // re-fetch the cell by its stable dense index instead of trusting Slot.
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

  StateSet evaluate(ir::StmtId S, StateId In) {
    const ir::Stmt &Node = P.stmt(S);
    switch (Node.Kind) {
    case ir::StmtKind::Atom: {
      const ir::Command &Cmd = P.command(Node.Cmd);
      if (Cmd.Kind == ir::CmdKind::Invoke) {
        // Tabulate the callee: F_p[invoke q]({In}) = F_p[body(q)]({In}).
        return visit(P.proc(Cmd.Callee).Body, In);
      }
      if (Cmd.Kind == ir::CmdKind::Check)
        addState(CheckStates[Cmd.Check.index()], In);
      return {applyCommand(Node.Cmd, In)};
    }
    case ir::StmtKind::Seq: {
      StateSet Cur{In};
      for (ir::StmtId Child : Node.Children) {
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
    case ir::StmtKind::Choice: {
      StateSet Result;
      for (ir::StmtId Child : Node.Children)
        for (StateId Out : visit(Child, In))
          addState(Result, Out);
      return Result;
    }
    case ir::StmtKind::Star: {
      // leastFix lam D0. {In} u F_p[child](D0), iterated locally; stale
      // child values within this round are repaired by the outer rounds.
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

  //===--------------------------------------------------------------------===
  // Witness (abstract counterexample trace) reconstruction
  //===--------------------------------------------------------------------===

  /// Final tabulated value for (S, In); empty set when never demanded.
  /// Like visit(), the reference is valid until the next insert into
  /// Values; trace extraction never inserts there.
  const StateSet &finalValue(ir::StmtId S, StateId In) const {
    static const StateSet Empty;
    const Cell *Found = Values.find(makeKey(S, In));
    return Found ? Found->Set : Empty;
  }

  struct TripleHash {
    size_t operator()(const std::tuple<uint32_t, StateId, StateId> &T) const {
      auto [A, B, C] = T;
      uint64_t X = (static_cast<uint64_t>(A) << 32) ^
                   (static_cast<uint64_t>(B) << 16) ^ C;
      X *= 0x9e3779b97f4a7c15ULL;
      return static_cast<size_t>(X ^ (X >> 29));
    }
  };

  /// Finds a full trace through S transforming In to Out. Completeness
  /// relies on minimal derivations never repeating a (S, In, Out) triple on
  /// one derivation path, so such repetitions are pruned.
  bool findThrough(ir::StmtId S, StateId In, StateId Out, ir::Trace &T) {
    std::tuple<uint32_t, StateId, StateId> Trip{S.index(), In, Out};
    if (ThroughStack.count(Trip))
      return false;
    if (!contains(finalValue(S, In), Out))
      return false;
    ThroughStack.insert(Trip);
    bool Found = findThroughImpl(S, In, Out, T);
    ThroughStack.erase(Trip);
    return Found;
  }

  bool findThroughImpl(ir::StmtId S, StateId In, StateId Out, ir::Trace &T) {
    const ir::Stmt &Node = P.stmt(S);
    switch (Node.Kind) {
    case ir::StmtKind::Atom: {
      const ir::Command &Cmd = P.command(Node.Cmd);
      if (Cmd.Kind == ir::CmdKind::Invoke)
        return findThrough(P.proc(Cmd.Callee).Body, In, Out, T);
      if (applyCommand(Node.Cmd, In) != Out)
        return false;
      T.push_back(Node.Cmd);
      return true;
    }
    case ir::StmtKind::Seq:
      return findThroughSeq(Node.Children, 0, Node.Children.size(), In, Out,
                            T);
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
      StateSet OnPath{In};
      return starSearch(Node.Children[0], In, Out, OnPath, T);
    }
    }
    return false;
  }

  /// DFS over the one-iteration successor relation of a star body: finds a
  /// simple path of states In = s0 -> s1 -> ... -> Out (each step one full
  /// body execution) and expands each step with findThrough. A witness over
  /// a simple state path always exists when Out is star-reachable from In,
  /// because repeated states can be excised from any witness.
  bool starSearch(ir::StmtId Body, StateId Cur, StateId Out,
                  StateSet &OnPath, ir::Trace &T) {
    if (Cur == Out)
      return true;
    for (StateId Succ : finalValue(Body, Cur)) {
      if (contains(OnPath, Succ))
        continue;
      size_t Mark = T.size();
      if (findThrough(Body, Cur, Succ, T)) {
        addState(OnPath, Succ);
        if (starSearch(Body, Succ, Out, OnPath, T))
          return true;
        // Keep Succ on the path for this search: a different route through
        // it cannot reach Out either (reachability is route-independent).
      }
      T.resize(Mark);
    }
    return false;
  }

  bool findThroughSeq(const std::vector<ir::StmtId> &Children, size_t Begin,
                      size_t End, StateId In, StateId Out, ir::Trace &T) {
    if (Begin == End)
      return In == Out;
    // Forward-propagate reachable sets to prune the backward choice.
    std::vector<StateSet> Reach;
    Reach.push_back({In});
    for (size_t I = Begin; I < End; ++I) {
      StateSet Next;
      for (StateId Id : Reach.back())
        for (StateId Succ : finalValue(Children[I], Id))
          addState(Next, Succ);
      Reach.push_back(std::move(Next));
    }
    if (!contains(Reach.back(), Out))
      return false;
    return findThroughSeqRec(Children, Begin, End, Reach, Out, T);
  }

  /// Recurses on the last child of the (sub-)sequence: chooses an
  /// intermediate state X before it, solves the shorter prefix first (so
  /// the trace is emitted left-to-right), then expands the last child.
  /// Backtracks over candidate X on failure.
  bool findThroughSeqRec(const std::vector<ir::StmtId> &Children,
                         size_t Begin, size_t End,
                         const std::vector<StateSet> &Reach, StateId Out,
                         ir::Trace &T) {
    size_t N = End - Begin;
    if (N == 0)
      return Out == Reach[0][0];
    ir::StmtId Last = Children[End - 1];
    for (StateId X : Reach[N - 1]) {
      if (!contains(finalValue(Last, X), Out))
        continue;
      size_t Mark = T.size();
      if (findThroughSeqRec(Children, Begin, End - 1, Reach, X, T) &&
          findThrough(Last, X, Out, T))
        return true;
      T.resize(Mark);
    }
    return false;
  }

  /// Finds a trace prefix through S from In that ends exactly at CheckCmd
  /// with incoming state Target.
  bool findPrefix(ir::StmtId S, StateId In, ir::CommandId CheckCmd,
                  StateId Target, ir::Trace &T) {
    std::tuple<uint32_t, StateId, StateId> Trip{S.index(), In, Target};
    if (PrefixStack.count(Trip))
      return false;
    PrefixStack.insert(Trip);
    bool Found = findPrefixImpl(S, In, CheckCmd, Target, T);
    PrefixStack.erase(Trip);
    return Found;
  }

  bool findPrefixImpl(ir::StmtId S, StateId In, ir::CommandId CheckCmd,
                      StateId Target, ir::Trace &T) {
    const ir::Stmt &Node = P.stmt(S);
    switch (Node.Kind) {
    case ir::StmtKind::Atom: {
      const ir::Command &Cmd = P.command(Node.Cmd);
      if (Node.Cmd == CheckCmd)
        return In == Target;
      if (Cmd.Kind == ir::CmdKind::Invoke)
        return findPrefix(P.proc(Cmd.Callee).Body, In, CheckCmd, Target, T);
      return false;
    }
    case ir::StmtKind::Seq: {
      // The check lies inside child I; the trace passes fully through
      // children [0, I) and then a prefix of child I.
      std::vector<StateSet> Reach;
      Reach.push_back({In});
      for (size_t I = 0; I < Node.Children.size(); ++I) {
        StateSet Next;
        for (StateId Id : Reach.back())
          for (StateId Succ : finalValue(Node.Children[I], Id))
            addState(Next, Succ);
        Reach.push_back(std::move(Next));
      }
      for (size_t I = 0; I < Node.Children.size(); ++I) {
        for (StateId X : Reach[I]) {
          // Probe the cheap leg first: whether the check (with state
          // Target) is reachable from X inside child I. Only the winning
          // candidate pays for the full witness of the children before I.
          // The accepted (I, X) pair is the first for which both legs
          // succeed - the same pair the through-first order accepts - and
          // both legs emit their subtraces deterministically, so the
          // resulting trace is unchanged.
          ir::Trace Suffix;
          if (!findPrefix(Node.Children[I], X, CheckCmd, Target, Suffix))
            continue;
          size_t Mark = T.size();
          if (!findThroughSeq(Node.Children, 0, I, In, X, T)) {
            T.resize(Mark);
            continue;
          }
          T.insert(T.end(), Suffix.begin(), Suffix.end());
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
        if (findPrefix(Child, In, CheckCmd, Target, T))
          return true;
        T.resize(Mark);
      }
      return false;
    }
    case ir::StmtKind::Star: {
      // The check occurs within some iteration: reach X via the star, then
      // take a prefix of the body from X.
      StateSet Reachable{In};
      bool Grew = true;
      while (Grew) {
        Grew = false;
        StateSet Snapshot = Reachable;
        for (StateId Id : Snapshot)
          for (StateId Succ : finalValue(Node.Children[0], Id))
            if (!contains(Reachable, Succ)) {
              addState(Reachable, Succ);
              Grew = true;
            }
      }
      for (StateId X : Reachable) {
        size_t Mark = T.size();
        StateSet OnPath{In};
        if (starSearch(Node.Children[0], In, X, OnPath, T) &&
            findPrefix(Node.Children[0], X, CheckCmd, Target, T))
          return true;
        T.resize(Mark);
      }
      return false;
    }
    }
    return false;
  }

  const ir::Program &P;
  const Client &C;
  Param Prm;
  const ir::CommandLiveness *Live = nullptr;

  StateInterner<State, typename Client::StateHash> Interner;
  StateId InitId = 0;

  FlatTable<Cell> Values;
  FlatTable<StateId> TransferMemo;
  std::unordered_map<uint32_t, StateSet> CheckStates;
  uint64_t Round = 0;
  bool Changed = false;
  support::BudgetGate *Gate = nullptr;
  std::optional<support::Exhausted> Exhaustion;

  std::unordered_set<std::tuple<uint32_t, StateId, StateId>, TripleHash>
      PrefixStack, ThroughStack;
  unsigned Rotation = 0;

  mutable ForwardStats Stats;
};

} // namespace dataflow
} // namespace optabs

#endif // OPTABS_DATAFLOW_FORWARD_H
