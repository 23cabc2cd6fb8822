//===- WitnessOracleTest.cpp - Witness search against the plain DFS -------===//
//
// The witness search skips subtrees that cannot reach the check, shares a
// Seq's reachable sets between its two legs, reuses its buffers across
// extractions and reads states from the atom cells instead of replaying.
// None of that may change which witness it finds: the backward pass and
// the beam depend on the exact trace. This test keeps the plain
// depth-first search the engine used before those changes as an oracle
// and checks, for both clients, every failing state at every check and the
// Choice rotations the driver tries, that the engine returns the identical
// traces and, along each, the identical state sequence.
//
//===----------------------------------------------------------------------===//

#include "WitnessFixture.h"

#include <tuple>
#include <unordered_set>

namespace {

using namespace optabs;
using namespace witness_fixture;
using dataflow::StateId;
using dataflow::StateSet;

/// The plain witness search: every subtree is searched, reachable sets are
/// rebuilt per call, and the cycle stacks are node-based sets. It reads
/// the run through its public accessors only.
template <typename Analysis> class PlainSearch {
public:
  using Forward = dataflow::ForwardAnalysis<Analysis>;

  PlainSearch(const ir::Program &P, const Forward &F) : P(P), F(F) {}

  std::vector<ir::Trace> extract(ir::CheckId Check, StateId Target,
                                 size_t MaxCount) {
    std::vector<ir::Trace> Result;
    if (!contains(F.statesAtCheckIds(Check), Target))
      return Result;
    ir::CommandId CheckCmd = P.checkSite(Check).Command;
    for (unsigned R = 0; R < 2 * MaxCount + 1 && Result.size() < MaxCount;
         ++R) {
      Rotation = R;
      ir::Trace T;
      PrefixStack.clear();
      ThroughStack.clear();
      if (!findPrefix(P.proc(P.main()).Body, F.initId(), CheckCmd, Target,
                      T))
        break;
      if (std::find(Result.begin(), Result.end(), T) == Result.end())
        Result.push_back(std::move(T));
    }
    return Result;
  }

private:
  using Triple = std::tuple<uint32_t, StateId, StateId>;
  struct TripleHash {
    size_t operator()(const Triple &T) const {
      auto [A, B, C] = T;
      uint64_t X = (static_cast<uint64_t>(A) << 32) ^
                   (static_cast<uint64_t>(B) << 16) ^ C;
      X *= 0x9e3779b97f4a7c15ULL;
      return static_cast<size_t>(X ^ (X >> 29));
    }
  };

  static bool contains(const StateSet &Set, StateId Id) {
    return std::binary_search(Set.begin(), Set.end(), Id);
  }
  static void addState(StateSet &Set, StateId Id) {
    auto It = std::lower_bound(Set.begin(), Set.end(), Id);
    if (It == Set.end() || *It != Id)
      Set.insert(It, Id);
  }

  bool findThrough(ir::StmtId S, StateId In, StateId Out, ir::Trace &T) {
    Triple Trip{S.index(), In, Out};
    if (ThroughStack.count(Trip))
      return false;
    if (!contains(F.value(S, In), Out))
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
      // findThrough() found Out in this atom's value, {transfer(In)}.
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
      }
      T.resize(Mark);
    }
    return false;
  }

  bool findThroughSeq(const std::vector<ir::StmtId> &Children, size_t Begin,
                      size_t End, StateId In, StateId Out, ir::Trace &T) {
    if (Begin == End)
      return In == Out;
    std::vector<StateSet> Reach;
    Reach.push_back({In});
    for (size_t I = Begin; I < End; ++I) {
      StateSet Next;
      for (StateId Id : Reach.back())
        for (StateId Succ : F.value(Children[I], Id))
          addState(Next, Succ);
      Reach.push_back(std::move(Next));
    }
    if (!contains(Reach.back(), Out))
      return false;
    return findThroughSeqRec(Children, Begin, End, Reach, Out, T);
  }

  bool findThroughSeqRec(const std::vector<ir::StmtId> &Children,
                         size_t Begin, size_t End,
                         const std::vector<StateSet> &Reach, StateId Out,
                         ir::Trace &T) {
    size_t N = End - Begin;
    if (N == 0)
      return Out == Reach[0][0];
    ir::StmtId Last = Children[End - 1];
    for (StateId X : Reach[N - 1]) {
      if (!contains(F.value(Last, X), Out))
        continue;
      size_t Mark = T.size();
      if (findThroughSeqRec(Children, Begin, End - 1, Reach, X, T) &&
          findThrough(Last, X, Out, T))
        return true;
      T.resize(Mark);
    }
    return false;
  }

  bool findPrefix(ir::StmtId S, StateId In, ir::CommandId CheckCmd,
                  StateId Target, ir::Trace &T) {
    Triple Trip{S.index(), In, Target};
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
      std::vector<StateSet> Reach;
      Reach.push_back({In});
      for (size_t I = 0; I < Node.Children.size(); ++I) {
        StateSet Next;
        for (StateId Id : Reach.back())
          for (StateId Succ : F.value(Node.Children[I], Id))
            addState(Next, Succ);
        Reach.push_back(std::move(Next));
      }
      for (size_t I = 0; I < Node.Children.size(); ++I) {
        for (StateId X : Reach[I]) {
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
      StateSet Reachable{In};
      bool Grew = true;
      while (Grew) {
        Grew = false;
        StateSet Snapshot = Reachable;
        for (StateId Id : Snapshot)
          for (StateId Succ : F.value(Node.Children[0], Id))
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
  const Forward &F;
  std::unordered_set<Triple, TripleHash> PrefixStack, ThroughStack;
  unsigned Rotation = 0;
};

/// What one (client, abstraction, table) combination compared.
struct Tally {
  size_t Witnesses = 0;   ///< witnesses compared trace and states
  size_t MultiTrace = 0;  ///< extractions where rotation found > 1 trace
};

/// Compares the engine's witnesses with the plain search's for every
/// failing state of \p R, at one and at three traces per state (the
/// latter runs rotations 0, 1 and 2 at least). One scratch serves every
/// extraction, as one driver worker's does.
template <typename Analysis>
void compareAll(const ir::Program &P, ForwardRun<Analysis> &R,
                const std::vector<ir::CheckId> &Checks, Tally &Out) {
  using Forward = typename ForwardRun<Analysis>::Forward;
  PlainSearch<Analysis> Oracle(P, R.F);
  typename Forward::Scratch W;
  for (auto [Check, Target] : R.failing(Checks)) {
    for (size_t MaxCount : {1u, 3u}) {
      std::vector<ir::Trace> Want = Oracle.extract(Check, Target, MaxCount);
      std::vector<typename Forward::Witness> Got =
          R.F.extractWitnesses(Check, Target, MaxCount, W);
      ASSERT_FALSE(Want.empty()) << "check " << Check.index();
      ASSERT_EQ(Got.size(), Want.size()) << "check " << Check.index();
      for (size_t I = 0; I < Want.size(); ++I) {
        ASSERT_EQ(Got[I].T, Want[I]) << "check " << Check.index()
                                     << ", trace " << I;
        // The states the driver used to copy out of replay(), against the
        // ids the extraction recorded.
        std::vector<typename Analysis::State> Replayed =
            R.F.replay(Want[I], R.A.initialState());
        ASSERT_EQ(Got[I].States.size(), Replayed.size());
        for (size_t J = 0; J < Replayed.size(); ++J)
          ASSERT_TRUE(R.F.state(Got[I].States[J]) == Replayed[J])
              << "check " << Check.index() << ", trace " << I << ", point "
              << J;
        EXPECT_EQ(Got[I].States.back(), Target);
        ++Out.Witnesses;
      }
      if (Want.size() > 1)
        ++Out.MultiTrace;
    }
  }
}

class WitnessOracle : public ::testing::TestWithParam<synth::BenchConfig> {};

TEST_P(WitnessOracle, SameTracesAndStatesAsThePlainSearch) {
  synth::Benchmark B = synth::generate(GetParam());
  ir::CommandLiveness Live(B.P);
  ir::CheckReach Reach(B.P);
  forEachClient(B, [&](const std::string &Client, const auto &A,
                       const std::vector<ir::CheckId> &Checks) {
    using Analysis = std::decay_t<decltype(A)>;
    for (const auto &Prm : params(A)) {
      // With the check-reach table, as the driver and the service build
      // runs, and without it, as tests and examples do.
      for (const ir::CheckReach *Table : {&Reach, (ir::CheckReach *)nullptr}) {
        SCOPED_TRACE(Client + (Table ? " with" : " without") +
                     " check reach");
        ForwardRun<Analysis> R(B.P, A, Prm, Live, Table);
        Tally T;
        compareAll(B.P, R, Checks, T);
        if (::testing::Test::HasFatalFailure())
          return;
        EXPECT_GT(T.Witnesses, 0u);
      }
    }
  });
}

/// Rotation must actually matter somewhere, or the rotation half of the
/// comparison above would be vacuous.
TEST(WitnessOracle, RotationFindsDistinctTraces) {
  size_t Multi = 0;
  for (const synth::BenchConfig &C : configs()) {
    synth::Benchmark B = synth::generate(C);
    ir::CommandLiveness Live(B.P);
    ir::CheckReach Reach(B.P);
    forEachClient(B, [&](const std::string &, const auto &A,
                         const std::vector<ir::CheckId> &Checks) {
      using Analysis = std::decay_t<decltype(A)>;
      ForwardRun<Analysis> R(B.P, A, A.paramFromBits({}), Live, &Reach);
      typename ForwardRun<Analysis>::Forward::Scratch W;
      for (auto [Check, Target] : R.failing(Checks))
        if (R.F.extractWitnesses(Check, Target, 3, W).size() > 1)
          ++Multi;
    });
  }
  EXPECT_GT(Multi, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Generated, WitnessOracle, ::testing::ValuesIn(configs()),
    [](const ::testing::TestParamInfo<synth::BenchConfig> &Info) {
      std::string Name = Info.param.Name;
      for (char &Ch : Name)
        if (Ch == '-')
          Ch = '_';
      return Name;
    });

} // namespace
