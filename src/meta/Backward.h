//===- Backward.h - Generic backward meta-analysis -------------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The backward meta-analysis B[t] of §4 / Figure 7. Given an abstract
/// counterexample trace t of the forward analysis, the abstraction p used,
/// the forward states along t, and the failure condition not(q), it
/// propagates a boolean formula backwards:
///
///   B[eps](p, d, f)   = f
///   B[a](p, d, f)     = approx(p, d, wp_a(f))
///   B[t;t'](p, d, f)  = B[t](p, d, B[t'](p, F_p[t](d), f))
///
/// The result represents a *sufficient condition for failure*: every pair
/// (p', d') in its meaning fails the query the same way (Theorem 3). The
/// under-approximation operator approx (Figure 8) keeps formulas in DNF
/// with at most K disjuncts, always retaining a disjunct containing the
/// current (p, d) so the current abstraction is guaranteed to be eliminated.
///
/// The client supplies the meta-analysis data of §4.1 for a *disjunctive*
/// meta-analysis:
///
/// \code
///   struct BackwardClient {
///     using Param = ...;   // same as the forward client's
///     using State = ...;   // same as the forward client's
///     // Weakest precondition of a single positive atom across Cmd (the
///     // [a]^b of Figures 10/11), as a formula over atoms. Must satisfy
///     // requirement (2): gamma(wp(A)) = {(p,d) | A holds of (p,[a]_p(d))}.
///     // For a parameter atom it must be the atom itself: no command
///     // changes p. The backward step relies on this and never looks
///     // parameter literals up.
///     formula::Formula wpAtom(const ir::Command &Cmd,
///                             formula::AtomId A) const;
///     // Truth of atom A in a concrete pair (p, d) - the gamma function.
///     bool evalAtom(formula::AtomId A, const Param &P,
///                   const State &D) const;
///     // True if A constrains only the parameter component. Asked once
///     // per literal per step, so keep it inline.
///     bool isParamAtom(formula::AtomId A) const;
///     std::string atomName(formula::AtomId A) const;
///     // Semantic cube simplification hooks (see formula/Normalize.h):
///     // exploit mutual exclusivity between atoms so formulas stay as
///     // compact as the paper's hand-written Figures 10/11.
///     std::optional<formula::Cube> refineCube(const formula::Cube &) const;
///     std::optional<formula::LocationInfo>
///     atomLocation(formula::AtomId) const;
///     // The instance's literal-wp table (meta/WpTable.h), shared by every
///     // backward run over it; owned by the analysis.
///     meta::WpTable &wpTable() const;
///   };
/// \endcode
///
/// Because forward transfer functions are deterministic, wp distributes
/// over /\, \/ and negation, so the wp of a whole formula is the
/// substitution of wpAtom into its literals; this is how the driver lifts
/// the client's atom-wise transfers to formulas. The wp of one state
/// literal across one command is a pure function of (analysis, command,
/// literal), so it is looked up in, and on a miss filed into, the
/// analysis's wpTable(); that table is indexed by command position, so the
/// program a BackwardMetaAnalysis runs over must be the one its client
/// analyses.
///
/// One step pays only for the literals it can change. Most of a formula's
/// literals are parameter atoms (in escape formulas, over nine in ten),
/// and their wp is themselves, so: the identity-skip check probes only
/// state literals, with its verdict memoized per command under a stamp of
/// the formula; and wpFormula conjoins the parameter literals and every
/// single-cube wp into one frame cube per cube, and multiplies the
/// multi-cube wps in one chain over frame-stripped cubes - each wp cube
/// that contradicts the frame dropped, the others with the frame's
/// literals removed - so its running cubes stay short. The chain's gate
/// charges, cap checks and soft-cap prune see what the literal-by-literal
/// product saw (see wpFormula). step() then picks the normalisation tier
/// from the nominal cube count, the number of cubes that product yields;
/// only in the sort+simplify tier, whose output is the minimal cube set,
/// does it minimise each cube's stripped product before conjoining the
/// frame back. The merge rounds of semanticNormalize skip partner probes
/// for literals that occur nowhere in the formula. Every step's output is
/// cube for cube that of the literal-by-literal product normalised by its
/// count (DESIGN.md §10).
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_META_BACKWARD_H
#define OPTABS_META_BACKWARD_H

#include "formula/Formula.h"
#include "formula/Normalize.h"
#include "ir/Program.h"
#include "ir/Trace.h"
#include "meta/WpTable.h"
#include "support/Budget.h"
#include "support/Invariants.h"
#include "support/Metrics.h"
#include "support/Timer.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

namespace optabs {
namespace meta {

/// Tuning knobs for the meta-analysis.
struct BackwardConfig {
  /// Beam width k of the dropk operator; 0 disables under-approximation
  /// entirely (the exact mode of Figure 6(a)).
  unsigned K = 5;
  /// Cap on intermediate cube counts during per-step substitution. Only a
  /// scalability guard; 0 disables. Irrelevant when K is small.
  size_t ProductSoftCap = 4096;
  /// Wall-clock limit per trace run; 0 disables. Exact mode (K = 0) grows
  /// formulas exponentially along long traces (the paper reports outright
  /// timeouts), so harnesses bound it and treat an expired run as a
  /// timeout: the partial formula constrains an interior trace point, not
  /// the initial state, and must be discarded.
  double TimeoutSeconds = 0;
  /// Logical-step budget per trace run: each non-skipped backward step
  /// charges 1 and each Dnf::product charges its cross-product size against
  /// one shared per-run gate. 0 disables. Unlike TimeoutSeconds this is
  /// deterministic — it trips at the same step for any worker count — and
  /// an exhausted run is discarded exactly like a timeout (nullopt), which
  /// is sound: learning nothing never prunes a viable abstraction.
  uint64_t StepBudget = 0;
  /// Optional cooperative-cancellation token polled at every step charge;
  /// a requested token makes run() unwind and return nullopt.
  const support::CancelToken *Cancel = nullptr;
  /// Hard cap on formula size before a run is declared timed out; guards
  /// against a single substitution step exhausting memory. 0 disables.
  size_t HardCubeCap = 50000;
  /// Above this size, skip the quadratic semantic merging and keep only
  /// subsumption; above SimplifyCap, skip even that (meaning-preserving
  /// either way, just less compact).
  size_t NormalizeCap = 512;
  size_t SimplifyCap = 8192;
  /// Skip commands whose weakest precondition is the identity on every
  /// literal of the current formula (the common case on long traces:
  /// commands of unrelated program regions cannot affect the query's
  /// atoms). Purely an optimization; results are unchanged.
  bool SkipIdentitySteps = true;
  /// Optional observer called after each backward step with the trace
  /// index, the command just traversed, and the formula before it (i.e.
  /// the meta-analysis state at the command's program point). Used by the
  /// examples to print Figure 1/6-style walkthroughs. The observer runs on
  /// whichever thread executes the backward run; callers sharing one
  /// callable across several BackwardMetaAnalysis instances on different
  /// threads must serialize it themselves. The TRACER driver never sets
  /// it.
  std::function<void(size_t, const ir::Command &, const formula::Dnf &)>
      StepObserver;
  /// Where violated invariants are recorded (see support/Invariants.h).
  /// A violated precondition or soundness invariant makes run() discard
  /// the tainted formula and return nullopt, exactly like a timeout, so an
  /// invariant violation can never unsoundly prune viable abstractions.
  /// Null: violations go to stderr instead.
  support::InvariantSink *Invariants = nullptr;
};

/// Statistics of one backward run.
struct BackwardStats {
  size_t MaxCubes = 0;    ///< largest formula (in cubes) ever tracked
  size_t TotalCubes = 0;  ///< sum of per-step cube counts
  size_t Steps = 0;       ///< trace length processed
};

/// The backward step's soft cap on one running product of frame-stripped
/// cubes \p Cubes, each standing for itself conjoined with \p Frame (a
/// sound under-approximation in the sense of the approx operator).
/// Sorts, deduplicates and drops subsumed cubes - the same as on the
/// frame-conjoined cubes, since the frame is common to all - and, when more
/// than \p Cap remain, keeps the Cap-1 shortest plus the shortest one that
/// holds under \p Eval (the current (p, d)), or the Cap-th when none does.
/// Unlike dropK, no satisfied cube need exist here: one source cube's
/// product may well be unsatisfied under the current (p, d) even though
/// the whole formula is satisfied. The retention invariant (a satisfied
/// cube survives whenever one existed) is checked and reported to \p Sink.
inline void pruneToSoftCap(std::vector<formula::Cube> &Cubes, size_t Cap,
                           const formula::Cube &Frame,
                           const formula::AtomEval &Eval,
                           support::InvariantSink *Sink) {
  formula::Dnf Minimal = formula::Dnf::fromCubes(std::move(Cubes));
  Minimal.sortBySize();
  Minimal.simplify();
  Cubes = Minimal.takeCubes();
  if (Cap == 0 || Cubes.size() <= Cap)
    return;
  const bool FrameHolds = Frame.eval(Eval);
  auto Holds = [&](const formula::Cube &Sc) {
    return FrameHolds && Sc.eval(Eval);
  };
  bool HaveSatisfied = std::any_of(Cubes.begin(), Cubes.begin() + (Cap - 1),
                                   Holds);
  for (size_t I = Cap - 1; !HaveSatisfied && I < Cubes.size(); ++I) {
    if (Holds(Cubes[I])) {
      if (I != Cap - 1)
        Cubes[Cap - 1] = std::move(Cubes[I]);
      HaveSatisfied = true;
    }
  }
  const size_t Total = Cubes.size();
  Cubes.erase(Cubes.begin() + Cap, Cubes.end());
  // Retention invariant: whenever a satisfied cube existed anywhere in the
  // product, the kept cubes must still hold one - otherwise the downstream
  // dropk progress guarantee is silently broken mid-product.
  if (HaveSatisfied && std::none_of(Cubes.begin(), Cubes.end(), Holds))
    support::reportInvariant(
        Sink, "product-softcap-retention", "meta::pruneToSoftCap",
        "soft-cap pruning dropped every satisfied cube of a " +
            std::to_string(Total) + "-cube product");
}

template <typename Client> class BackwardMetaAnalysis {
public:
  using Param = typename Client::Param;
  using State = typename Client::State;

  BackwardMetaAnalysis(const ir::Program &P, const Client &C,
                       BackwardConfig Config = BackwardConfig())
      : P(P), C(C), Config(Config),
        Refiner([&C](const formula::Cube &Cube) { return C.refineCube(Cube); }),
        LocFn([&C](formula::AtomId A) { return C.atomLocation(A); }),
        Table(C.wpTable()) {}

  /// Runs B[t](p, d_I, NotQ). \p States must be the forward state sequence
  /// along \p T starting from d_I (length |T| + 1), and NotQ must hold of
  /// (p, States.back()) - i.e. the trace really is a counterexample. It is
  /// anything with size(), back() and operator[] yielding const State &:
  /// the driver passes ForwardAnalysis::statesOf(), which reads the run's
  /// interned states in place; tests pass ForwardAnalysis::replay()'s
  /// copies. The result holds of (p, d_I) and is a sufficient condition
  /// for failure.
  /// Returns nullopt when the run exceeded its time or size budget (only
  /// possible with a nonzero TimeoutSeconds/HardCubeCap); a timed-out
  /// partial formula is unusable and is not returned.
  template <typename StatesT>
  std::optional<formula::Dnf> run(const ir::Trace &T, const Param &Prm,
                                  const StatesT &States,
                                  const formula::Dnf &NotQ) {
    Stats = BackwardStats();
    Stats.Steps = T.size();
    LastExhaustion.reset();
    ++FStamp; // retires every skip verdict of earlier runs
    support::BudgetGate Gate("backward.step", Config.StepBudget,
                             Config.Cancel, 0, Config.Invariants);
    if (States.size() != T.size() + 1) {
      support::reportInvariant(
          Config.Invariants, "backward-state-length",
          "BackwardMetaAnalysis::run",
          "state sequence length " + std::to_string(States.size()) +
              " does not match trace length " + std::to_string(T.size()) +
              " + 1; run discarded");
      return std::nullopt;
    }
    Timer Clock;

    formula::Dnf F = NotQ;
    const EvalPoint AtEnd{C, Prm, States.back()};
    if (!F.eval(makeEval(AtEnd))) {
      support::reportInvariant(
          Config.Invariants, "backward-notq-precondition",
          "BackwardMetaAnalysis::run",
          "not(q) does not hold at the end of the supposed counterexample "
          "trace (length " +
              std::to_string(T.size()) + "); run discarded");
      return std::nullopt;
    }

    for (size_t I = T.size(); I-- > 0;) {
      if (Config.TimeoutSeconds > 0 &&
          Clock.seconds() > Config.TimeoutSeconds) {
        LastExhaustion =
            support::Exhausted{support::Resource::WallClock, "backward.step"};
        return std::nullopt;
      }
      if (!Gate.charge()) {
        LastExhaustion = Gate.why();
        return std::nullopt; // budget/cancellation: discard like a timeout
      }
      const ir::Command &Cmd = P.command(T[I]);
      bool Skip = false;
      if (Config.SkipIdentitySteps) {
        // The exact check probes the wp table once per state literal; on
        // long traces the same (command, formula) pair recurs constantly
        // (loops, unrelated program regions), so the verdict is memoized
        // per command under the formula's stamp. Bitwise equivalent to
        // checking every step: a word carrying the current stamp was
        // computed on this very formula.
        uint32_t CmdIndex = T[I].index();
        if (CmdIndex >= SkipMemo.size())
          SkipMemo.resize(std::max<size_t>(CmdIndex + 1, P.numCommands()));
        uint64_t &Memo = SkipMemo[CmdIndex];
        if ((Memo >> 1) == FStamp) {
          Skip = Memo & 1;
        } else {
          Skip = isIdentityStep(T[I], Cmd, F);
          Memo = (FStamp << 1) | uint64_t(Skip);
        }
      }
      if (!Skip) {
        const EvalPoint AtPre{C, Prm, States[I]};
        formula::AtomEval PreEval = makeEval(AtPre);
        std::optional<formula::Dnf> Next =
            step(T[I], Cmd, F, PreEval, &Gate);
        if (!Next) {
          // Either the shared gate ran out mid-substitution or the hard
          // cube cap tripped; the latter is a memory guard, reported as
          // such.
          LastExhaustion =
              Gate.exhausted()
                  ? Gate.why()
                  : std::optional<support::Exhausted>{support::Exhausted{
                        support::Resource::Memory, "backward.step"}};
          return std::nullopt; // formula blow-up (exact mode)
        }
        F = std::move(*Next);
        // Every tier of step() leaves F in sortBySize order, which dropK
        // needs.
        assert(F.isSortedBySize());
        if (Config.K > 0 && F.size() > Config.K)
          F.dropK(Config.K, PreEval, Config.Invariants);
        if (!F.eval(PreEval)) {
          // Soundness invariant (Theorem 3): the current (p, d) must stay
          // inside the formula at every trace point, or the final formula
          // is not guaranteed to eliminate the current abstraction. Discard
          // the run like a timeout - learning nothing is sound, learning
          // from a tainted formula is not.
          support::reportInvariant(
              Config.Invariants, "backward-soundness",
              "BackwardMetaAnalysis::run",
              "(p, d) escaped the formula at trace step " +
                  std::to_string(I) + " (formula size " +
                  std::to_string(F.size()) + "); run discarded");
          return std::nullopt;
        }
        ++FStamp;
        Stats.MaxCubes = std::max(Stats.MaxCubes, F.size());
      }
      Stats.TotalCubes += F.size();
      if (Config.StepObserver)
        Config.StepObserver(I, Cmd, F);
      if (!Skip && support::metricsEnabled()) {
        static auto &StepCubes = support::MetricRegistry::global().histogram(
            "optabs_backward_step_cubes");
        StepCubes.record(F.size());
      }
    }
    if (support::metricsEnabled()) {
      static auto &Steps = support::MetricRegistry::global().counter(
          "optabs_backward_steps_total");
      Steps.add(T.size());
    }
    return F;
  }

  /// Projects a final formula onto the parameter component at the initial
  /// state: the returned DNF is over parameter atoms only and describes
  /// exactly the abstractions p' with (p', d_I) in gamma(F) - the set
  /// Pi of Algorithm 1, line 14. State atoms are evaluated at d_I.
  formula::Dnf projectToParams(const formula::Dnf &F, const Param &Prm,
                               const State &InitState) const {
    formula::Dnf Result;
    std::vector<formula::Cube> Cubes;
    for (const formula::Cube &Cube : F.cubes()) {
      std::vector<formula::Lit> ParamLits;
      bool Feasible = true;
      for (formula::Lit L : Cube.literals()) {
        if (C.isParamAtom(L.atom())) {
          ParamLits.push_back(L);
        } else if (!L.eval([&](formula::AtomId A) {
                     return C.evalAtom(A, Prm, InitState);
                   })) {
          Feasible = false;
          break;
        }
      }
      if (!Feasible)
        continue;
      if (auto NewCube = formula::Cube::make(std::move(ParamLits)))
        Cubes.push_back(std::move(*NewCube));
    }
    Result = formula::Dnf::fromCubes(std::move(Cubes));
    formula::semanticNormalize(Result, Refiner, LocFn);
    Result.sortBySize();
    Result.simplify();
    return Result;
  }

  const BackwardStats &stats() const { return Stats; }

  /// Why the most recent run() returned nullopt for resource reasons;
  /// empty after a successful run or an invariant-discard.
  const std::optional<support::Exhausted> &lastExhaustion() const {
    return LastExhaustion;
  }

  /// Shrinks (or widens) the dropk beam between runs — the degradation
  /// ladder's rung 2. A smaller K only under-approximates harder (§5's
  /// dropK argument), so tightening mid-driver-run is sound.
  void setBeamWidth(unsigned K) { Config.K = K; }

  std::string formulaToString(const formula::Dnf &F) const {
    return F.toString([this](formula::AtomId A) { return C.atomName(A); });
  }

  /// One backward step across \p Cmd: the wp of \p F, normalised by the
  /// tier its nominal cube count picks - semanticNormalize up to
  /// NormalizeCap, sortBySize + simplify up to SimplifyCap, sortBySize
  /// alone above - and left in sortBySize order. The nominal count is the
  /// number of cubes that multiplying out every literal's wp one by one
  /// yields (see wpFormula). Returns nullopt when \p Gate runs out or the
  /// nominal count passes the hard cube cap (only reachable in exact mode,
  /// where nothing prunes).
  ///
  /// The sort+simplify tier keeps the minimal cubes of the whole formula,
  /// which are the minimal cubes of the union of each source cube's
  /// minimal cubes; and with one frame F, A u F implies B u F iff A
  /// implies B when A and B miss F. So that tier minimises each source
  /// cube's frame-stripped product first and conjoins the frame into the
  /// survivors only. The other tiers get every nominal cube:
  /// semanticNormalize refines cubes before it subsumes, and the sort-only
  /// tier keeps subsumed cubes.
  std::optional<formula::Dnf> step(ir::CommandId CmdId,
                                   const ir::Command &Cmd,
                                   const formula::Dnf &F,
                                   const formula::AtomEval &PreEval,
                                   support::BudgetGate *Gate = nullptr) {
    using formula::Cube;
    using formula::Dnf;
    if (!wpFormula(CmdId, Cmd, F, PreEval, Gate))
      return std::nullopt;
    const size_t Nominal = Stripped.size();
    const bool Minimise =
        Nominal > Config.NormalizeCap && Nominal <= Config.SimplifyCap;
    std::vector<Cube> Out;
    Out.reserve(Nominal);
    size_t Begin = 0;
    for (Group &G : Groups) {
      auto First = Stripped.begin() + Begin, Last = Stripped.begin() + G.End;
      Begin = G.End;
      if (Last - First == 1 && First->isTrue()) {
        Out.push_back(std::move(G.Frame)); // no multi-cube wp
        continue;
      }
      if (Minimise && Last - First > 1) {
        Dnf Minimal = Dnf::fromCubes(std::vector<Cube>(
            std::make_move_iterator(First), std::make_move_iterator(Last)));
        Minimal.sortBySize();
        Minimal.simplify();
        for (const Cube &Sc : Minimal.cubes())
          Out.push_back(*Cube::conjoin(Sc, G.Frame));
        continue;
      }
      for (; First != Last; ++First)
        Out.push_back(*Cube::conjoin(*First, G.Frame));
    }
    Dnf Result = Dnf::fromCubes(std::move(Out));
    // Semantic simplification recovers the compact forms of the paper's
    // hand-written transfer functions before the beam search prunes. Its
    // merging pass is quadratic, so very large (exact-mode) formulas get
    // progressively lighter treatment.
    if (Nominal <= Config.NormalizeCap) {
      formula::semanticNormalize(Result, Refiner, LocFn);
    } else if (Nominal <= Config.SimplifyCap) {
      Result.sortBySize();
      Result.simplify();
    } else {
      Result.sortBySize(); // subsumption is quadratic; skip when huge
    }
    return Result;
  }

private:
  /// wp of a whole DNF across one command, without its frames: fills
  /// Stripped with each source cube's frame-stripped product and Groups
  /// with the matching frames, in source order. Returns false when \p Gate
  /// runs out or the hard cube cap trips.
  ///
  /// It reproduces multiplying every literal's wp into a running product
  /// one at a time, smallest wp first (a stable sort by size), capping
  /// every product at ProductSoftCap, without running it: most of that
  /// chain's products are a single running cube times a single-cube wp,
  /// and most of those wps are parameter literals, which no command
  /// changes. So the single-cube wps and the parameter literals are
  /// conjoined once, into one frame cube, charging what their 1x1 products
  /// charged: 1 each, up to and including the first contradiction in
  /// literal order. The multi-cube wps are then multiplied in one chain
  /// over stripped cubes: a wp cube that contradicts the frame is dropped
  /// (every product through it does too), and the others enter with the
  /// frame's literals removed. The stripped running product holds exactly
  /// the literal chain's running cubes minus the frame, in its order: for
  /// cubes A and B that miss F, A u F and B u F contradict iff A and B do,
  /// are equal iff A and B are, and compare in sortBySize order as A and B
  /// do. So the chain charges |P| x |W| per product, with |P| the running
  /// size, checks the hard cap on the nominal running size, and prunes
  /// past the soft cap (pruneToSoftCap) exactly as the literal chain did.
  bool wpFormula(ir::CommandId CmdId, const ir::Command &Cmd,
                 const formula::Dnf &F, const formula::AtomEval &PreEval,
                 support::BudgetGate *Gate) {
    using formula::Cube;
    using formula::Dnf;
    using formula::Lit;
    Stripped.clear();
    Groups.clear();
    for (const Cube &Q : F.cubes()) {
      // Split the cube: the frame's parts (parameter literals and
      // single-cube wps) as (literal, part index) keys, and the multi-cube
      // wps in stable size order. Stable insertion sort: a handful of
      // entries, and std::stable_sort would allocate per cube.
      FrameKeys.clear();
      Multi.clear();
      uint32_t NumParts = 0;
      bool Killed = false;
      for (Lit L : Q.literals()) {
        if (C.isParamAtom(L.atom())) {
          FrameKeys.push_back(frameKey(L, NumParts++));
          continue;
        }
        const Dnf &W = wpLit(CmdId, Cmd, L); // node-stable
        if (W.size() == 1) {
          for (Lit X : W.cubes()[0].literals())
            FrameKeys.push_back(frameKey(X, NumParts));
          ++NumParts;
        } else if (W.isFalse()) {
          Killed = true;
        } else {
          size_t At = Multi.size();
          Multi.push_back(&W);
          for (; At > 0 && W.size() < Multi[At - 1]->size(); --At)
            Multi[At] = Multi[At - 1];
          Multi[At] = &W;
        }
      }
      if (Killed) {
        // A false wp sorts first; its product with true charged 0 and
        // ended the cube.
        if (!Dnf::chargeProduct(0, Config.Invariants, Gate))
          return false;
        continue;
      }

      // The frame, and the first part at which it contradicts: after the
      // sort, an atom's positive keys directly precede its negative ones,
      // each run ascending by part, and the earliest prefix of parts that
      // holds both polarities ends at the later of the two first parts.
      std::sort(FrameKeys.begin(), FrameKeys.end());
      FrameLits.clear();
      uint32_t Clash = NumParts;
      uint32_t LastFirstPart = 0;
      for (uint64_t Key : FrameKeys) {
        Lit L = keyLit(Key);
        uint32_t Part = static_cast<uint32_t>(Key);
        if (!FrameLits.empty() && FrameLits.back() == L)
          continue;
        if (!FrameLits.empty() && FrameLits.back().atom() == L.atom())
          Clash = std::min(Clash, std::max(LastFirstPart, Part));
        FrameLits.push_back(L);
        LastFirstPart = Part;
      }
      for (uint32_t Part = 0; Part < NumParts && Part <= Clash; ++Part) {
        if (!Dnf::chargeProduct(1, Config.Invariants, Gate))
          return false;
        if (Part < Clash && Config.HardCubeCap > 0 &&
            Stripped.size() + 1 > Config.HardCubeCap)
          return false;
      }
      if (Clash < NumParts)
        continue;
      Cube Frame = *Cube::make(FrameLits.data(), FrameLits.size());
      if (Multi.empty()) {
        Stripped.emplace_back();
        Groups.push_back({std::move(Frame), Stripped.size()});
        continue;
      }

      // Each multi-cube wp's frame-consistent cubes, stripped, one run per
      // wp in WpCubes.
      WpCubes.clear();
      WpEnds.clear();
      for (const Dnf *W : Multi) {
        for (const Cube &Wc : W->cubes())
          if (!Wc.contradicts(Frame))
            WpCubes.push_back(stripFrame(Wc, Frame));
        WpEnds.push_back(WpCubes.size());
      }
      std::vector<Cube> *Run = &RunBuf[0], *Next = &RunBuf[1];
      Run->clear();
      for (size_t K = 0; K < Multi.size(); ++K) {
        if (!Dnf::chargeProduct((K == 0 ? 1 : Run->size()) * Multi[K]->size(),
                                Config.Invariants, Gate))
          return false;
        auto WBegin = WpCubes.begin() + (K == 0 ? 0 : WpEnds[K - 1]);
        auto WEnd = WpCubes.begin() + WpEnds[K];
        Next->clear();
        if (K == 0) {
          Next->assign(WBegin, WEnd);
        } else {
          for (const Cube &Pc : *Run)
            for (auto Wc = WBegin; Wc != WEnd; ++Wc)
              if (std::optional<Cube> Joined = Cube::conjoin(Pc, *Wc))
                Next->push_back(std::move(*Joined));
        }
        std::swap(Run, Next);
        if (Config.ProductSoftCap > 0 && Run->size() > Config.ProductSoftCap)
          pruneToSoftCap(*Run, Config.ProductSoftCap, Frame, PreEval,
                         Config.Invariants);
        if (Config.HardCubeCap > 0 &&
            Stripped.size() + Run->size() > Config.HardCubeCap)
          return false;
        if (Run->empty())
          break;
      }
      for (Cube &Pc : *Run)
        Stripped.push_back(std::move(Pc));
      Groups.push_back({std::move(Frame), Stripped.size()});
    }
    return true;
  }

  /// \p Wc without the literals it shares with \p Frame; the two must not
  /// contradict.
  formula::Cube stripFrame(const formula::Cube &Wc,
                           const formula::Cube &Frame) {
    if ((Wc.signature() & Frame.signature()) == 0)
      return Wc; // no shared atom
    StripLits.clear();
    const formula::Lit *PF = Frame.literals().begin(),
                       *EF = Frame.literals().end();
    for (formula::Lit L : Wc.literals()) {
      while (PF != EF && *PF < L)
        ++PF;
      if (PF == EF || *PF != L)
        StripLits.push_back(L);
    }
    return *formula::Cube::make(StripLits.data(), StripLits.size());
  }

  /// The pair (p, d) an atom evaluator reads, with the client that
  /// interprets atoms. Evaluators capture it by reference - one pointer -
  /// so they fit std::function's inline buffer and building one per step
  /// never allocates.
  struct EvalPoint {
    const Client &C;
    const Param &Prm;
    const State &D;
  };
  static formula::AtomEval makeEval(const EvalPoint &At) {
    return [&At](formula::AtomId A) { return At.C.evalAtom(A, At.Prm, At.D); };
  }

  /// True when the wp of every literal of \p F across \p Cmd is the
  /// literal itself, i.e. the whole step is the identity. Parameter
  /// literals are the identity across every command (the client contract
  /// above), so only state literals are probed.
  bool isIdentityStep(ir::CommandId CmdId, const ir::Command &Cmd,
                      const formula::Dnf &F) {
    for (const formula::Cube &Cube : F.cubes()) {
      for (formula::Lit L : Cube.literals()) {
        if (C.isParamAtom(L.atom()))
          continue;
        const formula::Dnf &W = wpLit(CmdId, Cmd, L);
        if (W.size() != 1 || W.cubes()[0].size() != 1 ||
            W.cubes()[0].literals()[0] != L)
          return false;
      }
    }
    return true;
  }

  /// A frame literal tagged with the part (parameter literal or
  /// single-cube wp) it came from; sorts by literal, then part.
  static uint64_t frameKey(formula::Lit L, uint32_t Part) {
    return (uint64_t(L.raw()) << 32) | Part;
  }
  static formula::Lit keyLit(uint64_t Key) {
    uint32_t Raw = static_cast<uint32_t>(Key >> 32);
    return Raw & 1 ? formula::Lit::neg(Raw >> 1) : formula::Lit::pos(Raw >> 1);
  }

  /// wp of one literal, from the analysis's shared table; built on a miss.
  /// Negative literals use wp(!A) = !wp(A), valid because transfers are
  /// deterministic.
  const formula::Dnf &wpLit(ir::CommandId CmdId, const ir::Command &Cmd,
                            formula::Lit L) {
    return Table.lookup(CmdId.index(), L, [&] {
      formula::Formula Wp = C.wpAtom(Cmd, L.atom());
      if (L.isNeg())
        Wp = formula::Formula::negate(Wp);
      return Wp.toDnf();
    });
  }

  const ir::Program &P;
  const Client &C;
  BackwardConfig Config;
  formula::CubeRefiner Refiner;
  formula::LocationFn LocFn;
  /// This instance's registration with the analysis's wp table.
  meta::WpTable::Reader Table;
  /// wpFormula's output, reused across steps: every source cube's
  /// frame-stripped product, back to back, and per source cube its frame
  /// and the end of its run in Stripped.
  struct Group {
    formula::Cube Frame;
    size_t End;
  };
  std::vector<formula::Cube> Stripped;
  std::vector<Group> Groups;
  /// wpFormula's scratch, reused across steps: the frame's (literal, part)
  /// keys and literals, the multi-cube wps in stable size order, their
  /// stripped frame-consistent cubes and where each wp's run ends, the
  /// running products, and stripFrame's literals.
  std::vector<uint64_t> FrameKeys;
  std::vector<formula::Lit> FrameLits;
  std::vector<const formula::Dnf *> Multi;
  std::vector<formula::Cube> WpCubes;
  std::vector<size_t> WpEnds;
  std::vector<formula::Cube> RunBuf[2];
  std::vector<formula::Lit> StripLits;
  /// Identity-skip verdicts, one word per command: (stamp << 1) | skip. A
  /// word is valid while its stamp is FStamp, which run() bumps on entry
  /// and at every formula change, so nothing is ever cleared; grown on
  /// demand, since a program may gain commands after construction.
  std::vector<uint64_t> SkipMemo;
  uint64_t FStamp = 0;
  BackwardStats Stats;
  std::optional<support::Exhausted> LastExhaustion;
};

} // namespace meta
} // namespace optabs

#endif // OPTABS_META_BACKWARD_H
