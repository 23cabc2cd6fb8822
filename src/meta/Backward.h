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
///     formula::Formula wpAtom(const ir::Command &Cmd,
///                             formula::AtomId A) const;
///     // Truth of atom A in a concrete pair (p, d) - the gamma function.
///     bool evalAtom(formula::AtomId A, const Param &P,
///                   const State &D) const;
///     // True if A constrains only the parameter component.
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
/// the client's atom-wise transfers to formulas. The wp of one literal
/// across one command is a pure function of (analysis, command, literal),
/// so it is looked up in, and on a miss filed into, the analysis's
/// wpTable(); that table is indexed by command position, so the program a
/// BackwardMetaAnalysis runs over must be the one its client analyses.
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
#include <optional>
#include <string>
#include <unordered_map>
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
    SkipMemo.clear();
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

    // The formula changes only at non-skipped steps; FVersion numbers those
    // changes so the identity-skip verdict can be memoized per
    // (command, formula version) below.
    uint64_t FVersion = 0;

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
        // The exact per-literal wp check is itself a hashmap lookup per
        // literal; on long traces the same (command, formula) pair recurs
        // constantly (loops, unrelated program regions), so the verdict is
        // memoized under the formula's version. Bitwise equivalent to
        // checking every step: the formula is unchanged since FVersion was
        // last bumped.
        uint64_t SkipKey = (static_cast<uint64_t>(T[I].index()) << 32) |
                           (FVersion & 0xffffffff);
        auto SkipIt = SkipMemo.find(SkipKey);
        Skip = SkipIt != SkipMemo.end()
                   ? SkipIt->second
                   : SkipMemo.emplace(SkipKey, isIdentityStep(T[I], Cmd, F))
                         .first->second;
      }
      if (!Skip) {
        const EvalPoint AtPre{C, Prm, States[I]};
        formula::AtomEval PreEval = makeEval(AtPre);
        std::optional<formula::Dnf> Wp =
            wpFormula(T[I], Cmd, F, PreEval, &Gate);
        if (!Wp) {
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
        F = std::move(*Wp);
        // Semantic simplification recovers the compact forms of the paper's
        // hand-written transfer functions before the beam search prunes.
        // Its merging pass is quadratic, so very large (exact-mode)
        // formulas get progressively lighter treatment.
        if (F.size() <= Config.NormalizeCap) {
          formula::semanticNormalize(F, Refiner, LocFn);
        } else if (F.size() <= Config.SimplifyCap) {
          F.sortBySize();
          F.simplify();
        } else {
          F.sortBySize(); // subsumption is quadratic; skip when huge
        }
        if (Config.K > 0 && F.size() > Config.K) {
          F.sortBySize();
          F.dropK(Config.K, PreEval, Config.Invariants);
        }
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
        ++FVersion;
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

private:
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
  /// literal itself, i.e. the whole step is the identity.
  bool isIdentityStep(ir::CommandId CmdId, const ir::Command &Cmd,
                      const formula::Dnf &F) {
    for (const formula::Cube &Cube : F.cubes()) {
      for (formula::Lit L : Cube.literals()) {
        const formula::Dnf &W = wpLit(CmdId, Cmd, L);
        if (W.size() != 1 || W.cubes()[0].size() != 1 ||
            W.cubes()[0].literals()[0] != L)
          return false;
      }
    }
    return true;
  }

  /// wp of a whole DNF across one command: substitute the wp of each
  /// literal and redistribute. Returns nullopt when the result exceeds the
  /// hard cube cap (only reachable in exact mode, where nothing prunes).
  std::optional<formula::Dnf> wpFormula(ir::CommandId CmdId,
                                        const ir::Command &Cmd,
                                        const formula::Dnf &F,
                                        const formula::AtomEval &PreEval,
                                        support::BudgetGate *Gate = nullptr) {
    formula::Dnf Result;
    for (const formula::Cube &Cube : F.cubes()) {
      // Multiply the literal wps smallest-first: the product cube multiset
      // is order-independent (conjunction is commutative and contradictions
      // absorb), and every normalization tier canonicalizes with
      // sortBySize, so the result is unchanged while the intermediate
      // cross-products - the actual cost - stay as small as possible. The
      // sort is a stable insertion sort: cubes are a handful of literals,
      // and std::stable_sort would allocate a temporary buffer per cube.
      WpOrder.clear();
      for (formula::Lit L : Cube.literals()) {
        const formula::Dnf *Wp = &wpLit(CmdId, Cmd, L); // node-stable
        size_t At = WpOrder.size();
        WpOrder.push_back(Wp);
        for (; At > 0 && Wp->size() < WpOrder[At - 1]->size(); --At)
          WpOrder[At] = WpOrder[At - 1];
        WpOrder[At] = Wp;
      }
      // The running product ping-pongs between two scratch formulas, so
      // warm steps reuse their cube buffers instead of allocating one per
      // literal.
      const formula::Dnf *CubeWp = &TrueDnf;
      for (const formula::Dnf *Wp : WpOrder) {
        formula::Dnf &Next = CubeWp == &ProductBuf[0] ? ProductBuf[1]
                                                      : ProductBuf[0];
        formula::Dnf::productInto(Next, *CubeWp, *Wp, Config.ProductSoftCap,
                                  PreEval, Config.Invariants, Gate);
        CubeWp = &Next;
        if (Gate && Gate->exhausted())
          return std::nullopt; // product returned an under-charged false
        if (Config.HardCubeCap > 0 &&
            Result.size() + CubeWp->size() > Config.HardCubeCap)
          return std::nullopt;
        if (CubeWp->isFalse())
          break;
      }
      Result.orWith(*CubeWp);
    }
    return Result;
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
  /// wpFormula's per-cube literal-wp order and running products, reused
  /// across steps.
  std::vector<const formula::Dnf *> WpOrder;
  formula::Dnf ProductBuf[2];
  const formula::Dnf TrueDnf = formula::Dnf::constTrue();
  /// Per-run memo of identity-skip verdicts keyed (command, formula
  /// version); cleared at every run() entry.
  std::unordered_map<uint64_t, bool> SkipMemo;
  BackwardStats Stats;
  std::optional<support::Exhausted> LastExhaustion;
};

} // namespace meta
} // namespace optabs

#endif // OPTABS_META_BACKWARD_H
