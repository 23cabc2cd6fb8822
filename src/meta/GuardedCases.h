//===- GuardedCases.h - Synthesized backward transfer functions -*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §8 of the paper: "manually defining the transfer functions of the
/// meta-analysis can be tedious and error-prone. One plausible solution is
/// to devise a general recipe for synthesizing these functions
/// automatically from a given abstract domain and parametric analysis."
///
/// This header is that recipe, for the large class of analyses whose
/// transfer functions are *finite guarded case splits*: each command's
/// semantics is a list of cases (guard, effect) where
///
///   - guards are formulas over the meta-analysis atoms, jointly exhaustive
///     and mutually exclusive over the client's (p, d) pairs, except where
///     the overlapping cases agree and state their wp exactly (as on an
///     error state every effect keeps), and
///   - effects are deterministic state transformers whose per-atom
///     weakest precondition the client can state locally.
///
/// From one such description the framework derives BOTH directions:
///
///   forward:   [a]_p(d)   = effect of the first enabled case, applied
///   backward:  wp(A)      = \/_case  guard_case  /\  wp_case(A)
///
/// which satisfies the framework's requirement (2) *by construction*:
/// gamma(wp(A)) = {(p,d) | A holds of (p, [a]_p(d))}, because every guard
/// true of a (p, d) names an effect with the same result there and each
/// case is deterministic. Both clients, thread-escape (Figures 5/11) and
/// type-state (Figures 4/10), are built this way, and the tests derive a
/// toy third client to show the recipe is generic.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_META_GUARDEDCASES_H
#define OPTABS_META_GUARDEDCASES_H

#include "formula/Formula.h"
#include "ir/Program.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

namespace optabs {
namespace meta {

/// One transfer function as a guarded case split over effects of
/// client-defined type \p EffectT.
template <typename EffectT> class GuardedTransfer {
public:
  struct Case {
    formula::Formula Guard;
    EffectT Effect;
  };

  /// Appends a case. Guards must be exclusive (up to agreeing effects) and
  /// jointly exhaustive; apply() asserts the latter.
  GuardedTransfer &addCase(formula::Formula Guard, EffectT Effect) {
    Cases.push_back({std::move(Guard), std::move(Effect)});
    return *this;
  }

  /// Forward direction: \p Apply of the effect of the first case whose
  /// guard holds of the concrete (\p Prm, \p D) under \p Client.evalAtom.
  template <typename ClientT, typename ParamT, typename StateT,
            typename ApplyFn>
  auto apply(const ClientT &Client, const ParamT &Prm, const StateT &D,
             ApplyFn Apply) const {
    // One captured pointer keeps the evaluator inside std::function's
    // inline buffer (three captured references would spill to the heap).
    struct {
      const ClientT &Client;
      const ParamT &Prm;
      const StateT &D;
    } At{Client, Prm, D};
    formula::AtomEval Eval = [&At](formula::AtomId A) {
      return At.Client.evalAtom(A, At.Prm, At.D);
    };
    for (const Case &C : Cases)
      if (C.Guard.eval(Eval))
        return Apply(C.Effect);
    assert(false && "guarded cases must be exhaustive");
    return Apply(Cases.front().Effect);
  }

  /// Backward direction: the synthesized weakest precondition of atom
  /// \p A. \p WpUnderEffect(Effect, A) states the precondition for A to
  /// hold after that single effect - the only piece the client writes.
  template <typename WpFn>
  formula::Formula wpAtom(formula::AtomId A, WpFn WpUnderEffect) const {
    std::vector<formula::Formula> Disjuncts;
    Disjuncts.reserve(Cases.size());
    for (const Case &C : Cases)
      Disjuncts.push_back(
          formula::Formula::conj({C.Guard, WpUnderEffect(C.Effect, A)}));
    return formula::Formula::disj(std::move(Disjuncts));
  }

private:
  std::vector<Case> Cases;
};

/// The case lists of one program's commands, compiled once and looked up by
/// command; read-only after construction, so threads may share it.
template <typename EffectT> class CaseTable {
public:
  using Transfer = GuardedTransfer<EffectT>;

  /// Keeps \p Compile(Cmd) for each command of \p P's pool it returns a
  /// list for (nullopt: none needed). \p P must outlive the table.
  template <typename CompileFn>
  CaseTable(const ir::Program &P, CompileFn Compile) : P(P) {
    for (uint32_t I = 0; I < P.numCommands(); ++I)
      if (std::optional<Transfer> T = Compile(P.command(ir::CommandId(I))))
        Lists.push_back({I, std::move(*T)});
  }

  /// The list compiled for \p Cmd, or null when \p Cmd is not a compiled
  /// command of the pool (a copy, or a command added later).
  const Transfer *find(const ir::Command &Cmd) const {
    if (Lists.empty())
      return nullptr;
    auto Off = reinterpret_cast<uintptr_t>(&Cmd) -
               reinterpret_cast<uintptr_t>(&P.command(ir::CommandId(0)));
    if (Off % sizeof(ir::Command) != 0 ||
        Off / sizeof(ir::Command) >= P.numCommands())
      return nullptr;
    auto I = static_cast<uint32_t>(Off / sizeof(ir::Command));
    // Lists ascend by index: a table of every command keeps I at I.
    auto It = I < Lists.size() && Lists[I].first == I
                  ? Lists.begin() + I
                  : std::lower_bound(Lists.begin(), Lists.end(), I,
                                     [](const auto &E, uint32_t Index) {
                                       return E.first < Index;
                                     });
    return It != Lists.end() && It->first == I ? &It->second : nullptr;
  }

private:
  const ir::Program &P;
  std::vector<std::pair<uint32_t, Transfer>> Lists; // by command index
};

} // namespace meta
} // namespace optabs

#endif // OPTABS_META_GUARDEDCASES_H
