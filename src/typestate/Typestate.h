//===- Typestate.h - Parametric type-state analysis ------------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parametric type-state analysis of §3.2 / Figure 4 together with its
/// backward meta-analysis (Figures 9/10), packaged as an Analysis bundle
/// for the generic forward engine, backward engine and TRACER driver.
///
/// The analysis tracks a single allocation site h per instance. Abstract
/// states are (ts, vs) or TOP: ts over-approximates the possible
/// type-states of objects allocated at h, vs is a must-alias set of
/// variables definitely pointing to the most recent such object, and TOP
/// records a detected type-state error. The abstraction p (a subset of the
/// program's variables, cost |p|) bounds which variables may appear in vs.
///
/// Method-call semantics comes from a TypestateSpec, which is either
///  - an automaton: [m] : T -> T u {TOP} per method (e.g. File open/close,
///    Figure 1), unknown methods leaving the state unchanged; or
///  - the paper's "fictitious" stress property (§6): any call v.m() with v
///    may-aliasing the tracked site but absent from the must-alias set
///    drives the state to TOP, so the property precisely detects must-alias
///    precision loss.
/// A call whose receiver cannot point to the tracked site (per the 0-CFA
/// may-points-to substrate) never affects the state, in both modes.
///
/// Each command is one meta::GuardedTransfer case list (the §8 recipe), and
/// both the forward transfer and the Figure 9/10 wp are derived from it.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_TYPESTATE_TYPESTATE_H
#define OPTABS_TYPESTATE_TYPESTATE_H

#include "formula/Formula.h"
#include "formula/Normalize.h"
#include "ir/Program.h"
#include "meta/GuardedCases.h"
#include "meta/WpTable.h"
#include "pointer/PointsTo.h"
#include "support/BitSet.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace optabs {
namespace typestate {

/// A type-state property. State 0 is always `init`.
class TypestateSpec {
public:
  static constexpr uint32_t MaxStates = 30;

  /// Creates an automaton-mode spec whose initial state is named \p
  /// InitName ("init" by default; Figure 1 uses "closed").
  explicit TypestateSpec(const std::string &InitName = "init");

  /// Creates the §6 stress property: two conceptual states (init and the
  /// error TOP); any weakly-updated call errs.
  static TypestateSpec stress();

  /// Interns a type-state; returns its dense id (init is 0).
  uint32_t addState(const std::string &Name);

  /// Declares [m](From) = To.
  void addTransition(ir::MethodId M, uint32_t From, uint32_t To);
  /// Declares [m](From) = TOP (a type-state error).
  void addErrorTransition(ir::MethodId M, uint32_t From) {
    addTransition(M, From, SuccTop);
  }

  bool isStress() const { return Stress; }
  uint32_t numStates() const {
    return static_cast<uint32_t>(StateNames.size());
  }
  const std::string &stateName(uint32_t S) const { return StateNames[S]; }
  /// Looks up a state by name; nullopt if unknown.
  std::optional<uint32_t> findState(const std::string &Name) const;

  /// [m](S): the successor state, or nullopt for TOP. Methods without a
  /// declared transition leave the state unchanged.
  std::optional<uint32_t> apply(ir::MethodId M, uint32_t S) const;

private:
  bool Stress = false;
  std::vector<std::string> StateNames;
  /// (method, from) -> successor; SuccTop marks TOP.
  static constexpr uint32_t SuccTop = UINT32_MAX;
  std::vector<std::pair<uint64_t, uint32_t>> Transitions; // scanned linearly
  std::optional<uint32_t> lookup(ir::MethodId M, uint32_t S) const;
};

/// Abstract state d in D = (2^T x 2^V) u {TOP} (Figure 4).
struct AbsState {
  bool Top = false;
  uint32_t Ts = 0;              ///< bitset over spec states (<= MaxStates)
  std::vector<uint32_t> Vs;     ///< sorted variable indices (subset of p)

  friend bool operator==(const AbsState &A, const AbsState &B) {
    return A.Top == B.Top && A.Ts == B.Ts && A.Vs == B.Vs;
  }
  friend bool operator<(const AbsState &A, const AbsState &B) {
    if (A.Top != B.Top)
      return A.Top < B.Top;
    if (A.Ts != B.Ts)
      return A.Ts < B.Ts;
    return A.Vs < B.Vs;
  }
};

/// The abstraction p: the set of variables the analysis may track in
/// must-alias sets. Cost = |p| (the paper's preorder).
struct TsParam {
  BitSet Tracked;
};

/// The full Analysis bundle for one tracked allocation site. See
/// tracer/QueryDriver.h for the interface contract.
class TypestateAnalysis {
public:
  using Param = TsParam;
  using State = AbsState;

  struct StateHash {
    size_t operator()(const AbsState &S) const {
      uint64_t H = S.Top ? 0x9e3779b97f4a7c15ULL : 0x85ebca6b0f4a7c15ULL;
      H = (H ^ S.Ts) * 0xff51afd7ed558ccdULL;
      for (uint32_t V : S.Vs)
        H = (H ^ V) * 0xc4ceb9fe1a85ec53ULL;
      return static_cast<size_t>(H ^ (H >> 33));
    }
  };

  /// \p Tracked is the site this instance tracks, \p Pt the may-alias
  /// oracle. \p P, \p Spec and \p Pt must outlive it, \p Spec unchanged.
  TypestateAnalysis(const ir::Program &P, const TypestateSpec &Spec,
                    ir::AllocId Tracked, const pointer::PointsToResult &Pt);

  //===--- forward ---------------------------------------------------------===
  State initialState() const { return AbsState{false, 1, {}}; } // {init}
  State transfer(const ir::Command &Cmd, const State &In,
                 const Param &Prm) const;

  /// Forgets dead variables (optional engine hook, see dataflow/Forward.h):
  /// drops must-alias entries outside \p Live. Ts and Top are not
  /// variable-indexed and stay untouched.
  void pruneState(State &S, const BitSet &Live) const {
    size_t W = 0;
    for (uint32_t V : S.Vs)
      if (V < Live.size() && Live.test(V))
        S.Vs[W++] = V;
    S.Vs.resize(W);
  }

  //===--- queries ---------------------------------------------------------===
  /// Failure condition not(q) for a check(v, allowed): err or any
  /// disallowed type-state reachable. In stress mode (or without payload):
  /// err alone.
  formula::Dnf notQ(ir::CheckId Check) const;

  //===--- backward meta-analysis ------------------------------------------===
  formula::Formula wpAtom(const ir::Command &Cmd, formula::AtomId A) const;
  bool evalAtom(formula::AtomId A, const Param &Prm, const State &D) const;
  bool isParamAtom(formula::AtomId A) const { return (A & 3) == 1; }
  std::string atomName(formula::AtomId A) const;

  /// Semantic normalization hooks (Figure 9's domain): err excludes every
  /// var/type atom, since those describe non-TOP states. There are no
  /// multi-valued locations in this domain.
  std::optional<formula::LocationInfo> atomLocation(formula::AtomId) const {
    return std::nullopt;
  }
  std::optional<formula::Cube> refineCube(const formula::Cube &C) const;

  /// The literal-wp table every backward run over this instance shares
  /// (meta/WpTable.h). A memo of the const wpAtom, hence reachable from a
  /// const analysis.
  meta::WpTable &wpTable() const { return Wp; }

  //===--- parameter codec --------------------------------------------------===
  uint32_t numParamBits() const { return P.numVars(); }
  std::pair<uint32_t, bool> decodeParamAtom(formula::AtomId A) const;
  Param paramFromBits(const std::vector<bool> &Bits) const;
  uint32_t paramCost(const Param &Prm) const {
    return static_cast<uint32_t>(Prm.Tracked.count());
  }
  std::string paramToString(const Param &Prm) const;

  //===--- atom constructors (public for tests and examples) ----------------===
  static formula::AtomId atomErr() { return 0; }
  static formula::AtomId atomParam(ir::VarId X) {
    return (X.index() << 2) | 1;
  }
  static formula::AtomId atomVar(ir::VarId X) { return (X.index() << 2) | 2; }
  static formula::AtomId atomType(uint32_t S) { return (S << 2) | 3; }

private:
  /// What one case does to a non-TOP state (TOP absorbs every effect). It
  /// reads its operands from the command, so most lists are shared.
  enum class Effect : uint8_t {
    Keep,  ///< d' = d
    Top,   ///< d' = TOP
    Drop,  ///< Dst leaves vs
    Bind,  ///< Dst is in vs' iff Src is in vs and Dst is in p (Copy)
    Fresh, ///< a new tracked object: ts' = ts u {init}, vs' = {Dst} ^ p
    Call,  ///< ts' = [m](ts), strong if Dst is in vs, weak otherwise
  };
  using Transfer = meta::GuardedTransfer<Effect>;

  /// Calls \p Fn on \p Cmd's case list (Figure 4).
  template <typename FnT>
  auto withCases(const ir::Command &Cmd, FnT Fn) const {
    if (const Transfer *T = fixedCases(Cmd))
      return Fn(*T);
    if (const Transfer *T = Calls.find(Cmd))
      return Fn(*T);
    return Fn(callCases(Cmd));
  }
  /// The shared list of \p Cmd; null for a call that may reach the site.
  const Transfer *fixedCases(const ir::Command &Cmd) const;
  Transfer callCases(const ir::Command &Cmd) const;

  const ir::Program &P;
  const TypestateSpec &Spec;
  ir::AllocId Tracked;
  const pointer::PointsToResult &Pt;
  /// callCases() of the pool's calls that may reach the tracked site.
  meta::CaseTable<Effect> Calls;
  mutable meta::WpTable Wp;
};

/// The type-state queries among \p Checks by tracked site, one driver run
/// each: a (check, site) pair for every allocation site the check's
/// receiver may point to (§6). Sites ascend; each keeps \p Checks' order.
inline std::map<uint32_t, std::vector<ir::CheckId>>
checksBySite(const ir::Program &P, const std::vector<ir::CheckId> &Checks,
             const pointer::PointsToResult &Pt) {
  std::map<uint32_t, std::vector<ir::CheckId>> BySite;
  for (ir::CheckId Check : Checks)
    Pt.pointsTo(P.checkSite(Check).Var).forEach([&](size_t H) {
      BySite[static_cast<uint32_t>(H)].push_back(Check);
    });
  return BySite;
}

/// The event-trace label of the driver run for tracked site \p Site.
inline std::string siteTraceLabel(uint32_t Site) {
  return "typestate/site=" + std::to_string(Site);
}

} // namespace typestate
} // namespace optabs

#endif // OPTABS_TYPESTATE_TYPESTATE_H
