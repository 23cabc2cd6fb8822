//===- Typestate.cpp - Parametric type-state analysis -----------------------===//

#include "typestate/Typestate.h"

#include <algorithm>
#include <array>

namespace optabs {
namespace typestate {

using namespace ir;
using formula::AtomId;
using formula::Dnf;
using formula::Formula;

//===----------------------------------------------------------------------===//
// TypestateSpec
//===----------------------------------------------------------------------===//

TypestateSpec::TypestateSpec(const std::string &InitName) {
  StateNames.push_back(InitName);
}

TypestateSpec TypestateSpec::stress() {
  TypestateSpec Spec("init");
  Spec.Stress = true;
  return Spec;
}

uint32_t TypestateSpec::addState(const std::string &Name) {
  if (std::optional<uint32_t> S = findState(Name))
    return *S;
  assert(StateNames.size() < MaxStates && "too many type-states");
  StateNames.push_back(Name);
  return static_cast<uint32_t>(StateNames.size() - 1);
}

void TypestateSpec::addTransition(MethodId M, uint32_t From, uint32_t To) {
  assert(From < numStates() && (To < numStates() || To == SuccTop));
  assert(!lookup(M, From) && "duplicate transition");
  Transitions.push_back(
      {(static_cast<uint64_t>(M.index()) << 32) | From, To});
}

std::optional<uint32_t> TypestateSpec::findState(
    const std::string &Name) const {
  for (uint32_t I = 0; I < StateNames.size(); ++I)
    if (StateNames[I] == Name)
      return I;
  return std::nullopt;
}

std::optional<uint32_t> TypestateSpec::lookup(MethodId M, uint32_t S) const {
  uint64_t Key = (static_cast<uint64_t>(M.index()) << 32) | S;
  for (const auto &[K, To] : Transitions)
    if (K == Key)
      return To;
  return std::nullopt;
}

std::optional<uint32_t> TypestateSpec::apply(MethodId M, uint32_t S) const {
  assert(!Stress && "stress mode has no automaton");
  if (auto To = lookup(M, S))
    return *To == SuccTop ? std::nullopt : std::optional<uint32_t>(*To);
  return S; // undeclared methods leave the type-state unchanged
}

//===----------------------------------------------------------------------===//
// Case lists (Figure 4 + may-alias refinement)
//===----------------------------------------------------------------------===//

TypestateAnalysis::TypestateAnalysis(const Program &P,
                                     const TypestateSpec &Spec,
                                     AllocId Tracked,
                                     const pointer::PointsToResult &Pt)
    : P(P), Spec(Spec), Tracked(Tracked), Pt(Pt),
      Calls(P, [this](const Command &Cmd) -> std::optional<Transfer> {
        if (Cmd.Kind == CmdKind::MethodCall && !fixedCases(Cmd))
          return callCases(Cmd);
        return std::nullopt;
      }),
      Wp(P.numCommands()) {
  assert(Spec.numStates() <= TypestateSpec::MaxStates);
}

namespace {

enum AtomKind { KErr = 0, KParam = 1, KVar = 2, KType = 3 };

bool vsContains(const std::vector<uint32_t> &Vs, VarId X) {
  return std::binary_search(Vs.begin(), Vs.end(), X.index());
}

void vsRemove(std::vector<uint32_t> &Vs, VarId X) {
  auto It = std::lower_bound(Vs.begin(), Vs.end(), X.index());
  if (It != Vs.end() && *It == X.index())
    Vs.erase(It);
}

void vsInsert(std::vector<uint32_t> &Vs, VarId X) {
  auto It = std::lower_bound(Vs.begin(), Vs.end(), X.index());
  if (It == Vs.end() || *It != X.index())
    Vs.insert(It, X.index());
}

} // namespace

const TypestateAnalysis::Transfer *
TypestateAnalysis::fixedCases(const Command &Cmd) const {
  static const auto Always = [] { // [true -> E], by effect
    std::array<Transfer, static_cast<size_t>(Effect::Call) + 1> Lists;
    for (size_t E = 0; E < Lists.size(); ++E)
      Lists[E].addCase(Formula::constant(true), static_cast<Effect>(E));
    return Lists;
  }();
  assert(Cmd.Kind != CmdKind::Invoke && "Invoke is expanded by the engine");
  Effect E = Effect::Keep; // Assume, Check, stores: object and locals kept
  switch (Cmd.Kind) {
  case CmdKind::New: // an untracked allocation behaves like Dst = null
    E = Cmd.Alloc == Tracked ? Effect::Fresh : Effect::Drop;
    break;
  case CmdKind::Copy:
    E = Effect::Bind;
    break;
  case CmdKind::Null:
  case CmdKind::LoadGlobal:
  case CmdKind::LoadField: // loads are conservative: vs only shrinks
    E = Effect::Drop;
    break;
  case CmdKind::MethodCall: // a receiver that cannot point to h: identity
    if (Pt.mayPoint(Cmd.Dst, Tracked))
      return nullptr;
    break;
  default:
    break;
  }
  return &Always[static_cast<size_t>(E)];
}

TypestateAnalysis::Transfer
TypestateAnalysis::callCases(const Command &Cmd) const {
  // TOP keeps TOP, and err excludes every var/type atom, so err joins the
  // TOP case and the other guards may leave it out.
  Transfer T;
  Formula Err = Formula::atom(atomErr());
  if (Spec.isStress()) { // d' = d if Dst is in vs, TOP otherwise
    Formula Must = Formula::atom(atomVar(Cmd.Dst));
    T.addCase(Formula::disj({Err, Formula::negate(Must)}), Effect::Top);
    T.addCase(Must, Effect::Keep);
    return T;
  }
  // Automaton mode: pre-states with an error transition reach TOP.
  std::vector<Formula> ErrSources;
  for (uint32_t S = 0; S < Spec.numStates(); ++S)
    if (Cmd.Method.isValid() && !Spec.apply(Cmd.Method, S))
      ErrSources.push_back(Formula::atom(atomType(S)));
  Formula Errs = Formula::disj(std::move(ErrSources));
  T.addCase(Formula::disj({Err, Errs}), Effect::Top);
  T.addCase(Formula::negate(Errs), Effect::Call);
  return T;
}

AbsState TypestateAnalysis::transfer(const Command &Cmd, const AbsState &In,
                                     const Param &Prm) const {
  if (In.Top)
    return In; // TOP is absorbing
  auto ApplyEffect = [&](Effect E) {
    AbsState Out = In;
    switch (E) {
    case Effect::Keep:
      break;
    case Effect::Top:
      Out = AbsState{true, 0, {}};
      break;
    case Effect::Drop:
      vsRemove(Out.Vs, Cmd.Dst);
      break;
    case Effect::Bind:
      if (vsContains(In.Vs, Cmd.Src) && Prm.Tracked.test(Cmd.Dst.index()))
        vsInsert(Out.Vs, Cmd.Dst);
      else
        vsRemove(Out.Vs, Cmd.Dst);
      break;
    case Effect::Fresh: // earlier must-aliases named the previous object
      Out.Ts = In.Ts | 1u;
      Out.Vs.clear();
      if (Prm.Tracked.test(Cmd.Dst.index()))
        Out.Vs.push_back(Cmd.Dst.index());
      break;
    case Effect::Call: // the guard leaves no pre-state that errs
      Out.Ts = vsContains(In.Vs, Cmd.Dst) ? 0 : In.Ts;
      for (uint32_t S = 0; S < Spec.numStates(); ++S)
        if (In.Ts & (1u << S))
          Out.Ts |= 1u << *Spec.apply(Cmd.Method, S);
      break;
    }
    return Out;
  };
  return withCases(Cmd, [&](const Transfer &T) {
    return T.apply(*this, Prm, In, ApplyEffect);
  });
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

Dnf TypestateAnalysis::notQ(CheckId Check) const {
  std::vector<formula::Cube> Cubes;
  auto AddLit = [&](AtomId A) {
    Cubes.push_back(*formula::Cube::make({formula::Lit::pos(A)}));
  };
  AddLit(atomErr());
  const CheckSite &Site = P.checkSite(Check);
  if (!Spec.isStress() && Site.Payload.isValid()) {
    auto Allowed = Spec.findState(P.symbolName(Site.Payload));
    assert(Allowed && "check payload names an unknown type-state");
    for (uint32_t S = 0; S < Spec.numStates(); ++S)
      if (S != *Allowed)
        AddLit(atomType(S));
  }
  return Dnf::fromCubes(std::move(Cubes));
}

//===----------------------------------------------------------------------===//
// Backward meta-analysis (Figures 9/10)
//===----------------------------------------------------------------------===//

Formula TypestateAnalysis::wpAtom(const Command &Cmd, AtomId A) const {
  unsigned Kind = A & 3;
  uint32_t Payload = A >> 2;
  Formula Same = Formula::atom(A);
  if (Kind == KParam)
    return Same; // p never changes mid-run
  bool IsDst = Kind == KVar && Payload == Cmd.Dst.index();
  Formula NotErr = Formula::negAtom(atomErr());
  // The wp of A under one effect, exact on every state, TOP included.
  auto WpUnderEffect = [&](Effect E, AtomId) {
    switch (E) {
    case Effect::Keep:
      break;
    case Effect::Top:
      return Formula::constant(Kind == KErr);
    case Effect::Drop:
      return IsDst ? Formula::constant(false) : Same;
    case Effect::Bind:
      return IsDst ? Formula::conj({Formula::atom(atomVar(Cmd.Src)),
                                    Formula::atom(atomParam(Cmd.Dst))})
                   : Same;
    case Effect::Fresh: // vs' = {Dst} ^ p, and init joins ts
      if (Kind == KVar && IsDst)
        return Formula::conj({NotErr, Formula::atom(atomParam(Cmd.Dst))});
      if (Kind == KVar)
        return Formula::constant(false);
      return Kind == KType && Payload == 0 ? NotErr : Same;
    case Effect::Call: {
      if (Kind != KType)
        break;
      // type(s'): either some pre-state maps to s', or the update was weak
      // (receiver not in vs) and s' was already present (Figure 10).
      std::vector<Formula> Producers;
      for (uint32_t S = 0; S < Spec.numStates(); ++S)
        if (Spec.apply(Cmd.Method, S) == std::optional<uint32_t>(Payload))
          Producers.push_back(Formula::atom(atomType(S)));
      Formula Weak = Formula::conj({Formula::negAtom(atomVar(Cmd.Dst)), Same});
      return Formula::conj(
          {NotErr, Formula::disj({Formula::disj(std::move(Producers)), Weak})});
    }
    }
    return Same;
  };
  return withCases(Cmd, [&](const Transfer &T) {
    return T.wpAtom(A, WpUnderEffect);
  });
}

bool TypestateAnalysis::evalAtom(AtomId A, const Param &Prm,
                                 const AbsState &D) const {
  unsigned Kind = A & 3;
  uint32_t Payload = A >> 2;
  switch (Kind) {
  case KErr:
    return D.Top;
  case KParam:
    return Prm.Tracked.test(Payload);
  case KVar:
    return !D.Top && std::binary_search(D.Vs.begin(), D.Vs.end(), Payload);
  case KType:
    return !D.Top && (D.Ts & (1u << Payload));
  }
  return false;
}

std::string TypestateAnalysis::atomName(AtomId A) const {
  unsigned Kind = A & 3;
  uint32_t Payload = A >> 2;
  switch (Kind) {
  case KErr:
    return "err";
  case KParam:
    return "param(" + P.varName(VarId(Payload)) + ")";
  case KVar:
    return "var(" + P.varName(VarId(Payload)) + ")";
  case KType:
    return "type(" + Spec.stateName(Payload) + ")";
  }
  return "?";
}

std::optional<optabs::formula::Cube> TypestateAnalysis::refineCube(
    const optabs::formula::Cube &C) const {
  using optabs::formula::Lit;
  bool ErrPos = false;
  bool StatePos = false; // some var(x) or type(s) positively present
  for (Lit L : C.literals()) {
    unsigned Kind = L.atom() & 3;
    if (Kind == KParam)
      continue;
    if (Kind == KErr)
      ErrPos |= !L.isNeg();
    else if (!L.isNeg())
      StatePos = true;
  }
  if (ErrPos && StatePos)
    return std::nullopt; // var/type atoms hold only of non-TOP states
  if (!ErrPos && !StatePos)
    return C;
  std::vector<Lit> Lits;
  for (Lit L : C.literals()) {
    unsigned Kind = L.atom() & 3;
    if (ErrPos && Kind != KErr && Kind != KParam && L.isNeg())
      continue; // err implies !var(x), !type(s)
    if (StatePos && Kind == KErr && L.isNeg())
      continue; // a positive var/type already implies !err
    Lits.push_back(L);
  }
  return optabs::formula::Cube::make(std::move(Lits));
}

std::pair<uint32_t, bool> TypestateAnalysis::decodeParamAtom(
    AtomId A) const {
  assert(isParamAtom(A));
  return {A >> 2, true};
}

TsParam TypestateAnalysis::paramFromBits(const std::vector<bool> &Bits) const {
  TsParam Prm;
  Prm.Tracked = BitSet(P.numVars());
  for (size_t I = 0; I < Bits.size() && I < P.numVars(); ++I)
    if (Bits[I])
      Prm.Tracked.set(I);
  return Prm;
}

std::string TypestateAnalysis::paramToString(const Param &Prm) const {
  std::string S = "{";
  bool First = true;
  Prm.Tracked.forEach([&](size_t I) {
    if (!First)
      S += ",";
    First = false;
    S += P.varName(VarId(static_cast<uint32_t>(I)));
  });
  return S + "}";
}

} // namespace typestate
} // namespace optabs
