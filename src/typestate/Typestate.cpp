//===- Typestate.cpp - Parametric type-state analysis -----------------------===//

#include "typestate/Typestate.h"

#include <algorithm>

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
  for (uint32_t I = 0; I < StateNames.size(); ++I)
    if (StateNames[I] == Name)
      return I;
  assert(StateNames.size() < MaxStates && "too many type-states");
  StateNames.push_back(Name);
  return static_cast<uint32_t>(StateNames.size() - 1);
}

void TypestateSpec::addTransition(MethodId M, uint32_t From, uint32_t To) {
  assert(From < numStates() && To < numStates());
  assert(!lookup(M, From) && "duplicate transition");
  Transitions.push_back(
      {(static_cast<uint64_t>(M.index()) << 32) | From, To});
}

void TypestateSpec::addErrorTransition(MethodId M, uint32_t From) {
  assert(From < numStates());
  assert(!lookup(M, From) && "duplicate transition");
  Transitions.push_back(
      {(static_cast<uint64_t>(M.index()) << 32) | From, SuccTop});
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
// Forward analysis (Figure 4 + may-alias refinement)
//===----------------------------------------------------------------------===//

TypestateAnalysis::TypestateAnalysis(const Program &P,
                                     const TypestateSpec &Spec,
                                     AllocId Tracked,
                                     const pointer::PointsToResult &Pt)
    : P(P), Spec(Spec), Tracked(Tracked), Pt(Pt), Wp(P.numCommands()) {
  assert(Spec.numStates() <= TypestateSpec::MaxStates);
}

AbsState TypestateAnalysis::initialState() const {
  AbsState D;
  D.Ts = 1; // { init }
  return D;
}

namespace {

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

AbsState topState() {
  AbsState D;
  D.Top = true;
  return D;
}

} // namespace

AbsState TypestateAnalysis::transfer(const Command &Cmd, const AbsState &In,
                                     const Param &Prm) const {
  if (In.Top)
    return In; // TOP is absorbing
  AbsState Out = In;
  switch (Cmd.Kind) {
  case CmdKind::Assume:
  case CmdKind::Check:
  case CmdKind::StoreGlobal:
  case CmdKind::StoreField:
    return In; // object state and aliasing of locals unaffected
  case CmdKind::New:
    if (Cmd.Alloc == Tracked) {
      // A fresh object starts in init; earlier must-aliases pointed to the
      // previous object and are dropped. Dst joins vs only if tracked by p.
      Out.Ts = In.Ts | 1u;
      Out.Vs.clear();
      if (Prm.Tracked.test(Cmd.Dst.index()))
        Out.Vs.push_back(Cmd.Dst.index());
    } else {
      vsRemove(Out.Vs, Cmd.Dst); // Dst now points elsewhere
    }
    return Out;
  case CmdKind::Copy:
    if (vsContains(In.Vs, Cmd.Src) && Prm.Tracked.test(Cmd.Dst.index()))
      vsInsert(Out.Vs, Cmd.Dst);
    else
      vsRemove(Out.Vs, Cmd.Dst);
    return Out;
  case CmdKind::Null:
  case CmdKind::LoadGlobal:
  case CmdKind::LoadField:
    // Dst may no longer point to the tracked object (loads are handled
    // conservatively: the must-alias set only shrinks).
    vsRemove(Out.Vs, Cmd.Dst);
    return Out;
  case CmdKind::MethodCall: {
    if (!mayAffect(Cmd.Dst))
      return In; // receiver cannot point to the tracked site
    bool Must = vsContains(In.Vs, Cmd.Dst);
    if (Spec.isStress())
      return Must ? In : topState();
    uint32_t Image = 0;
    for (uint32_t S = 0; S < Spec.numStates(); ++S) {
      if (!(In.Ts & (1u << S)))
        continue;
      auto Next = Spec.apply(Cmd.Method, S);
      if (!Next)
        return topState(); // some possible state errs on this call
      Image |= 1u << *Next;
    }
    Out.Ts = Must ? Image : (In.Ts | Image); // strong vs. weak update
    return Out;
  }
  case CmdKind::Invoke:
    break;
  }
  assert(false && "Invoke must be expanded by the engine");
  return In;
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

namespace {
enum AtomKind { KErr = 0, KParam = 1, KVar = 2, KType = 3 };
}

formula::Formula TypestateAnalysis::wpAtom(const Command &Cmd,
                                           AtomId A) const {
  unsigned Kind = A & 3;
  uint32_t Payload = A >> 2;
  Formula Same = Formula::atom(A);

  // param(z) is untouched by every command (p never changes mid-run).
  if (Kind == KParam)
    return Same;

  switch (Cmd.Kind) {
  case CmdKind::Assume:
  case CmdKind::Check:
  case CmdKind::StoreGlobal:
  case CmdKind::StoreField:
    return Same;

  case CmdKind::New:
    if (Cmd.Alloc == Tracked) {
      if (Kind == KErr)
        return Same;
      if (Kind == KVar) {
        // vs' = {Dst} ^ p: only Dst can be in vs', and only if tracked.
        if (Payload != Cmd.Dst.index())
          return Formula::constant(false);
        return Formula::conj(
            {Formula::negAtom(atomErr()), Formula::atom(atomParam(Cmd.Dst))});
      }
      // ts' = ts u {init}: init is present whenever pre is non-TOP.
      if (Payload == 0)
        return Formula::negAtom(atomErr());
      return Same;
    }
    // Untracked allocation behaves like Dst = null.
    [[fallthrough]];
  case CmdKind::Null:
  case CmdKind::LoadGlobal:
  case CmdKind::LoadField:
    if (Kind == KVar && Payload == Cmd.Dst.index())
      return Formula::constant(false);
    return Same;

  case CmdKind::Copy:
    if (Kind == KVar && Payload == Cmd.Dst.index()) {
      // Dst in vs' iff Src was in vs and Dst is tracked by p (Figure 10).
      return Formula::conj({Formula::atom(atomVar(Cmd.Src)),
                            Formula::atom(atomParam(Cmd.Dst))});
    }
    return Same;

  case CmdKind::MethodCall: {
    if (!mayAffect(Cmd.Dst))
      return Same;
    if (Spec.isStress()) {
      // d' = d if Dst in vs, TOP otherwise.
      if (Kind == KErr)
        return Formula::disj({Same, Formula::negAtom(atomVar(Cmd.Dst))});
      return Formula::conj({Formula::atom(atomVar(Cmd.Dst)), Same});
    }
    // Automaton mode. Pre-states with an error transition reach TOP.
    std::vector<Formula> ErrSources;
    for (uint32_t S = 0; S < Spec.numStates(); ++S)
      if ((Cmd.Method.isValid()) && !Spec.apply(Cmd.Method, S))
        ErrSources.push_back(Formula::atom(atomType(S)));
    if (Kind == KErr)
      return Formula::disj(
          {Same, Formula::disj(std::vector<Formula>(ErrSources))});
    std::vector<Formula> NoErr;
    for (const Formula &F : ErrSources)
      NoErr.push_back(Formula::negate(F));
    if (Kind == KVar)
      return Formula::conj(
          {Same, Formula::conj(std::vector<Formula>(NoErr))});
    // type(s'): either some pre-state maps to s', or the update was weak
    // (receiver not in vs) and s' was already present (Figure 10).
    std::vector<Formula> Producers;
    for (uint32_t S = 0; S < Spec.numStates(); ++S)
      if (Spec.apply(Cmd.Method, S) == std::optional<uint32_t>(Payload))
        Producers.push_back(Formula::atom(atomType(S)));
    Formula Weak =
        Formula::conj({Formula::negAtom(atomVar(Cmd.Dst)), Same});
    return Formula::conj(
        {Formula::negAtom(atomErr()), Formula::conj(std::move(NoErr)),
         Formula::disj({Formula::disj(std::move(Producers)), Weak})});
  }

  case CmdKind::Invoke:
    break;
  }
  assert(false && "Invoke must be expanded by the engine");
  return Same;
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

bool TypestateAnalysis::isParamAtom(AtomId A) const {
  return (A & 3) == KParam;
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
