//===- Escape.cpp - Parametric thread-escape analysis ------------------------===//

#include "escape/Escape.h"

namespace optabs {
namespace escape {

using namespace ir;
using formula::AtomId;
using formula::Dnf;
using formula::Formula;

//===----------------------------------------------------------------------===//
// State and atoms
//===----------------------------------------------------------------------===//

EscapeAnalysis::EscapeAnalysis(const Program &P)
    : P(P), Compiled(P, [this](const Command &Cmd) {
        return Cmd.Kind == CmdKind::Invoke ? Transfer() : cases(Cmd);
      }),
      Wp(P.numCommands()) {}

EscState EscapeAnalysis::initialState() const {
  static_assert(static_cast<uint8_t>(AbsVal::N) == 0);
  EscState D;
  D.Words.assign(EscState::wordsFor(numLocs()), 0);
  return D;
}

Formula EscapeAnalysis::locIs(uint32_t Loc, AbsVal O) const {
  if (Loc < P.numVars())
    return Formula::atom(atomVar(VarId(Loc), O));
  return Formula::atom(atomField(FieldId(Loc - P.numVars()), O));
}

bool EscapeAnalysis::evalAtom(AtomId A, const Param &Prm,
                              const EscState &D) const {
  unsigned Kind = A & 3;
  AbsVal O = static_cast<AbsVal>((A >> 2) & 3);
  uint32_t Idx = A >> 4;
  switch (Kind) {
  case KSite:
    if (O == AbsVal::L)
      return Prm.LSites.test(Idx);
    if (O == AbsVal::E)
      return !Prm.LSites.test(Idx);
    return false; // h.N never holds: p maps sites to L or E only
  case KVar:
    return D.slot(Idx) == O;
  case KField:
    return D.slot(P.numVars() + Idx) == O;
  }
  return false;
}

std::string EscapeAnalysis::atomName(AtomId A) const {
  unsigned Kind = A & 3;
  AbsVal O = static_cast<AbsVal>((A >> 2) & 3);
  uint32_t Idx = A >> 4;
  switch (Kind) {
  case KSite:
    return P.allocName(AllocId(Idx)) + "." + absValName(O);
  case KVar:
    return P.varName(VarId(Idx)) + "." + absValName(O);
  case KField:
    return P.fieldName(FieldId(Idx)) + "." + absValName(O);
  }
  return "?";
}

std::pair<uint32_t, bool> EscapeAnalysis::decodeParamAtom(AtomId A) const {
  assert(isParamAtom(A));
  AbsVal O = static_cast<AbsVal>((A >> 2) & 3);
  assert(O != AbsVal::N && "sites are mapped to L or E only");
  return {A >> 4, O == AbsVal::L};
}

EscParam EscapeAnalysis::paramFromBits(const std::vector<bool> &Bits) const {
  EscParam Prm;
  Prm.LSites = BitSet(P.numAllocs());
  for (size_t I = 0; I < Bits.size() && I < P.numAllocs(); ++I)
    if (Bits[I])
      Prm.LSites.set(I);
  return Prm;
}

std::string EscapeAnalysis::paramToString(const Param &Prm) const {
  std::string S = "[L:";
  bool First = true;
  Prm.LSites.forEach([&](size_t I) {
    if (!First)
      S += ",";
    First = false;
    S += P.allocName(AllocId(static_cast<uint32_t>(I)));
  });
  return S + "]";
}

Dnf EscapeAnalysis::notQ(CheckId Check) const {
  const CheckSite &Site = P.checkSite(Check);
  return Dnf::singleLit(formula::Lit::pos(atomVar(Site.Var, AbsVal::E)));
}

//===----------------------------------------------------------------------===//
// Case lists (Figure 5, one entry per semantic case)
//===----------------------------------------------------------------------===//

AbsVal EscapeAnalysis::valueOf(const ValueSrc &Src, const State &D,
                               const Param &Prm) const {
  switch (Src.K) {
  case ValueSrc::Const:
    return Src.C;
  case ValueSrc::OfLoc:
    return D.slot(Src.Loc);
  case ValueSrc::OfSite:
    return Prm.LSites.test(Src.Site) ? AbsVal::L : AbsVal::E;
  }
  return AbsVal::N;
}

EscapeAnalysis::Transfer EscapeAnalysis::cases(const Command &Cmd) const {
  Transfer T;
  auto Identity = [&T](Formula G) { T.addCase(std::move(G), Effect{}); };
  auto Escape = [&T](Formula G) {
    T.addCase(std::move(G), Effect{true, false, 0, {}});
  };
  auto Assign = [&T](Formula G, uint32_t Loc, ValueSrc Src) {
    T.addCase(std::move(G), Effect{false, true, Loc, Src});
  };
  Formula True = Formula::constant(true);

  switch (Cmd.Kind) {
  case CmdKind::Assume:
  case CmdKind::Check:
  case CmdKind::MethodCall: // type-state calls do not move pointers
    Identity(True);
    return T;

  case CmdKind::New:
    // [v = new h] d = d[v -> p(h)]
    Assign(True, locOfVar(Cmd.Dst), ValueSrc::ofSite(Cmd.Alloc.index()));
    return T;

  case CmdKind::Copy:
    // [v = v'] d = d[v -> d(v')]
    Assign(True, locOfVar(Cmd.Dst), ValueSrc::ofLoc(locOfVar(Cmd.Src)));
    return T;

  case CmdKind::Null:
    Assign(True, locOfVar(Cmd.Dst), ValueSrc::constant(AbsVal::N));
    return T;

  case CmdKind::LoadGlobal:
    // Anything read from a global may escape.
    Assign(True, locOfVar(Cmd.Dst), ValueSrc::constant(AbsVal::E));
    return T;

  case CmdKind::StoreGlobal: {
    // [g = v] d = esc(d) if d(v) = L, else d: publishing a local object
    // lets other threads reach every L object through it.
    Formula VL = locIs(locOfVar(Cmd.Src), AbsVal::L);
    Escape(VL);
    Identity(Formula::negate(VL));
    return T;
  }

  case CmdKind::LoadField: {
    // [v = v'.f] d = d[v -> d(f)] if d(v') = L, else d[v -> E].
    Formula BaseL = locIs(locOfVar(Cmd.Src), AbsVal::L);
    Assign(BaseL, locOfVar(Cmd.Dst), ValueSrc::ofLoc(locOfField(Cmd.Field)));
    Assign(Formula::negate(BaseL), locOfVar(Cmd.Dst),
           ValueSrc::constant(AbsVal::E));
    return T;
  }

  case CmdKind::StoreField: {
    // [v.f = v'] (Figure 5): the base's abstract value decides.
    uint32_t V = locOfVar(Cmd.Dst);
    uint32_t W = locOfVar(Cmd.Src);
    uint32_t F = locOfField(Cmd.Field);
    auto Both = [&](AbsVal A, AbsVal B) {
      return Formula::conj({locIs(F, A), locIs(W, B)});
    };
    // Base null: no continuation concretely; keeping d is sound.
    Identity(locIs(V, AbsVal::N));
    // Base escaped, value local: the local object becomes reachable from
    // an escaped one, so everything L collapses.
    Escape(Formula::conj({locIs(V, AbsVal::E), locIs(W, AbsVal::L)}));
    // Base escaped, value escaped-or-null: E stays closed; nothing to do.
    Identity(Formula::conj(
        {locIs(V, AbsVal::E), Formula::negate(locIs(W, AbsVal::L))}));
    // Base local: weak update of the field summary f over all L objects.
    Identity(Formula::conj(
        {locIs(V, AbsVal::L),
         Formula::disj({Both(AbsVal::N, AbsVal::N), Both(AbsVal::L, AbsVal::L),
                        Both(AbsVal::E, AbsVal::E)})}));
    Assign(Formula::conj({locIs(V, AbsVal::L),
                          Formula::disj({Both(AbsVal::N, AbsVal::L),
                                         Both(AbsVal::L, AbsVal::N)})}),
           F, ValueSrc::constant(AbsVal::L));
    Assign(Formula::conj({locIs(V, AbsVal::L),
                          Formula::disj({Both(AbsVal::N, AbsVal::E),
                                         Both(AbsVal::E, AbsVal::N)})}),
           F, ValueSrc::constant(AbsVal::E));
    // Field summary and stored value are L/E in some order: a single
    // abstract value cannot cover both, so collapse.
    Escape(Formula::conj(
        {locIs(V, AbsVal::L),
         Formula::disj({Both(AbsVal::L, AbsVal::E),
                        Both(AbsVal::E, AbsVal::L)})}));
    return T;
  }

  case CmdKind::Invoke:
    break;
  }
  assert(false && "Invoke must be expanded by the engine");
  return T;
}

//===----------------------------------------------------------------------===//
// Forward transfer
//===----------------------------------------------------------------------===//

EscState EscapeAnalysis::esc(const EscState &D) const {
  EscState Out;
  Out.Words.resize(D.Words.size()); // every field slot N
  const size_t NumVars = P.numVars();
  for (size_t I = 0, Lo = 0; I < D.Words.size() && Lo < NumVars;
       ++I, Lo += EscState::SlotsPerWord) {
    // A slot's two bits ORed into its low bit, moved up: 01 and 10 both
    // become E (10), 00 stays N.
    uint64_t W = D.Words[I];
    W = ((W | W >> 1) & 0x5555555555555555ULL) << 1;
    if (NumVars - Lo < EscState::SlotsPerWord)
      W &= pairMask((uint64_t(1) << (NumVars - Lo)) - 1);
    Out.Words[I] = W;
  }
  return Out;
}

EscState EscapeAnalysis::transfer(const Command &Cmd, const EscState &In,
                                  const Param &Prm) const {
  auto ApplyEffect = [&](const Effect &E) {
    if (E.IsEsc)
      return esc(In);
    if (E.HasAssign) {
      EscState Out = In;
      Out.setSlot(E.AssignLoc, valueOf(E.Src, In, Prm));
      return Out;
    }
    return In;
  };
  return withCases(Cmd, [&](const Transfer &T) {
    return T.apply(*this, Prm, In, ApplyEffect);
  });
}

//===----------------------------------------------------------------------===//
// Backward weakest preconditions
//===----------------------------------------------------------------------===//

Formula EscapeAnalysis::wpUnderEffect(const Effect &E, uint32_t Loc,
                                      AbsVal O) const {
  if (E.IsEsc) {
    if (Loc >= P.numVars()) // fields reset to N
      return Formula::constant(O == AbsVal::N);
    switch (O) {
    case AbsVal::N:
      return locIs(Loc, AbsVal::N);
    case AbsVal::E:
      return Formula::disj({locIs(Loc, AbsVal::L), locIs(Loc, AbsVal::E)});
    case AbsVal::L:
      return Formula::constant(false);
    }
    return Formula::constant(false);
  }
  if (E.HasAssign && E.AssignLoc == Loc) {
    switch (E.Src.K) {
    case ValueSrc::Const:
      return Formula::constant(E.Src.C == O);
    case ValueSrc::OfLoc:
      return locIs(E.Src.Loc, O);
    case ValueSrc::OfSite:
      if (O == AbsVal::N)
        return Formula::constant(false);
      return Formula::atom(atomSite(AllocId(E.Src.Site), O));
    }
  }
  return locIs(Loc, O);
}

Formula EscapeAnalysis::wpAtom(const Command &Cmd, AtomId A) const {
  // Parameter atoms never change across commands.
  if (isParamAtom(A))
    return Formula::atom(A);
  unsigned Kind = A & 3;
  AbsVal O = static_cast<AbsVal>((A >> 2) & 3);
  uint32_t Idx = A >> 4;
  uint32_t Loc = Kind == KVar ? Idx : P.numVars() + Idx;

  return withCases(Cmd, [&](const Transfer &T) {
    return T.wpAtom(A, [&](const Effect &E, AtomId) {
      return wpUnderEffect(E, Loc, O);
    });
  });
}

} // namespace escape
} // namespace optabs
