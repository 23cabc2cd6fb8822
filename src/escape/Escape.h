//===- Escape.h - Parametric thread-escape analysis ------------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parametric thread-escape analysis of §3.2 / Figure 5 together with
/// its backward meta-analysis (Figure 11), packaged as an Analysis bundle
/// for the generic engines and the TRACER driver.
///
/// Abstract states map local variables and fields (of L-summarized
/// objects) to one of three abstract values:
///   N - definitely null,
///   L - a thread-local object (or null),
///   E - a possibly thread-escaping object (or null).
/// E-summarized objects are closed under reachability, so storing an L
/// object into an escaped one collapses the state via esc(). The
/// abstraction p maps each allocation site to L or E; cost = number of
/// L-mapped sites (the paper's preorder).
///
/// Each command's transfer function is one meta::GuardedTransfer case list
/// (effect = identity / esc / single assignment) from which both
/// directions are derived. The resulting formulas coincide with Figure 11's
/// hand-written table (modulo propositional equivalence), which the tests
/// verify by property testing.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_ESCAPE_ESCAPE_H
#define OPTABS_ESCAPE_ESCAPE_H

#include "formula/Formula.h"
#include "formula/Normalize.h"
#include "ir/Program.h"
#include "meta/GuardedCases.h"
#include "meta/WpTable.h"
#include "support/BitSet.h"

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

namespace optabs {
namespace escape {

/// The three abstract values.
enum class AbsVal : uint8_t { N = 0, L = 1, E = 2 };

inline const char *absValName(AbsVal V) {
  switch (V) {
  case AbsVal::N:
    return "N";
  case AbsVal::L:
    return "L";
  case AbsVal::E:
    return "E";
  }
  return "?";
}

/// Abstract state d : (Locals u Fields) -> {N, L, E}, two bits per
/// location and 32 locations per word. Locations are numbered variables
/// first, then fields, so one word may hold both; location I is bits
/// 2(I mod 32) and 2(I mod 32) + 1 of word I / 32, holding the AbsVal
/// (N = 00, L = 01, E = 10). The pattern 11 never occurs, and the slots
/// past the last location stay zero, so equal states have equal words.
struct EscState {
  std::vector<uint64_t> Words;

  static constexpr uint32_t SlotsPerWord = 32;
  static size_t wordsFor(size_t NumLocs) {
    return (NumLocs + SlotsPerWord - 1) / SlotsPerWord;
  }

  AbsVal slot(uint32_t Loc) const {
    return static_cast<AbsVal>((Words[Loc / SlotsPerWord] >> shift(Loc)) & 3);
  }
  void setSlot(uint32_t Loc, AbsVal V) {
    uint64_t &W = Words[Loc / SlotsPerWord];
    W = (W & ~(uint64_t(3) << shift(Loc))) |
        (uint64_t(static_cast<uint8_t>(V)) << shift(Loc));
  }

  friend bool operator==(const EscState &A, const EscState &B) {
    return A.Words == B.Words;
  }
  /// Lexicographic by location: the first slot that differs decides. The
  /// driver picks counterexample states in this order.
  friend bool operator<(const EscState &A, const EscState &B) {
    const size_t N = std::min(A.Words.size(), B.Words.size());
    for (size_t I = 0; I < N; ++I)
      if (uint64_t Diff = A.Words[I] ^ B.Words[I]) {
        const unsigned Shift = std::countr_zero(Diff) & ~1u;
        return ((A.Words[I] >> Shift) & 3) < ((B.Words[I] >> Shift) & 3);
      }
    return A.Words.size() < B.Words.size();
  }

private:
  static unsigned shift(uint32_t Loc) { return 2 * (Loc % SlotsPerWord); }
};

/// The abstraction p : H -> {L, E}; bit set = site mapped to L.
struct EscParam {
  BitSet LSites;
};

class EscapeAnalysis {
public:
  using Param = EscParam;
  using State = EscState;

  /// Mixes one word, 32 locations, per step.
  struct StateHash {
    size_t operator()(const EscState &S) const {
      auto Step = [](uint64_t H, uint64_t W) {
        H = (H ^ W) * 0x9e3779b97f4a7c15ULL;
        return H ^ (H >> 32);
      };
      uint64_t H = Step(0xcbf29ce484222325ULL, S.Words.size());
      for (uint64_t W : S.Words)
        H = Step(H, W);
      return static_cast<size_t>(H);
    }
  };

  /// Builds every command's case list once (see withCases()). \p P must
  /// outlive the analysis and gain no variables after construction: field
  /// locations in the lists are offset by the variable count.
  explicit EscapeAnalysis(const ir::Program &P);

  //===--- forward ---------------------------------------------------------===
  State initialState() const;
  State transfer(const ir::Command &Cmd, const State &In,
                 const Param &Prm) const;

  /// Forgets dead variables (optional engine hook, see dataflow/Forward.h):
  /// resets their slots to the initial N. Field slots are shared program
  /// state and stay untouched. Variables at or beyond Live.size() are
  /// dead. Works a word at a time: N is 00, so ANDing a word with its 32
  /// keep bits, each doubled into its slot's pair, resets the dead ones
  /// (crab's per-node dead-set forget, done per word).
  void pruneState(State &S, const BitSet &Live) const {
    static_assert(static_cast<uint8_t>(AbsVal::N) == 0);
    const size_t NumVars =
        std::min<size_t>(P.numVars(), S.Words.size() * EscState::SlotsPerWord);
    for (size_t Lo = 0; Lo < NumVars; Lo += EscState::SlotsPerWord) {
      // Bit I of Keep: location Lo + I is live, a field, or padding.
      uint64_t Keep = 0;
      if (Lo < Live.size())
        Keep = (Live.word(Lo / 64) >> (Lo % 64)) & 0xffffffffULL;
      if (NumVars - Lo < EscState::SlotsPerWord)
        Keep |= 0xffffffffULL << (NumVars - Lo);
      S.Words[Lo / EscState::SlotsPerWord] &= pairMask(Keep);
    }
  }

  //===--- queries ---------------------------------------------------------===
  /// Failure condition for check(v) = "local(v)?": the queried variable may
  /// point to a potentially escaping object, i.e. the atom v.E.
  formula::Dnf notQ(ir::CheckId Check) const;

  //===--- backward meta-analysis ------------------------------------------===
  formula::Formula wpAtom(const ir::Command &Cmd, formula::AtomId A) const;
  bool evalAtom(formula::AtomId A, const Param &Prm, const State &D) const;
  /// Site atoms h.o constrain only the abstraction. A few bit operations,
  /// defined here so the backward step's per-literal calls inline.
  bool isParamAtom(formula::AtomId A) const { return (A & 3) == KSite; }
  std::string atomName(formula::AtomId A) const;

  /// Semantic normalization hooks: every variable/field holds exactly one
  /// of N/L/E, and every site maps to exactly one of L/E; these locations
  /// let the meta-analysis keep formulas as compact as Figure 11's.
  /// atomLocation is defined here so refinement, which asks once per
  /// literal, inlines it.
  std::optional<formula::LocationInfo> atomLocation(formula::AtomId A) const {
    uint32_t Idx = A >> 4;
    formula::LocationInfo Info;
    switch (A & 3) {
    case KSite:
      Info.Values = {atomSite(ir::AllocId(Idx), AbsVal::L),
                     atomSite(ir::AllocId(Idx), AbsVal::E)};
      break;
    case KVar:
      Info.Values = {atomVar(ir::VarId(Idx), AbsVal::N),
                     atomVar(ir::VarId(Idx), AbsVal::L),
                     atomVar(ir::VarId(Idx), AbsVal::E)};
      break;
    default:
      Info.Values = {atomField(ir::FieldId(Idx), AbsVal::N),
                     atomField(ir::FieldId(Idx), AbsVal::L),
                     atomField(ir::FieldId(Idx), AbsVal::E)};
      break;
    }
    return Info;
  }
  std::optional<formula::Cube> refineCube(const formula::Cube &C) const {
    return formula::refineCubeByLocations(
        C, [this](formula::AtomId A) { return atomLocation(A); });
  }

  /// The literal-wp table every backward run over this instance shares
  /// (meta/WpTable.h). A memo of the const wpAtom, hence reachable from a
  /// const analysis.
  meta::WpTable &wpTable() const { return Wp; }

  //===--- parameter codec --------------------------------------------------===
  uint32_t numParamBits() const { return P.numAllocs(); }
  std::pair<uint32_t, bool> decodeParamAtom(formula::AtomId A) const;
  Param paramFromBits(const std::vector<bool> &Bits) const;
  uint32_t paramCost(const Param &Prm) const {
    return static_cast<uint32_t>(Prm.LSites.count());
  }
  std::string paramToString(const Param &Prm) const;

  //===--- atom constructors (public for tests and examples) ----------------===
  /// An atom is (index << 4) | (value << 2) | kind.
  enum AtomKind : uint32_t { KSite = 0, KVar = 1, KField = 2 };
  /// Atom h.o: the abstraction maps site h to o (o in {L, E}).
  static formula::AtomId atomSite(ir::AllocId H, AbsVal O) {
    return (H.index() << 4) | (static_cast<uint32_t>(O) << 2) | KSite;
  }
  /// Atom v.o: the state binds variable v to o.
  static formula::AtomId atomVar(ir::VarId V, AbsVal O) {
    return (V.index() << 4) | (static_cast<uint32_t>(O) << 2) | KVar;
  }
  /// Atom f.o: the state binds field f to o.
  static formula::AtomId atomField(ir::FieldId F, AbsVal O) {
    return (F.index() << 4) | (static_cast<uint32_t>(O) << 2) | KField;
  }

  /// Location index of a variable / field within an EscState.
  uint32_t locOfVar(ir::VarId V) const { return V.index(); }
  uint32_t locOfField(ir::FieldId F) const {
    return P.numVars() + F.index();
  }
  /// Locations per state: every variable, then every field.
  uint32_t numLocs() const { return P.numVars() + P.numFields(); }

private:
  //===--- single-source-of-truth case lists --------------------------------===
  //
  // Each command's semantics is one meta::GuardedTransfer (the §8 recipe):
  // the forward transfer applies the enabled case, the backward transfer
  // is synthesized from per-effect weakest preconditions.

  /// Where an assigned value comes from.
  struct ValueSrc {
    enum Kind : uint8_t { Const, OfLoc, OfSite } K = Const;
    AbsVal C = AbsVal::N;  ///< Const
    uint32_t Loc = 0;      ///< OfLoc: flat location index
    uint32_t Site = 0;     ///< OfSite: allocation site index (reads p)

    static ValueSrc constant(AbsVal V) { return {Const, V}; }
    static ValueSrc ofLoc(uint32_t Loc) { return {OfLoc, AbsVal::N, Loc}; }
    static ValueSrc ofSite(uint32_t H) { return {OfSite, AbsVal::N, 0, H}; }
  };

  /// The effect of one case: esc(d), a single assignment, or identity.
  struct Effect {
    bool IsEsc = false;     ///< apply esc(d)
    bool HasAssign = false; ///< otherwise identity (unless IsEsc)
    uint32_t AssignLoc = 0;
    ValueSrc Src;
  };

  using Transfer = meta::GuardedTransfer<Effect>;

  /// Builds the case list of \p Cmd (Figure 5, one entry per semantic
  /// case).
  Transfer cases(const ir::Command &Cmd) const;

  /// Calls \p Fn on \p Cmd's case list: the compiled one, or a freshly
  /// built one for a command outside the pool.
  template <typename FnT>
  auto withCases(const ir::Command &Cmd, FnT Fn) const {
    if (const Transfer *T = Compiled.find(Cmd))
      return Fn(*T);
    return Fn(cases(Cmd));
  }

  /// Both bits of slot I are set when bit I of \p Bits is, for the low
  /// 32 bits of \p Bits.
  static uint64_t pairMask(uint64_t Bits) {
    // Spread bit I to bit 2I by halving the gap at each step, then copy
    // each spread bit into its pair's high bit.
    uint64_t X = Bits & 0xffffffffULL;
    X = (X | X << 16) & 0x0000ffff0000ffffULL;
    X = (X | X << 8) & 0x00ff00ff00ff00ffULL;
    X = (X | X << 4) & 0x0f0f0f0f0f0f0f0fULL;
    X = (X | X << 2) & 0x3333333333333333ULL;
    X = (X | X << 1) & 0x5555555555555555ULL;
    return X | X << 1;
  }

  /// esc(d): a variable slot becomes E unless it is N, and every field
  /// slot becomes N.
  EscState esc(const EscState &D) const;

  /// wp of atom (Loc = O) under a single effect.
  formula::Formula wpUnderEffect(const Effect &E, uint32_t Loc,
                                 AbsVal O) const;

  /// Formula for "location Loc currently holds O".
  formula::Formula locIs(uint32_t Loc, AbsVal O) const;

  AbsVal valueOf(const ValueSrc &Src, const State &D, const Param &Prm) const;

  const ir::Program &P;
  /// cases() of every pool command (Invoke: empty).
  meta::CaseTable<Effect> Compiled;
  mutable meta::WpTable Wp;
};

} // namespace escape
} // namespace optabs

#endif // OPTABS_ESCAPE_ESCAPE_H
