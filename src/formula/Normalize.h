//===- Normalize.h - Semantic DNF normalization ----------------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic normalization of DNF formulas using client knowledge about the
/// atoms. The paper's hand-written backward transfer functions (Figures 10
/// and 11) are compact because they bake in facts like "a variable holds
/// exactly one of N/L/E"; a mechanical weakest-precondition construction
/// instead yields propositionally fragmented cubes such as
///
///   (v.N /\ u.E) \/ (v.E /\ u.E) \/ (v.L /\ u.E)      ==  u.E
///
/// that purely syntactic simplification cannot re-merge. This header
/// provides the semantic rules that recover the compact forms (§8 of the
/// paper calls for exactly such a "generic semantics-preserving
/// simplification process"):
///
///  * exclusivity refinement - inside a cube, two distinct positive values
///    of one location are contradictory; a positive value makes negative
///    literals of the same location redundant; for exhaustive locations,
///    negatives covering all but one value are replaced by the remaining
///    positive;
///  * complementary merge - cubes X u {l} and X u {!l} merge to X;
///  * value-complete merge - for an exhaustive location, cubes X u {a_i}
///    for every value a_i of the location merge to X;
///  * subsumption, re-run after each merge round.
///
/// All rules are semantics-preserving (they neither grow nor shrink the
/// meaning), so Theorem 3's invariants are unaffected.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_FORMULA_NORMALIZE_H
#define OPTABS_FORMULA_NORMALIZE_H

#include "formula/Dnf.h"

#include <algorithm>
#include <initializer_list>

namespace optabs {
namespace formula {

/// Client-declared semantics of an atom that belongs to a multi-valued
/// location (e.g. "variable u holds N, L or E" makes u.N/u.L/u.E one
/// location with three values).
///
/// The value list lives inline (at most MaxValues atoms), so a LocationInfo
/// is a plain 24-byte value: clients build one per query and normalization
/// asks for the same atoms over and over, without touching the heap.
struct LocationInfo {
  static constexpr uint32_t MaxValues = 4;

  /// A fixed-capacity list of value atoms.
  class ValueList {
  public:
    ValueList() = default;
    ValueList(std::initializer_list<AtomId> Vs) {
      for (AtomId V : Vs)
        push_back(V);
    }

    void push_back(AtomId V) {
      assert(Count < MaxValues && "location has too many values");
      Data[Count++] = V;
    }
    const AtomId *begin() const { return Data; }
    const AtomId *end() const { return Data + Count; }
    size_t size() const { return Count; }
    bool empty() const { return Count == 0; }
    AtomId operator[](size_t I) const { return Data[I]; }

  private:
    AtomId Data[MaxValues] = {};
    uint32_t Count = 0;
  };

  /// All value atoms of the location, including the queried one.
  ValueList Values;
  /// True when exactly one value holds in every state (vs. at most one).
  bool Exhaustive = true;
};

/// Returns the location of an atom, or nullopt for independent atoms.
using LocationFn = std::function<std::optional<LocationInfo>(AtomId)>;

/// Client-specific cube refinement: returns the semantically simplified
/// cube, or nullopt when the cube is unsatisfiable. Must preserve meaning.
using CubeRefiner = std::function<std::optional<Cube>(const Cube &)>;

/// Generic exclusivity-based refinement driven by location info alone;
/// suitable as a client's CubeRefiner when locations fully describe the
/// atom semantics. \p Loc is any callable with LocationFn's signature; it
/// runs once per literal, so a client passing its inline location lambda
/// here (rather than through a LocationFn) pays no indirect call for it.
template <typename LocT>
std::optional<Cube> refineCubeByLocations(const Cube &C, const LocT &Loc) {
  // Tag every location literal with its location's key (the smallest value
  // atom, stable per location) and sort the flat (key, literal) buffer, so
  // each location's literals form one run in ascending literal order.
  // Independent literals go straight to the output. Both buffers are
  // reused across calls: refinement runs on every cube of every backward
  // step, and warm calls touch no heap.
  struct Keyed {
    AtomId Key;
    Lit L;
  };
  thread_local std::vector<Keyed> Grouped;
  thread_local std::vector<Lit> Result;
  Grouped.clear();
  Result.clear();
  for (Lit L : C.literals()) {
    std::optional<LocationInfo> Info = Loc(L.atom());
    if (!Info) {
      Result.push_back(L);
      continue;
    }
    assert(!Info->Values.empty());
    Grouped.push_back(
        {*std::min_element(Info->Values.begin(), Info->Values.end()), L});
  }
  std::sort(Grouped.begin(), Grouped.end(),
            [](const Keyed &A, const Keyed &B) {
              return A.Key != B.Key ? A.Key < B.Key : A.L < B.L;
            });

  for (size_t Begin = 0, End; Begin < Grouped.size(); Begin = End) {
    End = Begin;
    const Lit *Positive = nullptr;
    while (End < Grouped.size() && Grouped[End].Key == Grouped[Begin].Key) {
      if (!Grouped[End].L.isNeg()) {
        if (Positive)
          return std::nullopt; // two distinct values of one location
        Positive = &Grouped[End].L;
      }
      ++End;
    }
    if (Positive) {
      // Any negative literal of the same location is implied (different
      // value) or contradictory (same value, impossible here since Cube
      // construction rejects complementary pairs).
      Result.push_back(*Positive);
      continue;
    }
    // Negatives only, in ascending atom order. The group's first literal
    // speaks for the location.
    auto Negated = [&](AtomId V) {
      for (size_t I = Begin; I < End; ++I)
        if (Grouped[I].L.atom() == V)
          return true;
      return false;
    };
    if (std::optional<LocationInfo> Info = Loc(Grouped[Begin].L.atom());
        Info->Exhaustive) {
      size_t Remaining = 0;
      AtomId Last = 0;
      for (AtomId V : Info->Values)
        if (!Negated(V)) {
          ++Remaining;
          Last = V;
        }
      if (Remaining == 0)
        return std::nullopt; // no value left for this location
      if (Remaining == 1) {
        Result.push_back(Lit::pos(Last));
        continue;
      }
    }
    for (size_t I = Begin; I < End; ++I)
      Result.push_back(Grouped[I].L);
  }
  return Cube::make(Result.data(), Result.size());
}

/// The same refinement through a LocationFn, for callers that hold one.
std::optional<Cube> refineCubeByLocations(const Cube &C,
                                          const LocationFn &Loc);

/// Applies refinement and the merge rules to a fixpoint. Either argument
/// may be null (no client knowledge of that kind); the complementary merge
/// and subsumption always run.
void semanticNormalize(Dnf &D, const CubeRefiner &Refine,
                       const LocationFn &Loc);

} // namespace formula
} // namespace optabs

#endif // OPTABS_FORMULA_NORMALIZE_H
