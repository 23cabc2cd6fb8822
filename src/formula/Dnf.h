//===- Dnf.h - Literals, cubes and DNF formulas ----------------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DNF machinery of §4.1 and Figure 8. Meta-analysis states are boolean
/// formulas over client-defined primitive atoms; the generic
/// under-approximation operator keeps them in disjunctive normal form:
///
///   toDNF(f)      converts to DNF and sorts disjuncts by size,
///   simplify(f)   drops disjuncts subsumed by earlier (shorter) ones,
///   dropk(p,d,f)  keeps the first k-1 disjuncts plus the shortest disjunct
///                 containing the current (p, d) - a beam search.
///
/// Atoms are opaque 32-bit ids whose meaning (the gamma function of the
/// paper) is supplied by the client analysis through evaluation callbacks.
///
/// Representation invariant: every cube keeps its literals sorted (by raw
/// literal value) and duplicate-free, and carries a 64-bit atom-presence
/// signature (bit `atom mod 64`). The sort order lets conjunction run as a
/// linear two-way merge and subsumption as std::includes; the signature
/// lets both short-circuit on single word ops (disjoint-atom conjunctions
/// cannot clash, and a cube whose signature covers atoms the other lacks
/// cannot be a subset).
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_FORMULA_DNF_H
#define OPTABS_FORMULA_DNF_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace optabs {
namespace support {
class BudgetGate;
class InvariantSink;
} // namespace support
namespace formula {

/// An opaque primitive-formula identifier. Clients pack their own structure
/// (e.g. "var x in must-alias set", "p maps h to L") into the 32 bits.
using AtomId = uint32_t;

/// Evaluates the truth of an atom in a concrete pair (p, d). Used by dropk
/// and by projection of final formulas onto the parameter component.
using AtomEval = std::function<bool(AtomId)>;

/// A literal: an atom or its negation.
class Lit {
public:
  Lit() : Bits(UINT32_MAX) {}
  static Lit pos(AtomId A) { return Lit(A << 1); }
  static Lit neg(AtomId A) { return Lit((A << 1) | 1); }

  AtomId atom() const { return Bits >> 1; }
  bool isNeg() const { return Bits & 1; }
  Lit negate() const { return Lit(Bits ^ 1); }

  bool eval(const AtomEval &Eval) const { return Eval(atom()) != isNeg(); }

  friend bool operator==(Lit A, Lit B) { return A.Bits == B.Bits; }
  friend bool operator!=(Lit A, Lit B) { return A.Bits != B.Bits; }
  friend bool operator<(Lit A, Lit B) { return A.Bits < B.Bits; }

  uint32_t raw() const { return Bits; }

private:
  explicit Lit(uint32_t Bits) : Bits(Bits) {}
  uint32_t Bits;
};

/// A small-size-optimized literal array: up to InlineCap literals live
/// inside the object, larger cubes spill to the heap. Cubes in this
/// codebase are overwhelmingly short (a handful of atoms constrain one
/// trace step), so the inline path removes the per-cube heap allocation
/// std::vector paid on every conjoin/copy in Dnf::product. Exposes the
/// read-only slice of the std::vector interface that Cube's clients use.
class LitVec {
public:
  static constexpr uint32_t InlineCap = 6;

  LitVec() = default;
  LitVec(const LitVec &O) { assignRaw(O.data(), O.Count); }
  LitVec(LitVec &&O) noexcept {
    if (O.isInline()) {
      std::memcpy(InlineBuf, O.InlineBuf, O.Count * sizeof(Lit));
    } else {
      Heap = O.Heap;
      Cap = O.Cap;
      O.Heap = nullptr;
      O.Cap = InlineCap;
    }
    Count = O.Count;
    O.Count = 0;
  }
  LitVec &operator=(const LitVec &O) {
    if (this != &O)
      assignRaw(O.data(), O.Count);
    return *this;
  }
  LitVec &operator=(LitVec &&O) noexcept {
    if (this == &O)
      return *this;
    if (!isInline())
      delete[] Heap;
    if (O.isInline()) {
      Cap = InlineCap;
      std::memcpy(InlineBuf, O.InlineBuf, O.Count * sizeof(Lit));
    } else {
      Heap = O.Heap;
      Cap = O.Cap;
      O.Heap = nullptr;
      O.Cap = InlineCap;
    }
    Count = O.Count;
    O.Count = 0;
    return *this;
  }
  ~LitVec() {
    if (!isInline())
      delete[] Heap;
  }

  const Lit *begin() const { return data(); }
  const Lit *end() const { return data() + Count; }
  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  Lit operator[](size_t I) const { return data()[I]; }
  Lit back() const { return data()[Count - 1]; }

  void push_back(Lit L) {
    if (Count == Cap)
      grow(Cap * 2);
    mutableData()[Count++] = L;
  }

  /// Replaces the contents with \p N literals from \p Src.
  void assign(const Lit *Src, size_t N) { assignRaw(Src, N); }

  friend bool operator==(const LitVec &A, const LitVec &B) {
    return A.Count == B.Count &&
           std::memcmp(A.data(), B.data(), A.Count * sizeof(Lit)) == 0;
  }
  friend bool operator!=(const LitVec &A, const LitVec &B) { return !(A == B); }
  /// Lexicographic, matching std::vector<Lit> ordering.
  friend bool operator<(const LitVec &A, const LitVec &B) {
    const Lit *PA = A.begin(), *PB = B.begin();
    const Lit *EA = A.end(), *EB = B.end();
    for (; PA != EA && PB != EB; ++PA, ++PB) {
      if (*PA < *PB)
        return true;
      if (*PB < *PA)
        return false;
    }
    return PA == EA && PB != EB;
  }
  friend bool operator==(const LitVec &A, const std::vector<Lit> &B) {
    return A.Count == B.size() &&
           std::equal(A.begin(), A.end(), B.begin(), B.end());
  }
  friend bool operator==(const std::vector<Lit> &A, const LitVec &B) {
    return B == A;
  }

private:
  bool isInline() const { return Cap == InlineCap; }
  const Lit *data() const {
    return isInline() ? reinterpret_cast<const Lit *>(InlineBuf) : Heap;
  }
  Lit *mutableData() {
    return isInline() ? reinterpret_cast<Lit *>(InlineBuf) : Heap;
  }
  void grow(uint32_t NewCap) {
    Lit *Fresh = new Lit[NewCap];
    std::memcpy(Fresh, data(), Count * sizeof(Lit));
    if (!isInline())
      delete[] Heap;
    Heap = Fresh;
    Cap = NewCap;
  }
  void assignRaw(const Lit *Src, size_t N) {
    if (N > Cap)
      grow(static_cast<uint32_t>(N));
    if (N > 0) // an empty source may be null, which memcpy must not get
      std::memcpy(mutableData(), Src, N * sizeof(Lit));
    Count = static_cast<uint32_t>(N);
  }

  union {
    alignas(Lit) unsigned char InlineBuf[InlineCap * sizeof(Lit)];
    Lit *Heap;
  };
  uint32_t Count = 0;
  uint32_t Cap = InlineCap;
};

/// A conjunction of literals, stored sorted and duplicate-free. The empty
/// cube is `true`. Contradictory literal sets (a and !a) are rejected at
/// construction time (make returns nullopt), so every Cube is satisfiable
/// at the propositional level.
class Cube {
public:
  Cube() = default;

  /// Normalizes \p Lits; returns nullopt if they contain a and !a.
  static std::optional<Cube> make(std::vector<Lit> Lits) {
    return make(Lits.data(), Lits.size());
  }

  /// As above, but normalizes the caller-owned buffer [Lits, Lits + N) in
  /// place (it is left sorted, in unspecified length) - for hot callers
  /// that reuse one scratch buffer. Allocates nothing when the normalized
  /// cube fits LitVec's inline capacity.
  static std::optional<Cube> make(Lit *Lits, size_t N);

  /// Conjunction of two cubes; nullopt if contradictory. Both inputs are
  /// sorted by construction, so this is a linear merge - no re-sort.
  static std::optional<Cube> conjoin(const Cube &A, const Cube &B);

  size_t size() const { return Lits.size(); }
  bool isTrue() const { return Lits.empty(); }
  const LitVec &literals() const { return Lits; }

  /// 64-bit atom-presence filter: bit (atom mod 64) is set for every atom
  /// occurring in the cube (positively or negatively).
  uint64_t signature() const { return Sig; }

  /// Entailment this => Other: every literal of Other occurs in this.
  /// (The paper's fast, incomplete syntactic subsumption check.)
  bool implies(const Cube &Other) const;

  /// True when this and \p Other hold a literal and its negation, i.e.
  /// when conjoin(*this, Other) is nullopt - without building the merge.
  bool contradicts(const Cube &Other) const;

  bool eval(const AtomEval &Eval) const {
    for (Lit L : Lits)
      if (!L.eval(Eval))
        return false;
    return true;
  }

  friend bool operator==(const Cube &A, const Cube &B) {
    return A.Sig == B.Sig && A.Lits == B.Lits;
  }

private:
  static uint64_t sigBit(AtomId A) { return uint64_t(1) << (A & 63); }

  LitVec Lits;
  uint64_t Sig = 0;
};

/// A disjunction of cubes. No cubes = `false`; a lone empty cube = `true`.
class Dnf {
public:
  Dnf() = default;

  static Dnf constFalse() { return Dnf(); }
  static Dnf constTrue() {
    Dnf D;
    D.Cubes.push_back(Cube());
    return D;
  }
  static Dnf singleLit(Lit L) {
    Dnf D;
    D.Cubes.push_back(*Cube::make({L}));
    return D;
  }
  static Dnf fromCubes(std::vector<Cube> Cubes) {
    Dnf D;
    D.Cubes = std::move(Cubes);
    return D;
  }

  bool isFalse() const { return Cubes.empty(); }
  bool isTrue() const { return Cubes.size() == 1 && Cubes[0].isTrue(); }
  size_t size() const { return Cubes.size(); }
  const std::vector<Cube> &cubes() const { return Cubes; }

  /// Moves the cube list out, leaving this formula false. The inverse of
  /// fromCubes; lets normalization passes shuttle cubes in and out of Dnf
  /// form without copying them.
  std::vector<Cube> takeCubes() { return std::move(Cubes); }

  bool eval(const AtomEval &Eval) const {
    for (const Cube &C : Cubes)
      if (C.eval(Eval))
        return true;
    return false;
  }

  /// Sorts disjuncts by size (shortest first), ties broken by literal order
  /// for determinism, and drops duplicates. This is the ordering assumed by
  /// simplify and dropk.
  void sortBySize();

  /// True when the cubes are in sortBySize() order without duplicates.
  bool isSortedBySize() const;

  /// Figure 8 simplify: removes disjunct i when some earlier disjunct j < i
  /// implies it. Assumes sortBySize() was applied; keeps the order and
  /// compacts in place.
  void simplify();

  /// Figure 8 dropk: under-approximates to at most K disjuncts. When one of
  /// the first K disjuncts is satisfied under \p Eval (which encodes the
  /// current pair (p, d)), the first K are kept; otherwise the first K-1
  /// plus the shortest satisfied disjunct beyond them. Requires the formula
  /// to be satisfied under Eval (Theorem 3's progress guarantee); a
  /// violation is reported to \p Sink (see support/Invariants.h) and the
  /// first K disjuncts are kept - a sound under-approximation, minus the
  /// progress guarantee the report flags.
  void dropK(unsigned K, const AtomEval &Eval,
             support::InvariantSink *Sink = nullptr);

  /// The full approx operator of §4.1: sortBySize + simplify, then dropK
  /// only when more than K disjuncts remain. K = 0 means "no bound".
  void approx(unsigned K, const AtomEval &Eval,
              support::InvariantSink *Sink = nullptr);

  /// Disjunction (concatenates cube lists; call approx/simplify after).
  void orWith(const Dnf &Other);

  /// Distributes (A AND B) into DNF, every cube of A times every cube of
  /// B, A-major, contradictions dropped. When \p Gate is set the
  /// cross-product size is charged against it before any term is built;
  /// an exhausted gate makes product return false (the empty Dnf) — a
  /// sound under-approximation the caller must detect via
  /// Gate->exhausted() and treat as "budget ran out", not as a
  /// proved-unreachable condition.
  static Dnf product(const Dnf &A, const Dnf &B,
                     support::BudgetGate *Gate = nullptr);

  /// The accounting half of product: consults the `dnf.product` fault
  /// site, then charges \p Units against \p Gate (when set). Returns false
  /// once the gate is exhausted. A caller that builds a product by other
  /// means (the backward step's frame-stripped chain) charges it here, so
  /// fault hits and step-budget trips fall where a literal product's
  /// would.
  static bool chargeProduct(uint64_t Units, support::InvariantSink *Sink,
                            support::BudgetGate *Gate);

  /// Structural equality of the cube lists (order-sensitive; two Dnfs that
  /// went through the same normalization pipeline compare equal iff they
  /// denote the same normalized formula).
  friend bool operator==(const Dnf &A, const Dnf &B) {
    return A.Cubes == B.Cubes;
  }
  friend bool operator!=(const Dnf &A, const Dnf &B) { return !(A == B); }

  std::string toString(
      const std::function<std::string(AtomId)> &AtomName) const;

private:
  std::vector<Cube> Cubes;
};

} // namespace formula
} // namespace optabs

#endif // OPTABS_FORMULA_DNF_H
