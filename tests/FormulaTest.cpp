//===- FormulaTest.cpp - Unit tests for the formula library ----------------===//

#include "formula/Dnf.h"
#include "formula/Formula.h"

#include "support/Prng.h"

#include "gtest/gtest.h"

#include <set>

namespace {

using optabs::formula::AtomEval;
using optabs::formula::AtomId;
using optabs::formula::Cube;
using optabs::formula::Dnf;
using optabs::formula::Formula;
using optabs::formula::Lit;

AtomEval evalFromSet(std::set<AtomId> TrueAtoms) {
  return [TrueAtoms = std::move(TrueAtoms)](AtomId A) {
    return TrueAtoms.count(A) > 0;
  };
}

TEST(Lit, NegationAndOrdering) {
  Lit A = Lit::pos(7);
  EXPECT_EQ(A.atom(), 7u);
  EXPECT_FALSE(A.isNeg());
  Lit NotA = A.negate();
  EXPECT_TRUE(NotA.isNeg());
  EXPECT_EQ(NotA.atom(), 7u);
  EXPECT_EQ(NotA.negate(), A);
  EXPECT_LT(A, NotA);
  EXPECT_LT(Lit::neg(3), Lit::pos(4));
}

TEST(Cube, MakeNormalizesAndRejectsContradictions) {
  auto C = Cube::make({Lit::pos(2), Lit::pos(1), Lit::pos(2)});
  ASSERT_TRUE(C.has_value());
  EXPECT_EQ(C->size(), 2u);
  EXPECT_EQ(C->literals()[0], Lit::pos(1));
  EXPECT_EQ(C->literals()[1], Lit::pos(2));

  auto Contradiction = Cube::make({Lit::pos(5), Lit::neg(5)});
  EXPECT_FALSE(Contradiction.has_value());
}

TEST(Cube, Implication) {
  Cube AB = *Cube::make({Lit::pos(1), Lit::pos(2)});
  Cube A = *Cube::make({Lit::pos(1)});
  EXPECT_TRUE(AB.implies(A));
  EXPECT_FALSE(A.implies(AB));
  EXPECT_TRUE(A.implies(*Cube::make({})));
  // Different polarity is a different literal.
  EXPECT_FALSE(AB.implies(*Cube::make({Lit::neg(1)})));
}

TEST(Cube, ConjoinMergesOrFails) {
  Cube A = *Cube::make({Lit::pos(1)});
  Cube B = *Cube::make({Lit::pos(2), Lit::neg(3)});
  auto AB = Cube::conjoin(A, B);
  ASSERT_TRUE(AB.has_value());
  EXPECT_EQ(AB->size(), 3u);
  EXPECT_FALSE(Cube::conjoin(A, *Cube::make({Lit::neg(1)})).has_value());
}

TEST(Dnf, Constants) {
  EXPECT_TRUE(Dnf::constFalse().isFalse());
  EXPECT_TRUE(Dnf::constTrue().isTrue());
  EXPECT_FALSE(Dnf::constTrue().eval(evalFromSet({})) == false);
  EXPECT_FALSE(Dnf::constFalse().eval(evalFromSet({1, 2, 3})));
}

TEST(Dnf, SimplifyDropsSubsumedDisjuncts) {
  // a \/ (a /\ b) \/ c  ==>  a \/ c
  Dnf D = Dnf::fromCubes({*Cube::make({Lit::pos(1), Lit::pos(2)}),
                          *Cube::make({Lit::pos(1)}),
                          *Cube::make({Lit::pos(3)})});
  D.sortBySize();
  D.simplify();
  EXPECT_EQ(D.size(), 2u);
  EXPECT_EQ(D.cubes()[0].size(), 1u);
  EXPECT_EQ(D.cubes()[1].size(), 1u);
}

TEST(Dnf, SortIsBySizeThenLiterals) {
  Dnf D = Dnf::fromCubes({*Cube::make({Lit::pos(9)}),
                          *Cube::make({Lit::pos(1), Lit::pos(2)}),
                          *Cube::make({Lit::pos(3)})});
  D.sortBySize();
  EXPECT_EQ(D.cubes()[0].literals()[0], Lit::pos(3));
  EXPECT_EQ(D.cubes()[1].literals()[0], Lit::pos(9));
  EXPECT_EQ(D.cubes()[2].size(), 2u);
}

TEST(Dnf, DropKKeepsSatisfiedDisjunct) {
  // Three disjuncts; only the largest is satisfied. dropK(1) must keep it.
  Dnf D = Dnf::fromCubes(
      {*Cube::make({Lit::pos(1)}), *Cube::make({Lit::pos(2)}),
       *Cube::make({Lit::pos(3), Lit::pos(4), Lit::pos(5)})});
  AtomEval Eval = evalFromSet({3, 4, 5});
  D.sortBySize();
  D.dropK(1, Eval);
  ASSERT_EQ(D.size(), 1u);
  EXPECT_EQ(D.cubes()[0].size(), 3u);
  EXPECT_TRUE(D.eval(Eval));
}

TEST(Dnf, DropKKeepsShortPrefixPlusSatisfied) {
  Dnf D = Dnf::fromCubes(
      {*Cube::make({Lit::pos(1)}), *Cube::make({Lit::pos(2)}),
       *Cube::make({Lit::pos(6), Lit::pos(7)}),
       *Cube::make({Lit::pos(3), Lit::pos(4), Lit::pos(5)})});
  AtomEval Eval = evalFromSet({3, 4, 5});
  D.sortBySize();
  D.dropK(3, Eval);
  ASSERT_EQ(D.size(), 3u);
  // First two shortest kept, plus the satisfied one.
  EXPECT_TRUE(D.eval(Eval));
}

TEST(Dnf, ApproxUnderapproximates) {
  // Every model of approx(f) must be a model of f (condition 1 of approx).
  Dnf D = Dnf::fromCubes(
      {*Cube::make({Lit::pos(1), Lit::neg(2)}), *Cube::make({Lit::pos(2)}),
       *Cube::make({Lit::pos(3)}), *Cube::make({Lit::pos(4)})});
  Dnf Original = D;
  AtomEval Eval = evalFromSet({3});
  D.approx(2, Eval);
  EXPECT_LE(D.size(), 2u);
  // Exhaustively check over the 4 atoms: gamma(approx) subset gamma(f).
  for (unsigned Mask = 0; Mask < 32; ++Mask) {
    AtomEval E = [Mask](AtomId A) { return A < 5 && (Mask >> A) & 1; };
    if (D.eval(E)) {
      EXPECT_TRUE(Original.eval(E));
    }
  }
  EXPECT_TRUE(D.eval(Eval)); // condition 2: keeps the current (p, d)
}

TEST(Dnf, ProductDistributes) {
  // (a \/ b) /\ (c \/ !a) = ac \/ (a/\!a=false) \/ bc \/ b!a
  Dnf AB =
      Dnf::fromCubes({*Cube::make({Lit::pos(1)}), *Cube::make({Lit::pos(2)})});
  Dnf CNotA =
      Dnf::fromCubes({*Cube::make({Lit::pos(3)}), *Cube::make({Lit::neg(1)})});
  Dnf Prod = Dnf::product(AB, CNotA);
  EXPECT_EQ(Prod.size(), 3u);
  for (unsigned Mask = 0; Mask < 16; ++Mask) {
    AtomEval E = [Mask](AtomId A) { return A < 4 && (Mask >> A) & 1; };
    EXPECT_EQ(Prod.eval(E), AB.eval(E) && CNotA.eval(E));
  }
}

TEST(Formula, ConstantFolding) {
  Formula T = Formula::constant(true);
  Formula F = Formula::constant(false);
  EXPECT_TRUE(Formula::conj({T, T}).isTrue());
  EXPECT_TRUE(Formula::conj({T, F}).isFalse());
  EXPECT_TRUE(Formula::disj({F, F}).isFalse());
  EXPECT_TRUE(Formula::disj({F, T}).isTrue());
  EXPECT_TRUE(Formula::negate(T).isFalse());
  EXPECT_TRUE(Formula::conj({}).isTrue());
  EXPECT_TRUE(Formula::disj({}).isFalse());
}

TEST(Formula, NegationPushesToLiterals) {
  Formula F = Formula::negate(
      Formula::conj({Formula::atom(1), Formula::negAtom(2)}));
  // !(a /\ !b) = !a \/ b
  for (unsigned Mask = 0; Mask < 8; ++Mask) {
    AtomEval E = [Mask](AtomId A) { return (Mask >> A) & 1; };
    bool Expected = !(E(1) && !E(2));
    EXPECT_EQ(F.eval(E), Expected);
  }
}

TEST(Formula, IteSemantics) {
  Formula F = Formula::ite(Formula::atom(1), Formula::atom(2),
                           Formula::atom(3));
  for (unsigned Mask = 0; Mask < 16; ++Mask) {
    AtomEval E = [Mask](AtomId A) { return (Mask >> A) & 1; };
    EXPECT_EQ(F.eval(E), E(1) ? E(2) : E(3));
  }
}

TEST(Formula, ToDnfAgreesWithEval) {
  // Random-ish structured formula; exhaustive agreement over 5 atoms.
  Formula F = Formula::disj(
      {Formula::conj({Formula::atom(0), Formula::negAtom(1)}),
       Formula::conj({Formula::atom(2),
                      Formula::disj({Formula::atom(3), Formula::negAtom(4)}),
                      Formula::negAtom(0)})});
  Dnf D = F.toDnf();
  for (unsigned Mask = 0; Mask < 32; ++Mask) {
    AtomEval E = [Mask](AtomId A) { return (Mask >> A) & 1; };
    EXPECT_EQ(D.eval(E), F.eval(E)) << "mask=" << Mask;
  }
}

/// toDnf as it was first written: conjunctions multiply all children out
/// and drop subsumed cubes once, at the end.
Dnf referenceToDnf(const Formula &F) {
  switch (F.kind()) {
  case Formula::Kind::True:
    return Dnf::constTrue();
  case Formula::Kind::False:
    return Dnf::constFalse();
  case Formula::Kind::Literal:
    return Dnf::singleLit(F.literal());
  case Formula::Kind::Or: {
    Dnf Result;
    for (const Formula &Kid : F.children())
      Result.orWith(referenceToDnf(Kid));
    Result.sortBySize();
    Result.simplify();
    return Result;
  }
  case Formula::Kind::And: {
    Dnf Result = Dnf::constTrue();
    for (const Formula &Kid : F.children())
      Result = Dnf::product(Result, referenceToDnf(Kid));
    Result.sortBySize();
    Result.simplify();
    return Result;
  }
  }
  return Dnf::constFalse();
}

Formula randomFormula(optabs::Prng &Rng, unsigned Depth) {
  if (Depth == 0 || Rng.chance(1, 4)) {
    AtomId A = static_cast<AtomId>(Rng.nextBelow(6));
    return Rng.chance(1, 2) ? Formula::atom(A) : Formula::negAtom(A);
  }
  std::vector<Formula> Kids;
  for (unsigned I = 0, N = 2 + Rng.nextBelow(2); I < N; ++I)
    Kids.push_back(randomFormula(Rng, Depth - 1));
  Formula F = Rng.chance(1, 2) ? Formula::conj(std::move(Kids))
                               : Formula::disj(std::move(Kids));
  // Negated case splits are what multiply out in the backward wp.
  return Rng.chance(1, 3) ? Formula::negate(F) : F;
}

TEST(Formula, ToDnfMatchesReferenceBytewise) {
  // Pruning subsumed cubes between the factors of a conjunction must not
  // change toDnf's output: same cubes, same order.
  optabs::Prng Rng(0xD7F);
  for (int Round = 0; Round < 3000; ++Round) {
    Formula F = randomFormula(Rng, 3);
    Dnf Want = referenceToDnf(F);
    Dnf Got = F.toDnf();
    ASSERT_EQ(Want.size(), Got.size()) << "round " << Round;
    for (size_t I = 0; I < Want.size(); ++I) {
      ASSERT_EQ(Want.cubes()[I].signature(), Got.cubes()[I].signature())
          << "round " << Round;
      ASSERT_TRUE(Want.cubes()[I].literals() == Got.cubes()[I].literals())
          << "round " << Round;
    }
  }
}

TEST(Formula, ToStringIsReadable) {
  Formula F = Formula::conj({Formula::atom(1), Formula::negAtom(2)});
  auto Name = [](AtomId A) { return "a" + std::to_string(A); };
  EXPECT_EQ(F.toString(Name), "(a1 /\\ !a2)");
}

TEST(Dnf, ToStringIsReadable) {
  Dnf D = Dnf::fromCubes(
      {*Cube::make({Lit::pos(1)}), *Cube::make({Lit::pos(2), Lit::neg(3)})});
  auto Name = [](AtomId A) { return "a" + std::to_string(A); };
  EXPECT_EQ(D.toString(Name), "a1 \\/ (a2 /\\ !a3)");
  EXPECT_EQ(Dnf::constTrue().toString(Name), "true");
  EXPECT_EQ(Dnf::constFalse().toString(Name), "false");
}

} // namespace
