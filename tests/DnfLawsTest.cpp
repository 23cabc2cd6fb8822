//===- DnfLawsTest.cpp - Algebraic laws of the DNF operators ------------------===//
//
// Property sweeps over randomly generated formulas validating the laws the
// meta-analysis relies on: simplify preserves meaning and is idempotent;
// dropk under-approximates while keeping the current point (the two
// conditions §4 requires of approx); products are the exact conjunction;
// and sortBySize, which sorts keys, orders and deduplicates exactly as a
// sort of the cubes themselves does. So are the two laws that let the
// backward step carry a running product as its minimal cubes: the minimal
// cubes of A x W are those of minimal(A) x W, and the soft-cap prune reads
// only its input's minimal cubes. The prune's other laws are checked in
// BackwardTest.
//
//===----------------------------------------------------------------------===//

#include "formula/Dnf.h"

#include "meta/Backward.h"
#include "support/Invariants.h"
#include "support/Prng.h"

#include "gtest/gtest.h"

namespace {

using namespace optabs::formula;
using optabs::Prng;

constexpr unsigned NumAtoms = 6;

Dnf randomDnf(Prng &Rng, unsigned MaxCubes) {
  std::vector<Cube> Cubes;
  unsigned N = 1 + Rng.nextBelow(MaxCubes);
  for (unsigned I = 0; I < N; ++I) {
    std::vector<Lit> Lits;
    unsigned Len = Rng.nextBelow(4);
    for (unsigned J = 0; J < Len; ++J) {
      AtomId A = static_cast<AtomId>(Rng.nextBelow(NumAtoms));
      Lits.push_back(Rng.chance(1, 3) ? Lit::neg(A) : Lit::pos(A));
    }
    if (auto C = Cube::make(std::move(Lits)))
      Cubes.push_back(std::move(*C));
  }
  return Dnf::fromCubes(std::move(Cubes));
}

AtomEval evalOfMask(unsigned Mask) {
  return [Mask](AtomId A) { return A < NumAtoms && ((Mask >> A) & 1); };
}

/// Parameterized over the PRNG seed: each instantiation sweeps a distinct
/// family of random formulas.
class DnfLaws : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DnfLaws, SimplifyPreservesMeaningAndIsIdempotent) {
  Prng Rng(GetParam());
  for (int Round = 0; Round < 100; ++Round) {
    Dnf D = randomDnf(Rng, 10);
    Dnf S = D;
    S.sortBySize();
    S.simplify();
    for (unsigned Mask = 0; Mask < (1u << NumAtoms); ++Mask)
      ASSERT_EQ(D.eval(evalOfMask(Mask)), S.eval(evalOfMask(Mask)));
    Dnf S2 = S;
    S2.sortBySize();
    S2.simplify();
    EXPECT_EQ(S2.size(), S.size());
  }
}

TEST_P(DnfLaws, DropKIsAnUnderApproximationKeepingTheWitness) {
  Prng Rng(GetParam() ^ 0xD20B);
  for (int Round = 0; Round < 100; ++Round) {
    Dnf D = randomDnf(Rng, 10);
    // Pick a witness mask that satisfies D (skip unsatisfiable rounds).
    std::optional<unsigned> Witness;
    for (unsigned Mask = 0; Mask < (1u << NumAtoms); ++Mask)
      if (D.eval(evalOfMask(Mask))) {
        Witness = Mask;
        break;
      }
    if (!Witness)
      continue;
    for (unsigned K : {1u, 2u, 3u}) {
      Dnf A = D;
      A.approx(K, evalOfMask(*Witness));
      EXPECT_LE(A.size(), K);
      // Condition 1: gamma(approx(f)) subseteq gamma(f).
      for (unsigned Mask = 0; Mask < (1u << NumAtoms); ++Mask) {
        if (A.eval(evalOfMask(Mask))) {
          ASSERT_TRUE(D.eval(evalOfMask(Mask)));
        }
      }
      // Condition 2: the witness is kept.
      EXPECT_TRUE(A.eval(evalOfMask(*Witness)));
    }
  }
}

TEST_P(DnfLaws, UncappedProductIsExactConjunction) {
  Prng Rng(GetParam() ^ 0xF00D);
  for (int Round = 0; Round < 100; ++Round) {
    Dnf A = randomDnf(Rng, 6);
    Dnf B = randomDnf(Rng, 6);
    Dnf P = Dnf::product(A, B);
    for (unsigned Mask = 0; Mask < (1u << NumAtoms); ++Mask) {
      AtomEval E = evalOfMask(Mask);
      ASSERT_EQ(P.eval(E), A.eval(E) && B.eval(E)) << "round " << Round;
    }
  }
}

TEST_P(DnfLaws, SortBySizeDeduplicates) {
  Prng Rng(GetParam() ^ 0x50F7);
  for (int Round = 0; Round < 50; ++Round) {
    Dnf D = randomDnf(Rng, 6);
    Dnf Doubled = D;
    Doubled.orWith(D);
    Doubled.sortBySize();
    Dnf Sorted = D;
    Sorted.sortBySize();
    EXPECT_EQ(Doubled.size(), Sorted.size());
  }
}

/// randomDnf with copies of some of its cubes mixed in.
Dnf randomDnfWithDuplicates(Prng &Rng, unsigned MaxCubes) {
  std::vector<Cube> Cubes = randomDnf(Rng, MaxCubes).takeCubes();
  for (unsigned I = 0, N = Rng.nextBelow(4); I < N && !Cubes.empty(); ++I)
    Cubes.insert(Cubes.begin() + Rng.nextBelow(Cubes.size() + 1),
                 Cubes[Rng.nextBelow(Cubes.size())]);
  return Dnf::fromCubes(std::move(Cubes));
}

/// sortBySize + simplify: the minimal cubes, shortest first.
Dnf minimal(Dnf D) {
  D.sortBySize();
  D.simplify();
  return D;
}

TEST_P(DnfLaws, MinimalCubesOfAProductAreThoseOfMinimalTimesW) {
  // Every cube of A x W contains one of minimal(A) x W (a subset of a
  // consistent cube is consistent), so the two share their minimal
  // cubes; over six atoms, products drop contradictory pairs often.
  Prng Rng(GetParam() ^ 0x313A);
  size_t Dropped = 0, Folded = 0;
  for (int Round = 0; Round < 200; ++Round) {
    Dnf A = randomDnfWithDuplicates(Rng, 8);
    Dnf W = randomDnfWithDuplicates(Rng, 6);
    Dnf Full = Dnf::product(A, W);
    Dropped += Full.size() < A.size() * W.size();
    Folded += minimal(A).size() < A.size();
    ASSERT_TRUE(minimal(Full) == minimal(Dnf::product(minimal(A), W)))
        << "round " << Round;
  }
  EXPECT_GT(Dropped, 0u);
  EXPECT_GT(Folded, 0u);
}

TEST_P(DnfLaws, SoftCapPruneReadsOnlyMinimalCubes) {
  // pruneToSoftCap sorts, dedupes and subsumes before it cuts, so a
  // product and its minimal cubes prune alike: at small caps, under an
  // evaluator that some cube satisfies and under one that none does.
  Prng Rng(GetParam() ^ 0x9A0E);
  const Cube True;
  size_t Satisfied = 0, Unsatisfied = 0, Cut = 0;
  for (int Round = 0; Round < 200; ++Round) {
    Dnf X = Dnf::product(randomDnfWithDuplicates(Rng, 8),
                         randomDnfWithDuplicates(Rng, 6));
    std::optional<unsigned> Holds, Fails;
    for (unsigned Mask = 0; Mask < (1u << NumAtoms); ++Mask)
      (X.eval(evalOfMask(Mask)) ? Holds : Fails).emplace(Mask);
    for (std::optional<unsigned> Mask : {Holds, Fails}) {
      if (!Mask)
        continue;
      (Mask == Holds ? Satisfied : Unsatisfied) += 1;
      for (size_t Cap : {1u, 2u, 3u, 5u}) {
        optabs::support::InvariantSink Sink;
        std::vector<Cube> FromAll = X.cubes();
        std::vector<Cube> FromMinimal = minimal(X).takeCubes();
        Cut += FromMinimal.size() > Cap;
        optabs::meta::pruneToSoftCap(FromAll, Cap, True, evalOfMask(*Mask),
                                     &Sink);
        optabs::meta::pruneToSoftCap(FromMinimal, Cap, True,
                                     evalOfMask(*Mask), &Sink);
        ASSERT_TRUE(FromAll == FromMinimal)
            << "round " << Round << " cap " << Cap;
        EXPECT_EQ(Sink.count(), 0u);
      }
    }
  }
  EXPECT_GT(Satisfied, 0u);
  EXPECT_GT(Unsatisfied, 0u);
  EXPECT_GT(Cut, 0u);
}

namespace oracle {

/// Dnf::sortBySize as it was before it sorted keys: std::sort over the
/// cubes themselves, then std::unique.
void sortBySize(Dnf &D) {
  std::vector<Cube> Cubes = D.takeCubes();
  std::sort(Cubes.begin(), Cubes.end(), [](const Cube &A, const Cube &B) {
    if (A.size() != B.size())
      return A.size() < B.size();
    return A.literals() < B.literals();
  });
  Cubes.erase(std::unique(Cubes.begin(), Cubes.end()), Cubes.end());
  D = Dnf::fromCubes(std::move(Cubes));
}

} // namespace oracle

TEST_P(DnfLaws, SortBySizeMatchesTheCubeSortOracle) {
  Prng Rng(GetParam() ^ 0x5E1F);
  for (int Round = 0; Round < 200; ++Round) {
    // Short cubes over few atoms collide often; long cubes over many atoms
    // spill past LitVec's inline capacity. Copies of earlier cubes, mixed
    // in anywhere, make sure every sort has duplicates to fold.
    std::vector<Cube> Cubes;
    unsigned Atoms = Round % 2 ? NumAtoms : 40;
    unsigned MaxLen = Round % 2 ? 4 : 12;
    for (unsigned I = 0, N = Rng.nextBelow(40); I < N; ++I) {
      if (!Cubes.empty() && Rng.chance(1, 4)) {
        Cubes.push_back(Cubes[Rng.nextBelow(Cubes.size())]);
        continue;
      }
      std::vector<Lit> Lits;
      for (unsigned J = 0, Len = Rng.nextBelow(MaxLen + 1); J < Len; ++J) {
        AtomId A = static_cast<AtomId>(Rng.nextBelow(Atoms));
        Lits.push_back(Rng.chance(1, 3) ? Lit::neg(A) : Lit::pos(A));
      }
      if (auto C = Cube::make(std::move(Lits)))
        Cubes.push_back(std::move(*C));
    }
    Dnf Want = Dnf::fromCubes(Cubes);
    Dnf Got = Want;
    oracle::sortBySize(Want);
    Got.sortBySize();
    ASSERT_EQ(Want.size(), Got.size()) << "round " << Round;
    for (size_t I = 0; I < Want.size(); ++I) {
      ASSERT_EQ(Want.cubes()[I].signature(), Got.cubes()[I].signature())
          << "round " << Round << " cube " << I;
      ASSERT_TRUE(Want.cubes()[I].literals() == Got.cubes()[I].literals())
          << "round " << Round << " cube " << I;
    }
    EXPECT_TRUE(Got.isSortedBySize());
    if (Got.size() < Cubes.size()) {
      EXPECT_FALSE(Dnf::fromCubes(Cubes).isSortedBySize());
    }
  }
}

class CubeOrderingSweep : public ::testing::TestWithParam<uint64_t> {};

bool cubeIsCanonical(const Cube &C) {
  const Lit *B = C.literals().begin(), *E = C.literals().end();
  for (const Lit *P = B; P + 1 < E; ++P)
    if (!(P->raw() < (P + 1)->raw()))
      return false; // out of order or duplicate
  return true;
}

TEST(CubeOrdering, MakeCanonicalizesShuffledInput) {
  // Literals arrive reversed and with a duplicate; the cube must come out
  // sorted by raw value with the duplicate folded away.
  auto C = Cube::make({Lit::pos(AtomId(5)), Lit::neg(AtomId(2)),
                       Lit::pos(AtomId(0)), Lit::pos(AtomId(5))});
  ASSERT_TRUE(C.has_value());
  EXPECT_EQ(C->literals().size(), 3u);
  EXPECT_TRUE(cubeIsCanonical(*C));
}

TEST_P(CubeOrderingSweep, ConjoinAndProductKeepLiteralsSorted) {
  // The product fast path skips re-sorting because conjoin's merge
  // already emits literals in raw order; this pins that invariant so a
  // future conjoin change cannot silently break signature() and the
  // sorted-merge subsumption checks downstream.
  Prng Rng(GetParam() ^ 0x0D9E);
  for (int Round = 0; Round < 200; ++Round) {
    Dnf A = randomDnf(Rng, 6);
    Dnf B = randomDnf(Rng, 6);
    for (const Cube &C : A.cubes())
      ASSERT_TRUE(cubeIsCanonical(C));
    std::optional<Cube> Joined;
    if (!A.cubes().empty() && !B.cubes().empty())
      Joined = Cube::conjoin(A.cubes().front(), B.cubes().front());
    if (Joined) {
      ASSERT_TRUE(cubeIsCanonical(*Joined));
    }
    Dnf P = Dnf::product(A, B);
    for (const Cube &C : P.cubes())
      ASSERT_TRUE(cubeIsCanonical(C)) << "round " << Round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DnfLaws,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull));
INSTANTIATE_TEST_SUITE_P(Seeds, CubeOrderingSweep,
                         ::testing::Values(1ull, 2ull, 3ull));

} // namespace
