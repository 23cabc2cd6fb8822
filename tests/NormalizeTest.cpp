//===- NormalizeTest.cpp - Unit tests for semantic DNF normalization ----------===//
//
// The normalization rules must (a) preserve the meaning of formulas over
// all *consistent* assignments (one value per location) and (b) actually
// recover the compact forms the paper's hand-written transfer functions
// produce - that is what makes the k-beam behave as in Figures 1 and 6.
//
//===----------------------------------------------------------------------===//

#include "formula/Normalize.h"

#include "support/Prng.h"

#include "gtest/gtest.h"

#include <unordered_map>

namespace {

using namespace optabs::formula;
using optabs::Prng;

// Atom universe: 4 locations x 3 values; atom id = loc * 3 + value.
constexpr unsigned NumLocs = 4;
constexpr unsigned NumVals = 3;

std::optional<LocationInfo> locOf(AtomId A) {
  LocationInfo Info;
  uint32_t Loc = A / NumVals;
  for (uint32_t V = 0; V < NumVals; ++V)
    Info.Values.push_back(Loc * NumVals + V);
  return Info;
}

CubeRefiner refiner() {
  return [](const Cube &C) { return refineCubeByLocations(C, locOf); };
}

/// Enumerates all consistent assignments (one value per location).
template <typename FnT> void forAllAssignments(FnT Fn) {
  unsigned Total = 1;
  for (unsigned I = 0; I < NumLocs; ++I)
    Total *= NumVals;
  for (unsigned Code = 0; Code < Total; ++Code) {
    unsigned Vals[NumLocs];
    unsigned C = Code;
    for (unsigned I = 0; I < NumLocs; ++I) {
      Vals[I] = C % NumVals;
      C /= NumVals;
    }
    AtomEval Eval = [&Vals](AtomId A) {
      return Vals[A / NumVals] == A % NumVals;
    };
    Fn(Eval);
  }
}

Cube cube(std::initializer_list<Lit> Lits) {
  auto C = Cube::make(Lits);
  EXPECT_TRUE(C.has_value());
  return *C;
}

Lit at(unsigned Loc, unsigned Val) { return Lit::pos(Loc * NumVals + Val); }
Lit nat(unsigned Loc, unsigned Val) { return Lit::neg(Loc * NumVals + Val); }

TEST(RefineCube, TwoPositiveValuesContradict) {
  EXPECT_FALSE(
      refineCubeByLocations(cube({at(0, 0), at(0, 1)}), locOf).has_value());
}

TEST(RefineCube, PositiveDropsNegativesOfSameLocation) {
  auto R = refineCubeByLocations(cube({at(0, 0), nat(0, 1), nat(0, 2)}),
                                 locOf);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->size(), 1u);
  EXPECT_EQ(R->literals()[0], at(0, 0));
}

TEST(RefineCube, ExhaustiveNegativesBecomePositive) {
  auto R = refineCubeByLocations(cube({nat(1, 0), nat(1, 2)}), locOf);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->size(), 1u);
  EXPECT_EQ(R->literals()[0], at(1, 1));
}

TEST(RefineCube, AllNegativesContradict) {
  EXPECT_FALSE(
      refineCubeByLocations(cube({nat(2, 0), nat(2, 1), nat(2, 2)}), locOf)
          .has_value());
}

TEST(RefineCube, IndependentAtomsPassThrough) {
  LocationFn NoLoc = [](AtomId) { return std::nullopt; };
  Cube C = cube({Lit::pos(1), Lit::neg(2)});
  auto R = refineCubeByLocations(C, NoLoc);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(*R, C);
}

TEST(SemanticNormalize, ValueCompleteMerge) {
  // (x /\ loc0=0) \/ (x /\ loc0=1) \/ (x /\ loc0=2)  ==>  x
  Lit X = at(3, 1);
  Dnf D = Dnf::fromCubes({cube({X, at(0, 0)}), cube({X, at(0, 1)}),
                          cube({X, at(0, 2)})});
  semanticNormalize(D, refiner(), locOf);
  ASSERT_EQ(D.size(), 1u);
  EXPECT_EQ(D.cubes()[0], cube({X}));
}

TEST(SemanticNormalize, ComplementaryMergeWithoutLocations) {
  // (a /\ b) \/ (a /\ !b) ==> a, for independent atoms.
  LocationFn NoLoc = [](AtomId) { return std::nullopt; };
  Dnf D = Dnf::fromCubes({cube({Lit::pos(9), Lit::pos(10)}),
                          cube({Lit::pos(9), Lit::neg(10)})});
  semanticNormalize(D, nullptr, NoLoc);
  ASSERT_EQ(D.size(), 1u);
  EXPECT_EQ(D.cubes()[0], cube({Lit::pos(9)}));
}

TEST(SemanticNormalize, RecoversFigure6Formula) {
  // The fragmented mechanical wp of u.E over "v.f = u" must merge back to
  //   u.E \/ (v.E /\ u.L) \/ (v.L /\ f.E /\ u.L).
  // Locations: 0 = v, 1 = u, 2 = f; values: 0 = N, 1 = L, 2 = E.
  auto V = [](unsigned Val) { return at(0, Val); };
  auto U = [](unsigned Val) { return at(1, Val); };
  auto F = [](unsigned Val) { return at(2, Val); };
  Dnf D = Dnf::fromCubes({
      cube({V(0), U(2)}),                 // v.N /\ u.E
      cube({V(2), U(1)}),                 // v.E /\ u.L       (esc case)
      cube({V(2), nat(1, 1), U(2)}),      // v.E /\ !u.L /\ u.E
      cube({V(1), F(2), U(2)}),           // v.L /\ f.E /\ u.E
      cube({V(1), F(0), U(2)}),           // v.L /\ f.N /\ u.E
      cube({V(1), F(1), U(2)}),           // v.L /\ f.L /\ u.E
      cube({V(1), F(2), U(1)}),           // v.L /\ f.E /\ u.L (esc case)
  });
  semanticNormalize(D, refiner(), locOf);
  D.sortBySize();
  ASSERT_EQ(D.size(), 3u);
  EXPECT_EQ(D.cubes()[0], cube({U(2)}));
  EXPECT_EQ(D.cubes()[1], cube({V(2), U(1)}));
  EXPECT_EQ(D.cubes()[2], cube({V(1), U(1), F(2)}));
}

/// Property: normalization preserves meaning over consistent assignments.
TEST(SemanticNormalize, PreservesMeaningOnRandomFormulas) {
  Prng Rng(0x5EED);
  for (int Round = 0; Round < 300; ++Round) {
    std::vector<Cube> Cubes;
    unsigned N = 1 + Rng.nextBelow(8);
    for (unsigned I = 0; I < N; ++I) {
      std::vector<Lit> Lits;
      unsigned Len = 1 + Rng.nextBelow(4);
      for (unsigned J = 0; J < Len; ++J) {
        AtomId A = static_cast<AtomId>(Rng.nextBelow(NumLocs * NumVals));
        Lits.push_back(Rng.chance(1, 3) ? Lit::neg(A) : Lit::pos(A));
      }
      if (auto C = Cube::make(std::move(Lits)))
        Cubes.push_back(std::move(*C));
    }
    Dnf Original = Dnf::fromCubes(Cubes);
    Dnf Normalized = Original;
    semanticNormalize(Normalized, refiner(), locOf);
    forAllAssignments([&](const AtomEval &Eval) {
      ASSERT_EQ(Original.eval(Eval), Normalized.eval(Eval))
          << "round " << Round << ": meaning changed";
    });
    // Normalization never grows the formula.
    EXPECT_LE(Normalized.size(), Original.size());
  }
}

TEST(SemanticNormalize, TwoValuedLocations) {
  // Sites have only {L, E}: negatives normalize to the other positive.
  LocationFn TwoVal = [](AtomId A) {
    LocationInfo Info;
    uint32_t Loc = A / 2;
    Info.Values = {Loc * 2, Loc * 2 + 1};
    return std::optional<LocationInfo>(Info);
  };
  CubeRefiner Refine = [&TwoVal](const Cube &C) {
    return refineCubeByLocations(C, TwoVal);
  };
  Dnf D = Dnf::fromCubes({cube({Lit::neg(0)})}); // !h.L ==> h.E
  semanticNormalize(D, Refine, TwoVal);
  ASSERT_EQ(D.size(), 1u);
  EXPECT_EQ(D.cubes()[0], cube({Lit::pos(1)}));
}

//===----------------------------------------------------------------------===//
// Differential tests against a reference oracle
//===----------------------------------------------------------------------===//
//
// The oracle is the allocation-heavy implementation that preceded the flat
// (location key, literal) refinement buffer and the sorted merge index,
// kept verbatim. The production code must reproduce its output byte for
// byte - same cubes, same literal order, same cube order - not merely an
// equivalent formula.

namespace oracle {

std::optional<Cube> refineCubeByLocations(const Cube &C,
                                          const LocationFn &Loc) {
  // Group the cube's literals by location (identified by the sorted value
  // list's first atom, which is stable per location). Cubes hold a handful
  // of literals, so flat vectors beat a node-based map here.
  struct Group {
    AtomId Key;
    LocationInfo Info;
    std::vector<Lit> Present;
  };
  std::vector<Group> Groups;
  std::vector<Lit> Independent;
  for (Lit L : C.literals()) {
    auto Info = Loc(L.atom());
    if (!Info) {
      Independent.push_back(L);
      continue;
    }
    assert(!Info->Values.empty());
    AtomId Key = *std::min_element(Info->Values.begin(), Info->Values.end());
    auto It = std::find_if(Groups.begin(), Groups.end(),
                           [Key](const Group &G) { return G.Key == Key; });
    if (It == Groups.end()) {
      Groups.push_back(Group{Key, std::move(*Info), {}});
      It = Groups.end() - 1;
    }
    It->Present.push_back(L);
  }
  std::sort(Groups.begin(), Groups.end(),
            [](const Group &A, const Group &B) { return A.Key < B.Key; });

  std::vector<Lit> Result = std::move(Independent);
  for (Group &G : Groups) {
    std::vector<AtomId> Positive;
    std::vector<AtomId> Negative;
    for (Lit L : G.Present)
      (L.isNeg() ? Negative : Positive).push_back(L.atom());

    std::sort(Positive.begin(), Positive.end());
    Positive.erase(std::unique(Positive.begin(), Positive.end()),
                   Positive.end());
    if (Positive.size() > 1)
      return std::nullopt; // two distinct values of one location
    if (Positive.size() == 1) {
      // Any negative literal of the same location is implied (different
      // value) or contradictory (same value, impossible here since Cube
      // construction rejects complementary pairs).
      Result.push_back(Lit::pos(Positive[0]));
      continue;
    }
    // Negatives only.
    std::sort(Negative.begin(), Negative.end());
    Negative.erase(std::unique(Negative.begin(), Negative.end()),
                   Negative.end());
    if (G.Info.Exhaustive) {
      std::vector<AtomId> Remaining;
      for (AtomId V : G.Info.Values)
        if (!std::binary_search(Negative.begin(), Negative.end(), V))
          Remaining.push_back(V);
      if (Remaining.empty())
        return std::nullopt; // no value left for this location
      if (Remaining.size() == 1) {
        Result.push_back(Lit::pos(Remaining[0]));
        continue;
      }
    }
    for (AtomId V : Negative)
      Result.push_back(Lit::neg(V));
  }
  return Cube::make(std::move(Result));
}

namespace {

/// Order-independent (commutative) hash of one literal, mixed well enough
/// that sums of literal hashes rarely collide. Collisions are handled by an
/// exact check, so this only affects speed.
uint64_t litHash(Lit L) {
  uint64_t X = L.raw() + 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Commutative hash of a whole cube: the sum of its literal hashes. A
/// one-literal substitution is a constant-time hash update, which is what
/// lets mergeRound probe for partner cubes without materializing them.
uint64_t cubeHash(const Cube &C) {
  uint64_t H = 0;
  for (Lit L : C.literals())
    H += litHash(L);
  return H;
}

/// True when A with \p La removed equals B with \p Lb removed, i.e. B is A
/// with one literal substituted. Both literal lists are sorted and
/// duplicate-free; La must occur in A and Lb in B for a match.
bool sameExcept(const Cube &A, Lit La, const Cube &B, Lit Lb) {
  if (A.size() != B.size())
    return false;
  const Lit *PA = A.literals().begin(), *EA = A.literals().end();
  const Lit *PB = B.literals().begin(), *EB = B.literals().end();
  bool SkippedA = false, SkippedB = false;
  while (PA != EA && PB != EB) {
    if (!SkippedA && *PA == La) {
      ++PA;
      SkippedA = true;
      continue;
    }
    if (!SkippedB && *PB == Lb) {
      ++PB;
      SkippedB = true;
      continue;
    }
    if (*PA != *PB)
      return false;
    ++PA;
    ++PB;
  }
  if (PA != EA && !SkippedA && *PA == La) {
    ++PA;
    SkippedA = true;
  }
  if (PB != EB && !SkippedB && *PB == Lb) {
    ++PB;
    SkippedB = true;
  }
  return PA == EA && PB == EB && SkippedA && SkippedB;
}

/// One round of complementary-literal and value-complete merging. Returns
/// true if anything changed. The candidate scan order (ascending cube
/// index, literal order within the cube, complementary before
/// value-complete) fixes which merge fires first, so the fixpoint result
/// is deterministic.
bool mergeRound(std::vector<Cube> &Cubes, const LocationFn &Loc) {
  // Index cubes by commutative hash: the partner of a one-literal
  // substitution is found by adjusting the hash in O(1) and verifying the
  // (rare) candidates exactly. Cubes are duplicate-free here (subsumption
  // ran just before), so a verified match is unique.
  std::unordered_multimap<uint64_t, size_t> Index;
  std::vector<uint64_t> Hashes(Cubes.size());
  Index.reserve(Cubes.size());
  for (size_t I = 0; I < Cubes.size(); ++I) {
    Hashes[I] = cubeHash(Cubes[I]);
    Index.emplace(Hashes[I], I);
  }
  // First cube whose literals are Cubes[I] with La replaced by Lb; -1 if
  // absent. Equivalent to a linear scan for the substituted literal list.
  auto FindSubst = [&](size_t I, Lit La, Lit Lb) -> int {
    uint64_t H = Hashes[I] - litHash(La) + litHash(Lb);
    int Best = -1;
    for (auto [It, End] = Index.equal_range(H); It != End; ++It)
      if (sameExcept(Cubes[I], La, Cubes[It->second], Lb) &&
          (Best < 0 || static_cast<int>(It->second) < Best))
        Best = static_cast<int>(It->second);
    return Best;
  };
  auto Without = [](const Cube &C, Lit L) {
    std::vector<Lit> Lits;
    for (Lit X : C.literals())
      if (X != L)
        Lits.push_back(X);
    return Lits;
  };

  for (size_t I = 0; I < Cubes.size(); ++I) {
    for (Lit L : Cubes[I].literals()) {
      // Complementary merge: X u {l} and X u {!l} -> X.
      int Partner = FindSubst(I, L, L.negate());
      if (Partner >= 0 && Partner != static_cast<int>(I)) {
        Cube Merged = *Cube::make(Without(Cubes[I], L));
        size_t A = std::min(I, static_cast<size_t>(Partner));
        size_t B = std::max(I, static_cast<size_t>(Partner));
        Cubes.erase(Cubes.begin() + B);
        Cubes[A] = std::move(Merged);
        return true;
      }

      // Value-complete merge: X u {a_i} present for every value of an
      // exhaustive location -> X.
      if (L.isNeg())
        continue;
      auto Info = Loc(L.atom());
      if (!Info || !Info->Exhaustive || Info->Values.size() < 2)
        continue;
      std::vector<size_t> Members;
      bool Complete = true;
      for (AtomId V : Info->Values) {
        int At = FindSubst(I, L, Lit::pos(V));
        if (At < 0) {
          Complete = false;
          break;
        }
        Members.push_back(static_cast<size_t>(At));
      }
      if (!Complete)
        continue;
      std::sort(Members.begin(), Members.end());
      Members.erase(std::unique(Members.begin(), Members.end()),
                    Members.end());
      Cube Merged = *Cube::make(Without(Cubes[I], L));
      for (size_t J = Members.size(); J-- > 0;)
        Cubes.erase(Cubes.begin() + Members[J]);
      Cubes.push_back(std::move(Merged));
      return true;
    }
  }
  return false;
}

} // namespace

void semanticNormalize(Dnf &D, const CubeRefiner &Refine,
                       const LocationFn &Loc) {
  std::vector<Cube> Cubes;
  for (const Cube &C : D.cubes()) {
    if (!Refine) {
      Cubes.push_back(C);
      continue;
    }
    if (auto R = Refine(C))
      Cubes.push_back(std::move(*R));
  }

  // The client's atomLocation builds a fresh LocationInfo per call; the
  // same few atoms are queried over and over across merge rounds, so one
  // per-call cache pays for itself immediately.
  std::unordered_map<AtomId, std::optional<LocationInfo>> LocCache;
  LocationFn CachedLoc;
  if (Loc)
    CachedLoc = [&Loc, &LocCache](AtomId A) -> std::optional<LocationInfo> {
      auto It = LocCache.find(A);
      if (It == LocCache.end())
        It = LocCache.emplace(A, Loc(A)).first;
      return It->second;
    };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    // Subsumption first keeps the candidate set small for merging.
    Dnf Tmp = Dnf::fromCubes(std::move(Cubes));
    Tmp.sortBySize();
    Tmp.simplify();
    Cubes = Tmp.takeCubes();

    if (CachedLoc && mergeRound(Cubes, CachedLoc)) {
      Changed = true;
      continue;
    }
    // Complementary merging alone (no location info).
    if (!Loc) {
      LocationFn None = [](AtomId) { return std::nullopt; };
      if (mergeRound(Cubes, None))
        Changed = true;
    }
  }
  D = Dnf::fromCubes(std::move(Cubes));
}

} // namespace oracle

// An escape-shaped universe: exhaustive three-valued locations (variables
// and fields: N/L/E), exhaustive two-valued locations (sites: L/E), one
// non-exhaustive three-valued location, and independent atoms.
constexpr AtomId NumTriAtoms = 12;  // locations 0..3, atoms 0..11
constexpr AtomId NumPairAtoms = 6;  // locations 4..6, atoms 12..17
constexpr AtomId NumOpenAtoms = 3;  // one at-most-one location, 18..20
constexpr AtomId NumFreeAtoms = 4;  // independent atoms 21..24
constexpr AtomId NumAtoms =
    NumTriAtoms + NumPairAtoms + NumOpenAtoms + NumFreeAtoms;

std::optional<LocationInfo> escapeShapedLoc(AtomId A) {
  LocationInfo Info;
  if (A < NumTriAtoms) {
    AtomId First = A - A % 3;
    Info.Values = {First, First + 1, First + 2};
  } else if (A < NumTriAtoms + NumPairAtoms) {
    AtomId First = A - (A - NumTriAtoms) % 2;
    Info.Values = {First, First + 1};
  } else if (A < NumTriAtoms + NumPairAtoms + NumOpenAtoms) {
    AtomId First = NumTriAtoms + NumPairAtoms;
    Info.Values = {First, First + 1, First + 2};
    Info.Exhaustive = false;
  } else {
    return std::nullopt;
  }
  return Info;
}

/// A random satisfiable cube of 1..MaxLen literals (before normalization).
Cube randomCube(Prng &Rng, unsigned MaxLen) {
  for (;;) {
    std::vector<Lit> Lits;
    unsigned Len = 1 + Rng.nextBelow(MaxLen);
    for (unsigned J = 0; J < Len; ++J) {
      AtomId A = static_cast<AtomId>(Rng.nextBelow(NumAtoms));
      Lits.push_back(Rng.chance(1, 3) ? Lit::neg(A) : Lit::pos(A));
    }
    if (auto C = Cube::make(std::move(Lits)))
      return *C;
  }
}

TEST(NormalizeDifferential, RefineCubeMatchesOracleBytewise) {
  Prng Rng(0xD1FF);
  unsigned Refuted = 0;
  for (int Round = 0; Round < 20000; ++Round) {
    // Mostly inline-sized cubes, some past LitVec::InlineCap.
    Cube C = randomCube(Rng, Round % 8 == 0 ? 10 : LitVec::InlineCap);
    auto Want = oracle::refineCubeByLocations(C, escapeShapedLoc);
    auto Got = refineCubeByLocations(C, escapeShapedLoc);
    ASSERT_EQ(Want.has_value(), Got.has_value()) << "round " << Round;
    if (!Want) {
      ++Refuted;
      continue;
    }
    ASSERT_EQ(Want->signature(), Got->signature()) << "round " << Round;
    ASSERT_TRUE(Want->literals() == Got->literals()) << "round " << Round;
  }
  // Both outcomes were exercised.
  EXPECT_GT(Refuted, 1000u);
  EXPECT_LT(Refuted, 19000u);
}

TEST(NormalizeDifferential, SemanticNormalizeMatchesOracleBytewise) {
  Prng Rng(0xD1FE);
  CubeRefiner NewRefine = [](const Cube &C) {
    return refineCubeByLocations(C, escapeShapedLoc);
  };
  CubeRefiner OldRefine = [](const Cube &C) {
    return oracle::refineCubeByLocations(C, escapeShapedLoc);
  };
  LocationFn Loc = escapeShapedLoc;
  unsigned Merged = 0;
  for (int Round = 0; Round < 12000; ++Round) {
    std::vector<Cube> Cubes;
    unsigned N = 1 + Rng.nextBelow(12);
    for (unsigned I = 0; I < N; ++I)
      Cubes.push_back(randomCube(Rng, 5));
    // Seed merge partners: copies of a cube with one literal swapped for
    // its complement or for another value of the same location.
    for (unsigned I = 0, E = Rng.nextBelow(4); I < E; ++I) {
      const Cube &Base = Cubes[Rng.nextBelow(Cubes.size())];
      std::vector<Lit> Lits(Base.literals().begin(), Base.literals().end());
      Lit &L = Lits[Rng.nextBelow(Lits.size())];
      auto Info = escapeShapedLoc(L.atom());
      L = Info && Rng.chance(1, 2)
              ? Lit::pos(Info->Values[Rng.nextBelow(Info->Values.size())])
              : L.negate();
      if (auto C = Cube::make(std::move(Lits)))
        Cubes.push_back(std::move(*C));
    }
    // Each knowledge combination the backward engine and the tests use:
    // full client knowledge, locations without a refiner, and neither.
    for (int Mode = 0; Mode < 3; ++Mode) {
      Dnf Want = Dnf::fromCubes(Cubes);
      Dnf Got = Want;
      if (Mode == 0) {
        oracle::semanticNormalize(Want, OldRefine, Loc);
        semanticNormalize(Got, NewRefine, Loc);
      } else if (Mode == 1) {
        oracle::semanticNormalize(Want, nullptr, Loc);
        semanticNormalize(Got, nullptr, Loc);
      } else {
        oracle::semanticNormalize(Want, nullptr, nullptr);
        semanticNormalize(Got, nullptr, nullptr);
      }
      ASSERT_EQ(Want.size(), Got.size())
          << "round " << Round << " mode " << Mode;
      for (size_t I = 0; I < Want.size(); ++I) {
        ASSERT_EQ(Want.cubes()[I].signature(), Got.cubes()[I].signature())
            << "round " << Round << " mode " << Mode << " cube " << I;
        ASSERT_TRUE(Want.cubes()[I].literals() == Got.cubes()[I].literals())
            << "round " << Round << " mode " << Mode << " cube " << I;
      }
      if (Mode == 0 && Want.size() < Cubes.size())
        ++Merged;
    }
  }
  // The rounds actually merged and refined, not just passed cubes through.
  EXPECT_GT(Merged, 2000u);
}

} // namespace
