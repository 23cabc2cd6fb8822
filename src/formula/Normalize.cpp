//===- Normalize.cpp - Semantic DNF normalization ----------------------------===//

#include "formula/Normalize.h"

#include <algorithm>

namespace optabs {
namespace formula {

std::optional<Cube> refineCubeByLocations(const Cube &C,
                                          const LocationFn &Loc) {
  return refineCubeByLocations<LocationFn>(C, Loc);
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
/// is deterministic. Without location info (\p Loc empty) only the
/// complementary merge runs.
bool mergeRound(std::vector<Cube> &Cubes, const LocationFn &Loc) {
  // Index cubes by commutative hash: the partner of a one-literal
  // substitution is found by adjusting the hash in O(1), probing an
  // open-addressed table of (hash, index) slots and verifying the (rare)
  // candidates exactly. Slots are filled in ascending index order with
  // linear probing and nothing is ever removed, so a probe meets equal
  // hashes lowest index first and the first verified candidate is the
  // lowest-index partner. The buffers are reused across calls, so a warm
  // round allocates nothing.
  struct Slot {
    uint64_t Hash;
    uint32_t IndexPlusOne; ///< 0 marks an empty slot
  };
  thread_local std::vector<Slot> Slots;
  thread_local std::vector<uint64_t> Hashes;
  thread_local std::vector<Lit> Rest;
  unsigned Shift = 1;
  while ((size_t(1) << Shift) < 2 * Cubes.size())
    ++Shift;
  const size_t Mask = (size_t(1) << Shift) - 1;
  auto Home = [Shift](uint64_t H) {
    return static_cast<size_t>((H * 0x9e3779b97f4a7c15ULL) >> (64 - Shift));
  };
  Slots.assign(Mask + 1, Slot{0, 0});
  Hashes.clear();
  // Which literals occur at all, by raw value mod 1024: a partner must hold
  // the substituted literal, so a probe for one whose bit is clear cannot
  // succeed and is skipped. Most literals have no complement in the
  // formula, and most locations show only some of their values.
  uint64_t Present[16] = {};
  auto Bit = [](Lit L) { return L.raw() & 1023; };
  auto MayOccur = [&Present, &Bit](Lit L) {
    return (Present[Bit(L) >> 6] >> (Bit(L) & 63)) & 1;
  };
  for (size_t I = 0; I < Cubes.size(); ++I) {
    for (Lit L : Cubes[I].literals())
      Present[Bit(L) >> 6] |= uint64_t(1) << (Bit(L) & 63);
    uint64_t H = cubeHash(Cubes[I]);
    Hashes.push_back(H);
    size_t At = Home(H);
    while (Slots[At].IndexPlusOne != 0)
      At = (At + 1) & Mask;
    Slots[At] = {H, static_cast<uint32_t>(I + 1)};
  }
  // First cube whose literals are Cubes[I] with La replaced by Lb; -1 if
  // absent. Equivalent to a linear scan for the substituted literal list.
  auto FindSubst = [&](size_t I, Lit La, Lit Lb) -> int {
    uint64_t H = Hashes[I] - litHash(La) + litHash(Lb);
    for (size_t At = Home(H); Slots[At].IndexPlusOne != 0;
         At = (At + 1) & Mask)
      if (Slots[At].Hash == H &&
          sameExcept(Cubes[I], La, Cubes[Slots[At].IndexPlusOne - 1], Lb))
        return static_cast<int>(Slots[At].IndexPlusOne - 1);
    return -1;
  };
  auto Without = [](const Cube &C, Lit L) {
    Rest.clear();
    for (Lit X : C.literals())
      if (X != L)
        Rest.push_back(X);
    return *Cube::make(Rest.data(), Rest.size());
  };

  for (size_t I = 0; I < Cubes.size(); ++I) {
    for (Lit L : Cubes[I].literals()) {
      // Complementary merge: X u {l} and X u {!l} -> X.
      int Partner = MayOccur(L.negate()) ? FindSubst(I, L, L.negate()) : -1;
      if (Partner >= 0 && Partner != static_cast<int>(I)) {
        Cube Merged = Without(Cubes[I], L);
        size_t A = std::min(I, static_cast<size_t>(Partner));
        size_t B = std::max(I, static_cast<size_t>(Partner));
        Cubes.erase(Cubes.begin() + B);
        Cubes[A] = std::move(Merged);
        return true;
      }

      // Value-complete merge: X u {a_i} present for every value of an
      // exhaustive location -> X.
      if (L.isNeg() || !Loc)
        continue;
      auto Info = Loc(L.atom());
      if (!Info || !Info->Exhaustive || Info->Values.size() < 2 ||
          !std::all_of(Info->Values.begin(), Info->Values.end(),
                       [&](AtomId V) { return MayOccur(Lit::pos(V)); }))
        continue;
      size_t Members[LocationInfo::MaxValues];
      size_t NumMembers = 0;
      bool Complete = true;
      for (AtomId V : Info->Values) {
        int At = FindSubst(I, L, Lit::pos(V));
        if (At < 0) {
          Complete = false;
          break;
        }
        Members[NumMembers++] = static_cast<size_t>(At);
      }
      if (!Complete)
        continue;
      std::sort(Members, Members + NumMembers);
      NumMembers = static_cast<size_t>(
          std::unique(Members, Members + NumMembers) - Members);
      Cube Merged = Without(Cubes[I], L);
      for (size_t J = NumMembers; J-- > 0;)
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
  std::vector<Cube> Cubes = D.takeCubes();
  if (Refine) {
    size_t Kept = 0;
    for (Cube &C : Cubes)
      if (auto R = Refine(C))
        Cubes[Kept++] = std::move(*R);
    Cubes.erase(Cubes.begin() + Kept, Cubes.end());
  }

  bool Changed = true;
  while (Changed) {
    // Subsumption first keeps the candidate set small for merging.
    Dnf Tmp = Dnf::fromCubes(std::move(Cubes));
    Tmp.sortBySize();
    Tmp.simplify();
    Cubes = Tmp.takeCubes();
    Changed = mergeRound(Cubes, Loc);
  }
  D = Dnf::fromCubes(std::move(Cubes));
}

} // namespace formula
} // namespace optabs
