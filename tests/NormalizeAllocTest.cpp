//===- NormalizeAllocTest.cpp - Zero-allocation pins for the backward step ===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Location lookups, cube refinement and literal-wp lookups run on every
// cube of every backward step. All are heap-free once warm: LocationInfo
// keeps its values inline, refineCubeByLocations works in reused scratch
// buffers, and a wp table hit is a probe of published words. So is
// counting a step's chain of products, which runs before every large step
// builds anything: the counter keeps its bit rows. These tests count
// global operator-new calls around warm calls so that a change which
// reintroduces a per-call allocation fails here rather than only showing up
// as a slower benchmark.
//
//===----------------------------------------------------------------------===//

#include "escape/Escape.h"
#include "formula/Normalize.h"
#include "ir/Parser.h"
#include "meta/Backward.h"
#include "meta/WpTable.h"
#include "support/Prng.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdlib>
#include <new>

//===----------------------------------------------------------------------===//
// Allocation counting
//===----------------------------------------------------------------------===//

namespace {
std::atomic<uint64_t> GlobalAllocs{0};
} // namespace

void *operator new(std::size_t Size) {
  GlobalAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *operator new[](std::size_t Size) { return ::operator new(Size); }

// The nothrow overloads must be replaced alongside the throwing ones, or a
// library allocation through them would be freed by the deletes below
// without having come from malloc.
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  GlobalAllocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}

void *operator new[](std::size_t Size, const std::nothrow_t &T) noexcept {
  return ::operator new(Size, T);
}

// Every overload above allocates with malloc, so pairing it with free() is
// correct; GCC cannot see through the replaceable operators and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
#pragma GCC diagnostic pop

namespace {

using namespace optabs;
using escape::AbsVal;
using escape::EscapeAnalysis;
using formula::AtomId;
using formula::Cube;
using formula::Lit;
using formula::LitVec;

ir::Program parse(const char *Src) {
  ir::Program P;
  std::string Error;
  EXPECT_TRUE(ir::parseProgram(Src, P, Error)) << Error;
  return P;
}

const char *Src = R"(
  proc main {
    u = new h1;
    v = new h2;
    w = new h3;
    v.f = u;
    w.g = v;
    check(u);
  }
)";

/// Every atom of the program: three values per variable and field, two
/// per allocation site.
std::vector<AtomId> allAtoms(const ir::Program &P) {
  std::vector<AtomId> Atoms;
  for (uint32_t V = 0; V < P.numVars(); ++V)
    for (AbsVal O : {AbsVal::N, AbsVal::L, AbsVal::E})
      Atoms.push_back(EscapeAnalysis::atomVar(ir::VarId(V), O));
  for (uint32_t F = 0; F < P.numFields(); ++F)
    for (AbsVal O : {AbsVal::N, AbsVal::L, AbsVal::E})
      Atoms.push_back(EscapeAnalysis::atomField(ir::FieldId(F), O));
  for (uint32_t H = 0; H < P.numAllocs(); ++H)
    for (AbsVal O : {AbsVal::L, AbsVal::E})
      Atoms.push_back(EscapeAnalysis::atomSite(ir::AllocId(H), O));
  return Atoms;
}

/// Random satisfiable cubes of at most LitVec::InlineCap literals.
std::vector<Cube> inlineCubes(const std::vector<AtomId> &Atoms,
                              unsigned Count) {
  Prng Rng(0xA110C);
  std::vector<Cube> Cubes;
  while (Cubes.size() < Count) {
    std::vector<Lit> Lits;
    unsigned Len = 1 + static_cast<unsigned>(Rng.nextBelow(LitVec::InlineCap));
    for (unsigned I = 0; I < Len; ++I) {
      AtomId A = Atoms[Rng.nextBelow(Atoms.size())];
      Lits.push_back(Rng.chance(1, 3) ? Lit::neg(A) : Lit::pos(A));
    }
    if (auto C = Cube::make(std::move(Lits)))
      Cubes.push_back(std::move(*C));
  }
  return Cubes;
}

TEST(NormalizeAlloc, AtomLocationAllocatesNothing) {
  ir::Program P = parse(Src);
  EscapeAnalysis A(P);
  std::vector<AtomId> Atoms = allAtoms(P);
  ASSERT_GT(Atoms.size(), 20u);

  size_t Located = 0;
  uint64_t Before = GlobalAllocs.load(std::memory_order_relaxed);
  for (int Rep = 0; Rep < 100; ++Rep)
    for (AtomId Atom : Atoms)
      if (auto Info = A.atomLocation(Atom))
        Located += Info->Values.size();
  uint64_t After = GlobalAllocs.load(std::memory_order_relaxed);
  EXPECT_EQ(After, Before);
  EXPECT_GT(Located, 0u);
}

TEST(NormalizeAlloc, WarmRefineCubeAllocatesNothing) {
  ir::Program P = parse(Src);
  EscapeAnalysis A(P);
  std::vector<Cube> Cubes = inlineCubes(allAtoms(P), 2000);

  // Both entry points the backward engine uses: the client hook and the
  // generic refinement with a LocationFn.
  formula::LocationFn Loc = [&A](AtomId X) { return A.atomLocation(X); };
  auto RefineAll = [&] {
    size_t Kept = 0;
    for (const Cube &C : Cubes) {
      Kept += A.refineCube(C).has_value();
      Kept += formula::refineCubeByLocations(C, Loc).has_value();
    }
    return Kept;
  };
  size_t Warm = RefineAll(); // grows the scratch buffers once

  uint64_t Before = GlobalAllocs.load(std::memory_order_relaxed);
  size_t Kept = RefineAll();
  uint64_t After = GlobalAllocs.load(std::memory_order_relaxed);
  EXPECT_EQ(After, Before);
  EXPECT_EQ(Kept, Warm);
  // Both outcomes (refined cube, refuted cube) were exercised.
  EXPECT_GT(Kept, 0u);
  EXPECT_LT(Kept, 2 * Cubes.size());
}

TEST(NormalizeAlloc, WarmWpTableHitAllocatesNothing) {
  ir::Program P = parse(Src);
  EscapeAnalysis A(P);
  std::vector<AtomId> Atoms = allAtoms(P);
  meta::WpTable::Reader Table(A.wpTable());
  // Every (command, literal) of the program, both polarities, as the
  // backward engine's wpLit looks them up.
  auto LookupAll = [&] {
    size_t Cubes = 0;
    for (uint32_t C = 0; C < P.numCommands(); ++C)
      for (AtomId Atom : Atoms)
        for (Lit L : {Lit::pos(Atom), Lit::neg(Atom)})
          Cubes += Table
                       .lookup(C, L,
                               [&] {
                                 formula::Formula Wp = A.wpAtom(
                                     P.command(ir::CommandId(C)), Atom);
                                 if (L.isNeg())
                                   Wp = formula::Formula::negate(Wp);
                                 return Wp.toDnf();
                               })
                       .size();
    return Cubes;
  };
  size_t Cold = LookupAll(); // fills the table

  uint64_t Before = GlobalAllocs.load(std::memory_order_relaxed);
  size_t Warm = LookupAll();
  uint64_t After = GlobalAllocs.load(std::memory_order_relaxed);
  EXPECT_EQ(After, Before);
  EXPECT_EQ(Warm, Cold);
  EXPECT_GT(A.wpTable().bytes(), 0u);
}

TEST(NormalizeAlloc, WarmChainCountAllocatesNothing) {
  // The backward step counts every large source cube's chain of products
  // before it builds anything; the count conjoins no cube and reuses its
  // bit rows. Four levels of random cubes, one past a 64-bit word, counted
  // from one base cube and from many, up to the default soft cap's limit.
  ir::Program P = parse(Src);
  std::vector<Cube> Cubes = inlineCubes(allAtoms(P), 300);
  std::vector<size_t> Ends{70, 150, 220, 300};
  std::vector<Cube> Base(1);
  Base.insert(Base.end(), Cubes.begin(), Cubes.begin() + 30);
  meta::ChainCounter Counter;
  std::vector<size_t> Counts;
  auto CountAll = [&] {
    size_t Sum = 0;
    for (size_t NumBase : {size_t(1), Base.size()})
      for (size_t First : {0, 1, 2}) {
        size_t Over = Counter.count(Base.data(), NumBase, Cubes, Ends, First,
                                    4097, Counts);
        Sum += Over;
        for (size_t J = First; J < Over; ++J)
          Sum += Counts[J];
      }
    return Sum;
  };
  size_t Cold = CountAll(); // grows the rows and the stack once

  uint64_t Before = GlobalAllocs.load(std::memory_order_relaxed);
  size_t Warm = CountAll();
  uint64_t After = GlobalAllocs.load(std::memory_order_relaxed);
  EXPECT_EQ(After, Before);
  EXPECT_EQ(Warm, Cold);
  // The counts ran into the limit part-way, past a level's first word.
  size_t Over = Counter.count(Base.data(), Base.size(), Cubes, Ends, 0, 4097,
                              Counts);
  EXPECT_LT(Over, Ends.size());
  EXPECT_GT(Counts[0], 64u);
}

} // namespace
