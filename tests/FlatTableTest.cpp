//===- FlatTableTest.cpp - The forward engine's open-addressing tables ------===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// StateInterner, FlatTable and TripleSet index raw slots by hand, so these
// tests pin what callers depend on: dense first-intern ids, correct
// lookups under collisions, growth and erase, snapshot bytes that do not
// depend on the table layout, and lookups of existing entries (or reuse
// of a grown set) that allocate nothing.
//
//===----------------------------------------------------------------------===//

#include "dataflow/FlatTable.h"
#include "dataflow/Forward.h"
#include "escape/Escape.h"
#include "ir/Liveness.h"
#include "ir/Parser.h"
#include "support/Prng.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <set>
#include <tuple>

//===----------------------------------------------------------------------===//
// Allocation counting (the same shim as NormalizeAllocTest)
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
using dataflow::FlatTable;
using dataflow::StateId;
using dataflow::StateInterner;
using escape::AbsVal;
using escape::EscapeAnalysis;
using escape::EscState;

/// The escape state holding \p Vals, one location per value.
EscState stateOf(const std::vector<uint8_t> &Vals) {
  EscState S;
  S.Words.assign(EscState::wordsFor(Vals.size()), 0);
  for (uint32_t L = 0; L < Vals.size(); ++L)
    S.setSlot(L, static_cast<AbsVal>(Vals[L]));
  return S;
}

/// Files every state in one probe chain.
struct ConstantHash {
  size_t operator()(uint32_t) const { return 42; }
};

TEST(StateInterner, ConstantHashSurvivesGrowth) {
  // 1000 states take the slot array from 16 through 2048 slots: seven
  // doublings, each refiling one long collision chain.
  StateInterner<uint32_t, ConstantHash> I;
  for (uint32_t S = 0; S < 1000; ++S)
    ASSERT_EQ(I.intern(S * 7919u), S);
  EXPECT_EQ(I.size(), 1000u);
  for (uint32_t S = 0; S < 1000; ++S) {
    EXPECT_EQ(I.intern(S * 7919u), S);
    EXPECT_EQ(I.find(S * 7919u), std::optional<StateId>(S));
  }
  EXPECT_FALSE(I.find(1u).has_value());
  EXPECT_EQ(I.size(), 1000u);
}

TEST(StateInterner, IdsAreDenseInFirstInternOrder) {
  StateInterner<EscState, EscapeAnalysis::StateHash> I;
  Prng Rng(0x1D5);
  std::vector<EscState> Firsts;
  for (unsigned Round = 0; Round < 3000; ++Round) {
    std::vector<uint8_t> Vals(13);
    for (uint8_t &V : Vals)
      V = static_cast<uint8_t>(Rng.nextBelow(3) ? 0 : Rng.nextBelow(3));
    EscState S = stateOf(Vals);
    size_t Before = I.size();
    StateId Id = I.intern(S);
    if (I.size() > Before) {
      EXPECT_EQ(Id, Firsts.size());
      Firsts.push_back(S);
    } else {
      EXPECT_LT(Id, Firsts.size());
      EXPECT_EQ(Firsts[Id], S);
    }
  }
  ASSERT_GT(Firsts.size(), 100u);
  for (StateId Id = 0; Id < Firsts.size(); ++Id) {
    EXPECT_EQ(I.state(Id), Firsts[Id]);
    EXPECT_EQ(I.find(Firsts[Id]), std::optional<StateId>(Id));
  }
}

TEST(FlatTable, LookupsAfterInterleavedInserts) {
  FlatTable<uint32_t> T;
  std::map<uint64_t, uint32_t> Oracle;
  Prng Rng(0xF1A7);
  for (unsigned Step = 0; Step < 20000; ++Step) {
    // Engine-shaped keys: (index << 32) | id, from a small universe so
    // that inserts often hit existing keys.
    uint64_t K = (uint64_t(Rng.nextBelow(64)) << 32) | Rng.nextBelow(128);
    if (Rng.nextBelow(2) == 0) {
      uint32_t V = static_cast<uint32_t>(Step);
      auto [Idx, Inserted] = T.insert(K, V);
      auto [It, OracleInserted] = Oracle.emplace(K, V);
      ASSERT_EQ(Inserted, OracleInserted);
      ASSERT_EQ(T.at(Idx), It->second);
    }
    const uint32_t *Found = T.find(K);
    auto It = Oracle.find(K);
    ASSERT_EQ(Found != nullptr, It != Oracle.end());
    if (Found) {
      ASSERT_EQ(*Found, It->second);
    }
  }
  EXPECT_EQ(T.size(), Oracle.size());
  // Entries stay in insertion order and keep their first value.
  for (const auto &E : T.entries())
    EXPECT_EQ(E.Value, Oracle.at(E.K));
}

TEST(TripleSet, MatchesASetUnderInsertsAndErases) {
  dataflow::TripleSet T;
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> Oracle;
  Prng Rng(0x7B1E);
  for (unsigned Step = 0; Step < 50000; ++Step) {
    // A small universe, so probe runs collide and erase must shift
    // members back across them.
    uint32_t A = static_cast<uint32_t>(Rng.nextBelow(8));
    uint32_t B = static_cast<uint32_t>(Rng.nextBelow(16));
    uint32_t C = static_cast<uint32_t>(Rng.nextBelow(4));
    bool Present = Oracle.count({A, B, C}) > 0;
    if (Present && Rng.nextBelow(2) == 0) {
      T.erase(A, B, C);
      Oracle.erase({A, B, C});
    } else {
      // insert() reports membership: false exactly when already present.
      ASSERT_EQ(T.insert(A, B, C), !Present);
      Oracle.insert({A, B, C});
    }
    ASSERT_EQ(T.size(), Oracle.size());
  }
  for (const auto &[A, B, C] : Oracle)
    EXPECT_FALSE(T.insert(A, B, C));
  T.clear();
  EXPECT_EQ(T.size(), 0u);
  for (const auto &[A, B, C] : Oracle)
    EXPECT_TRUE(T.insert(A, B, C));
}

//===----------------------------------------------------------------------===//
// Snapshot bytes of a forward run
//===----------------------------------------------------------------------===//

/// Little-endian byte sink in the shape ForwardAnalysis::saveTo expects.
struct ByteSink {
  uint32_t NumLocs = 0; ///< the location count of every state
  std::vector<uint8_t> Bytes;
  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Bytes.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Bytes.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  /// The location count, then one byte per location.
  void state(const EscState &S) {
    u32(NumLocs);
    for (uint32_t L = 0; L < NumLocs; ++L)
      Bytes.push_back(static_cast<uint8_t>(S.slot(L)));
  }
  std::string hex() const {
    std::string Out;
    char Buf[3];
    for (uint8_t B : Bytes) {
      std::snprintf(Buf, sizeof(Buf), "%02x", B);
      Out += Buf;
    }
    return Out;
  }
};

ir::Program parse(const char *Src) {
  ir::Program P;
  std::string Error;
  EXPECT_TRUE(ir::parseProgram(Src, P, Error)) << Error;
  return P;
}

const char *LoopSrc = R"(
  global g;
  proc helper {
    w = new h3;
    v.f = w;
  }
  proc main {
    u = new h1;
    v = new h2;
    loop {
      choice { v.f = u; } or { u = v.f; } or { call helper; }
    }
    check(u);
    g = v;
    check(v);
  }
)";

/// saveTo() of the run below, recorded from the node-based tables these
/// flat ones replaced and re-recorded for the run record without the round
/// counter and the transfer memo (7 states, 30 tabulated pairs, 584 bytes).
const char *ExpectedLoopSnapshot =
    "0700000004000000000000000400000000000100040000000002010004000000"
    "0002020004000000010201000400000001020200040000000002000000000000"
    "1e00000002000000000000000100000004000000030000000000000001000000"
    "0500000004000000010000000100000003000000050000000100000001000000"
    "0300000002000000020000000100000003000000030000000200000001000000"
    "0300000000000000030000000100000001000000010000000400000001000000"
    "0200000002000000050000000100000003000000030000000500000001000000"
    "0300000002000000060000000100000003000000030000000600000001000000"
    "0300000002000000070000000100000003000000030000000700000001000000"
    "0300000002000000080000000100000003000000030000000800000001000000"
    "0300000002000000090000000100000003000000030000000900000001000000"
    "03000000020000000a0000000100000003000000030000000a00000001000000"
    "03000000020000000b0000000100000003000000030000000b00000001000000"
    "03000000020000000c0000000100000003000000030000000c00000001000000"
    "03000000020000000d000000020000000200000003000000020000000e000000"
    "0100000006000000030000000e0000000100000006000000060000000f000000"
    "0100000006000000060000001000000001000000000000000000000011000000"
    "0100000000000000020000000000000002000000020000000300000001000000"
    "0100000006000000";

TEST(FlatTable, ForwardSnapshotBytesAreFixed) {
  // The encoding sorts the tabulation by key and emits states in id
  // order, so it does not depend on how the tables lay out their slots.
  ir::Program P = parse(LoopSrc);
  EscapeAnalysis A(P);
  ir::CommandLiveness Live(P);
  escape::EscParam Prm;
  Prm.LSites = BitSet(P.numAllocs());
  Prm.LSites.set(P.findAlloc("h1").index());
  Prm.LSites.set(P.findAlloc("h3").index());
  dataflow::ForwardAnalysis<EscapeAnalysis> FA(P, A, Prm, &Live);
  FA.run(A.initialState());
  ByteSink S;
  S.NumLocs = A.numLocs();
  FA.saveTo(S);
  EXPECT_EQ(S.hex(), ExpectedLoopSnapshot);
}

//===----------------------------------------------------------------------===//
// Allocation pins
//===----------------------------------------------------------------------===//

TEST(FlatTableAlloc, FindingAnExistingStateAllocatesNothing) {
  StateInterner<EscState, EscapeAnalysis::StateHash> I;
  std::vector<EscState> States;
  for (uint8_t A = 0; A < 3; ++A)
    for (uint8_t B = 0; B < 3; ++B)
      for (uint8_t C = 0; C < 3; ++C) {
        EscState S = stateOf({A, 0, B, 2, 1, 0, 0, 1, 2, C, 0});
        States.push_back(S);
        I.intern(S);
      }
  uint64_t Before = GlobalAllocs.load();
  size_t Hits = 0;
  for (const EscState &S : States) {
    Hits += I.intern(S) < States.size();
    Hits += I.find(S).has_value();
  }
  EXPECT_EQ(GlobalAllocs.load() - Before, 0u);
  EXPECT_EQ(Hits, 2 * States.size());
}

TEST(FlatTableAlloc, ReusedTripleSetAllocatesNothing) {
  // The witness search clears its cycle stacks between extractions and
  // pushes and pops them in stack order; once grown, that costs nothing.
  dataflow::TripleSet T;
  auto Cycle = [&] {
    for (uint32_t I = 0; I < 200; ++I)
      T.insert(I, I * 7, I % 5);
    for (uint32_t I = 200; I-- > 0;)
      T.erase(I, I * 7, I % 5);
    T.clear();
  };
  Cycle();
  uint64_t Before = GlobalAllocs.load();
  Cycle();
  EXPECT_EQ(GlobalAllocs.load() - Before, 0u);
  EXPECT_EQ(T.size(), 0u);
}

TEST(FlatTableAlloc, StateIdTableHitsAllocateNothing) {
  FlatTable<StateId> Table;
  for (uint64_t Cmd = 0; Cmd < 50; ++Cmd)
    for (uint64_t In = 0; In < 20; ++In)
      Table.insert((Cmd << 32) | In, static_cast<StateId>(Cmd + In));
  uint64_t Before = GlobalAllocs.load();
  uint64_t Sum = 0;
  for (uint64_t Cmd = 0; Cmd < 50; ++Cmd)
    for (uint64_t In = 0; In < 20; ++In) {
      uint64_t K = (Cmd << 32) | In;
      Sum += *Table.find(K);
      auto [Idx, Inserted] = Table.insert(K, 0);
      Sum += Table.at(Idx) + Inserted;
    }
  EXPECT_EQ(GlobalAllocs.load() - Before, 0u);
  EXPECT_EQ(Sum, 2u * (50 * 20 * (49 + 19) / 2));
}

} // namespace
