//===- WpTableTest.cpp - The shared weakest-precondition table ------------===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// meta::WpTable is filled concurrently by every backward worker over one
// analysis. These tests fill one table from eight threads at once, each
// walking the same keys in its own order, and check every entry against a
// table filled sequentially; they also pin the byte accounting and the
// release path. TSan runs them in CI, so an unpublished word or chunk
// fails there.
//
//===----------------------------------------------------------------------===//

#include "meta/WpTable.h"

#include "escape/Escape.h"
#include "support/Prng.h"
#include "synth/Generator.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

namespace {

using namespace optabs;
using escape::AbsVal;
using escape::EscapeAnalysis;
using formula::AtomId;
using formula::Lit;

using Key = std::pair<uint32_t, Lit>;

/// Every command of \p P against a sample of its escape atoms, both
/// polarities.
std::vector<Key> sampleKeys(const ir::Program &P, unsigned NumAtoms) {
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
  Prng Rng(0x5eed);
  for (size_t I = Atoms.size(); I > 1; --I)
    std::swap(Atoms[I - 1], Atoms[Rng.nextBelow(I)]);
  Atoms.resize(std::min<size_t>(Atoms.size(), NumAtoms));
  std::vector<Key> Keys;
  for (uint32_t C = 0; C < P.numCommands(); ++C)
    for (AtomId A : Atoms)
      for (Lit L : {Lit::pos(A), Lit::neg(A)})
        Keys.push_back({C, L});
  return Keys;
}

const formula::Dnf &lookup(meta::WpTable::Reader &T,
                           const EscapeAnalysis &A, const ir::Program &P,
                           Key K) {
  return T.lookup(K.first, K.second, [&] {
    formula::Formula Wp =
        A.wpAtom(P.command(ir::CommandId(K.first)), K.second.atom());
    if (K.second.isNeg())
      Wp = formula::Formula::negate(Wp);
    return Wp.toDnf();
  });
}

std::map<std::pair<uint32_t, uint32_t>, formula::Dnf>
contents(const meta::WpTable &T) {
  std::map<std::pair<uint32_t, uint32_t>, formula::Dnf> Out;
  T.forEach([&](uint32_t Cmd, Lit L, const formula::Dnf &Wp) {
    EXPECT_TRUE(Out.emplace(std::make_pair(Cmd, L.raw()), Wp).second);
  });
  return Out;
}

TEST(WpTableFill, EightThreadsMatchTheSequentialFill) {
  synth::Benchmark B = synth::generate(synth::paperSuite()[0]);
  EscapeAnalysis A(B.P);
  std::vector<Key> Keys = sampleKeys(B.P, 24);
  ASSERT_GT(Keys.size(), 10000u);

  meta::WpTable Seq(B.P.numCommands());
  meta::WpTable::Reader SeqReader(Seq);
  for (Key K : Keys)
    lookup(SeqReader, A, B.P, K);

  // No size hint, so the directory grows while the threads fill it.
  meta::WpTable Shared;
  constexpr unsigned NumThreads = 8;
  std::vector<size_t> Mismatches(NumThreads, 0);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      meta::WpTable::Reader Reader(Shared);
      std::vector<Key> Order = Keys;
      Prng Rng(T + 1);
      for (size_t I = Order.size(); I > 1; --I)
        std::swap(Order[I - 1], Order[Rng.nextBelow(I)]);
      // Each thread walks the keys twice, so every second pass reads
      // entries other threads may still be inserting next to.
      for (int Pass = 0; Pass < 2; ++Pass)
        for (Key K : Order) {
          const formula::Dnf &Got = lookup(Reader, A, B.P, K);
          const formula::Dnf *Want = SeqReader.find(K.first, K.second);
          if (!Want || !(Got == *Want))
            ++Mismatches[T];
        }
    });
  for (std::thread &T : Threads)
    T.join();
  for (unsigned T = 0; T < NumThreads; ++T)
    EXPECT_EQ(Mismatches[T], 0u) << "thread " << T;

  auto Got = contents(Shared);
  auto Want = contents(Seq);
  EXPECT_EQ(Got.size(), Keys.size());
  EXPECT_TRUE(Got == Want);
}

TEST(WpTableFill, IdentitiesShareOneSingletonPerLiteral) {
  synth::Benchmark B = synth::generate(synth::paperSuite()[0]);
  EscapeAnalysis A(B.P);
  meta::WpTable Table(B.P.numCommands());
  meta::WpTable::Reader T(Table);
  // A parameter atom is unchanged by every command: one identity per
  // command, all pointing at the same stored {L}.
  Lit L = Lit::pos(EscapeAnalysis::atomSite(ir::AllocId(0), AbsVal::L));
  const formula::Dnf *First = nullptr;
  for (uint32_t C = 0; C < B.P.numCommands(); ++C) {
    const formula::Dnf &Wp = lookup(T, A, B.P, {C, L});
    ASSERT_TRUE(Wp == formula::Dnf::singleLit(L));
    if (!First)
      First = &Wp;
    EXPECT_EQ(&Wp, First);
  }
}

TEST(WpTableFill, ClearReleasesEveryByte) {
  synth::Benchmark B = synth::generate(synth::paperSuite()[0]);
  EscapeAnalysis A(B.P);
  std::vector<Key> Keys = sampleKeys(B.P, 8);
  int64_t Base = meta::WpTable::totalBytes();
  {
    meta::WpTable T;
    EXPECT_EQ(T.bytes(), 0u);
    size_t WithReader = 0;
    {
      meta::WpTable::Reader R(T);
      for (Key K : Keys)
        lookup(R, A, B.P, K);
      WithReader = T.bytes();
    }
    // The blocks that growing inserts replaced go with the last reader.
    EXPECT_GT(T.bytes(), 0u);
    EXPECT_LT(T.bytes(), WithReader);
    EXPECT_EQ(meta::WpTable::totalBytes(), Base + int64_t(T.bytes()));
    size_t Filled = contents(T).size();
    T.clear();
    EXPECT_EQ(T.bytes(), 0u);
    EXPECT_EQ(meta::WpTable::totalBytes(), Base);
    EXPECT_TRUE(contents(T).empty());
    // A cleared table fills again, to the same contents.
    meta::WpTable::Reader R(T);
    for (Key K : Keys)
      lookup(R, A, B.P, K);
    EXPECT_EQ(contents(T).size(), Filled);
  }
  EXPECT_EQ(meta::WpTable::totalBytes(), Base); // the destructor releases
}

} // namespace
