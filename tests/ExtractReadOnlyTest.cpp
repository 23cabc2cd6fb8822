//===- ExtractReadOnlyTest.cpp - Witness extraction leaves runs alone -----===//
//
// Forward runs are cached, snapshotted and shared by every query of an
// abstraction, and the driver reads a witness's states from the run while
// other witnesses are being extracted. So extraction must only read: it
// may neither intern a state nor fill a cell. The first test pins that
// through the run's serialised form, which holds every interned state and
// every tabulated cell; the second runs extractions from two
// threads on one run (a data race there fails under ThreadSanitizer) and
// checks they agree with a single-threaded pass.
//
//===----------------------------------------------------------------------===//

#include "WitnessFixture.h"

#include <thread>

namespace {

using namespace optabs;
using namespace witness_fixture;

/// Records every saveTo() call, states by value.
template <typename State> struct RecordingSink {
  std::vector<std::pair<char, uint64_t>> Words;
  std::vector<State> States;
  void u32(uint32_t V) { Words.push_back({'w', V}); }
  void u64(uint64_t V) { Words.push_back({'d', V}); }
  void state(const State &S) { States.push_back(S); }
  bool operator==(const RecordingSink &O) const {
    return Words == O.Words && States == O.States;
  }
};

/// Every witness (three per state, so rotations run too) for every
/// failing state of \p R, through one scratch.
template <typename Analysis>
std::vector<typename ForwardRun<Analysis>::Forward::Witness>
extractAll(const ForwardRun<Analysis> &R,
           const std::vector<ir::CheckId> &Checks) {
  using Forward = typename ForwardRun<Analysis>::Forward;
  typename Forward::Scratch W;
  std::vector<typename Forward::Witness> All;
  for (auto [Check, Target] : R.failing(Checks))
    for (auto &X : R.F.extractWitnesses(Check, Target, 3, W))
      All.push_back(std::move(X));
  return All;
}

TEST(ExtractReadOnly, SavedRunIsUnchangedByExtraction) {
  for (const synth::BenchConfig &C : configs()) {
    synth::Benchmark B = synth::generate(C);
    ir::CommandLiveness Live(B.P);
    ir::CheckReach Reach(B.P);
    forEachClient(B, [&](const std::string &Client, const auto &A,
                         const std::vector<ir::CheckId> &Checks) {
      using Analysis = std::decay_t<decltype(A)>;
      for (const auto &Prm : params(A)) {
        SCOPED_TRACE(C.Name + " " + Client);
        ForwardRun<Analysis> R(B.P, A, Prm, Live, &Reach);
        RecordingSink<typename Analysis::State> Before, After;
        R.F.saveTo(Before);
        size_t Extracted = extractAll(R, Checks).size();
        R.F.saveTo(After);
        EXPECT_GT(Extracted, 0u);
        EXPECT_TRUE(After == Before)
            << "extraction changed the run: " << Before.States.size()
            << " -> " << After.States.size() << " states, "
            << Before.Words.size() << " -> " << After.Words.size()
            << " words";
      }
    });
  }
}

TEST(ExtractReadOnly, ConcurrentExtractionsAgree) {
  synth::Benchmark B = synth::generate(configs()[0]);
  ir::CommandLiveness Live(B.P);
  ir::CheckReach Reach(B.P);
  forEachClient(B, [&](const std::string &Client, const auto &A,
                       const std::vector<ir::CheckId> &Checks) {
    using Analysis = std::decay_t<decltype(A)>;
    using Witnesses =
        std::vector<typename ForwardRun<Analysis>::Forward::Witness>;
    SCOPED_TRACE(Client);
    ForwardRun<Analysis> R(B.P, A, A.paramFromBits({}), Live, &Reach);
    Witnesses Alone = extractAll(R, Checks);
    Witnesses First, Second;
    std::thread T1([&] { First = extractAll(R, Checks); });
    std::thread T2([&] { Second = extractAll(R, Checks); });
    T1.join();
    T2.join();
    ASSERT_EQ(First.size(), Alone.size());
    ASSERT_EQ(Second.size(), Alone.size());
    for (size_t I = 0; I < Alone.size(); ++I) {
      EXPECT_EQ(First[I].T, Alone[I].T);
      EXPECT_EQ(First[I].States, Alone[I].States);
      EXPECT_EQ(Second[I].T, Alone[I].T);
      EXPECT_EQ(Second[I].States, Alone[I].States);
    }
  });
}

} // namespace
