//===- MetricsTest.cpp - Tests for the metrics registry and profiler ----------===//

#include "support/Metrics.h"

#include "escape/Escape.h"
#include "ir/Parser.h"
#include "support/ThreadPool.h"
#include "tracer/QueryDriver.h"

#include "JsonChecker.h"
#include "gtest/gtest.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>

//===----------------------------------------------------------------------===//
// Allocation counting (disabled-mode zero-allocation test)
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

// The nothrow overloads must be replaced alongside the throwing ones:
// libstdc++'s std::get_temporary_buffer (stable_sort) allocates through
// operator new(nothrow), and leaving it to the default (or a sanitizer's
// interceptor) while the deletes below free() is an alloc/dealloc
// mismatch.
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  GlobalAllocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}

void *operator new[](std::size_t Size, const std::nothrow_t &T) noexcept {
  return ::operator new(Size, T);
}

// GCC pairs the (opaque, replaceable) operator-new calls it sees in
// libstdc++ with the free() below and reports a mismatch it cannot see
// through; every overload above allocates with malloc, so the pairing
// is correct by construction.
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
using support::Counter;
using support::Gauge;
using support::LogHistogram;
using support::MetricRegistry;
using support::Profiler;
using support::ScopedSpan;

using json_checker::JsonChecker;

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Enables metrics and resets all global metric state; restores disabled
/// on teardown so the other test binaries' invariants (metrics default
/// off) also hold between tests here.
class MetricsTest : public ::testing::Test {
protected:
  void SetUp() override {
    support::setMetricsEnabled(true);
    MetricRegistry::global().resetAll();
    Profiler::global().reset();
  }
  void TearDown() override { support::setMetricsEnabled(false); }
};

//===----------------------------------------------------------------------===//
// Counter / Gauge / LogHistogram
//===----------------------------------------------------------------------===//

TEST_F(MetricsTest, CounterAccumulatesAndResets) {
  Counter &C = MetricRegistry::global().counter("test_counter");
  EXPECT_EQ(C.value(), 0u);
  C.add();
  C.add(41);
  EXPECT_EQ(C.value(), 42u);
  C.reset();
  EXPECT_EQ(C.value(), 0u);
}

TEST_F(MetricsTest, RegistryReturnsStableReferences) {
  Counter &A = MetricRegistry::global().counter("stable");
  // Force growth with many other entries; A must stay valid.
  for (int I = 0; I < 100; ++I)
    MetricRegistry::global().counter("filler_" + std::to_string(I)).add(1);
  Counter &B = MetricRegistry::global().counter("stable");
  EXPECT_EQ(&A, &B);
  A.add(7);
  EXPECT_EQ(B.value(), 7u);
}

TEST_F(MetricsTest, CounterIsThreadSafeUnderPool) {
  // One counter bumped from every pool worker; the sharded total must be
  // exact. Run at 1 worker (inline sequential) and 8 (oversubscribed on
  // this container, which is exactly what TSan wants to see).
  for (unsigned Workers : {1u, 8u}) {
    Counter &C = MetricRegistry::global().counter(
        "pool_counter_" + std::to_string(Workers));
    support::ThreadPool Pool(Workers);
    constexpr size_t Tasks = 10000;
    Pool.parallelFor(Tasks, [&](size_t, unsigned) { C.add(3); });
    EXPECT_EQ(C.value(), 3 * Tasks);
  }
}

TEST_F(MetricsTest, HistogramIsThreadSafeUnderPool) {
  LogHistogram &H = MetricRegistry::global().histogram("pool_hist");
  support::ThreadPool Pool(8);
  constexpr size_t Tasks = 10000;
  Pool.parallelFor(Tasks, [&](size_t I, unsigned) { H.record(I % 16); });
  EXPECT_EQ(H.count(), Tasks);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 15u);
  uint64_t BucketTotal = 0;
  for (unsigned B = 0; B < LogHistogram::NumBuckets; ++B)
    BucketTotal += H.bucketCount(B);
  EXPECT_EQ(BucketTotal, Tasks);
}

TEST_F(MetricsTest, GaugeTracksDeltas) {
  Gauge &G = MetricRegistry::global().gauge("test_gauge");
  G.set(100);
  G.add(-30);
  EXPECT_EQ(G.value(), 70);
  G.add(-100);
  EXPECT_EQ(G.value(), -30); // gauges may go negative (it's a bug upstream,
                             // but the gauge must not mask it)
  G.reset();
  EXPECT_EQ(G.value(), 0);
}

TEST_F(MetricsTest, HistogramBucketBoundaries) {
  // Bucket 0 = {0}; bucket B >= 1 = [2^(B-1), 2^B - 1].
  EXPECT_EQ(LogHistogram::bucketOf(0), 0u);
  EXPECT_EQ(LogHistogram::bucketOf(1), 1u);
  EXPECT_EQ(LogHistogram::bucketOf(2), 2u);
  EXPECT_EQ(LogHistogram::bucketOf(3), 2u);
  EXPECT_EQ(LogHistogram::bucketOf(4), 3u);
  EXPECT_EQ(LogHistogram::bucketOf(7), 3u);
  EXPECT_EQ(LogHistogram::bucketOf(8), 4u);
  EXPECT_EQ(LogHistogram::bucketOf(UINT64_MAX), 64u);
  for (unsigned B = 0; B < LogHistogram::NumBuckets; ++B) {
    EXPECT_EQ(LogHistogram::bucketOf(LogHistogram::bucketLow(B)), B);
    EXPECT_EQ(LogHistogram::bucketOf(LogHistogram::bucketHigh(B)), B);
  }
  // Boundaries are adjacent: high(B) + 1 == low(B + 1).
  for (unsigned B = 0; B + 1 < LogHistogram::NumBuckets; ++B)
    EXPECT_EQ(LogHistogram::bucketHigh(B) + 1, LogHistogram::bucketLow(B + 1));
}

TEST_F(MetricsTest, HistogramStats) {
  LogHistogram H;
  for (uint64_t V : {0u, 1u, 2u, 3u, 4u, 100u})
    H.record(V);
  EXPECT_EQ(H.count(), 6u);
  EXPECT_EQ(H.sum(), 110u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 100u);
  EXPECT_NEAR(H.avg(), 110.0 / 6.0, 1e-9);
  EXPECT_EQ(H.bucketCount(0), 1u); // {0}
  EXPECT_EQ(H.bucketCount(1), 1u); // {1}
  EXPECT_EQ(H.bucketCount(2), 2u); // {2, 3}
  EXPECT_EQ(H.bucketCount(3), 1u); // {4}
  EXPECT_EQ(H.bucketCount(7), 1u); // {100} in [64, 127]

  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.min(), 0u); // empty histogram reports 0, not UINT64_MAX
  EXPECT_EQ(H.max(), 0u);
}

//===----------------------------------------------------------------------===//
// Spans and the profiler
//===----------------------------------------------------------------------===//

TEST_F(MetricsTest, SpansNestWithinAThread) {
  {
    ScopedSpan Outer("outer");
    { ScopedSpan Inner("inner"); }
    { ScopedSpan Inner("inner"); }
  }
  Profiler::AggNode Root = Profiler::global().aggregate();
  const Profiler::AggNode *Outer = Root.child("outer");
  ASSERT_NE(Outer, nullptr);
  EXPECT_EQ(Outer->Count, 1u);
  const Profiler::AggNode *Inner = Outer->child("inner");
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Inner->Count, 2u);
  // Children are sub-intervals of the parent.
  EXPECT_LE(Inner->Nanos, Outer->Nanos);
  EXPECT_EQ(Profiler::global().spanCount(), 3u);
}

TEST_F(MetricsTest, WorkerSpansReparentUnderPublishedPhase) {
  constexpr size_t Tasks = 64;
  {
    ScopedSpan Phase("phase.forward", /*Publish=*/true);
    support::ThreadPool Pool(4);
    Pool.parallelFor(Tasks, [](size_t, unsigned) {
      ScopedSpan Task("task"); // thread-root on workers 1..3, nested
                               // under the phase span on worker 0
    });
  }
  Profiler::AggNode Root = Profiler::global().aggregate();
  const Profiler::AggNode *Phase = Root.child("phase.forward");
  ASSERT_NE(Phase, nullptr);
  const Profiler::AggNode *Task = Phase->child("task");
  ASSERT_NE(Task, nullptr);
  // Every task span lands under the phase regardless of which thread ran
  // it: worker 0's nest lexically, workers 1..3 reparent via the published
  // phase hint.
  EXPECT_EQ(Task->Count, Tasks);
  EXPECT_EQ(Root.child("task"), nullptr);
}

TEST_F(MetricsTest, DisabledSpansRecordNothing) {
  support::setMetricsEnabled(false);
  {
    ScopedSpan Span("ghost");
    MetricRegistry::global().counter("armed_counter"); // creation is fine
  }
  support::setMetricsEnabled(true);
  EXPECT_EQ(Profiler::global().spanCount(), 0u);
  Profiler::AggNode Root = Profiler::global().aggregate();
  EXPECT_EQ(Root.child("ghost"), nullptr);
}

TEST_F(MetricsTest, DisabledModeAllocatesNothing) {
  support::setMetricsEnabled(false);
  // Warm the thread-local shard index and the registry entry outside the
  // measured window.
  Counter &C = MetricRegistry::global().counter("cold_counter");
  C.add(0);

  uint64_t Before = GlobalAllocs.load(std::memory_order_relaxed);
  for (int I = 0; I < 1000; ++I) {
    ScopedSpan Span("disabled"); // must not touch the profiler
    if (support::metricsEnabled())
      C.add(1); // the guard every instrumentation site uses
  }
  uint64_t After = GlobalAllocs.load(std::memory_order_relaxed);
  EXPECT_EQ(After, Before);
  EXPECT_EQ(C.value(), 0u);
  support::setMetricsEnabled(true);
}

TEST_F(MetricsTest, ChromeTraceIsValidJson) {
  {
    ScopedSpan Phase("phase", /*Publish=*/true);
    support::ThreadPool Pool(2);
    // Each task waits until both have started, so the caller (worker 0)
    // cannot run them both: the helper thread must take one, which
    // guarantees a "worker-1" track even on a single hardware thread.
    std::atomic<int> Started{0};
    Pool.parallelFor(2, [&](size_t, unsigned) {
      ScopedSpan S("work");
      Started.fetch_add(1);
      while (Started.load() < 2)
        std::this_thread::yield();
    });
    // A name needing escaping must not break the JSON.
    ScopedSpan Weird("quote\"back\\slash\nnewline");
  }
  std::ostringstream OS;
  Profiler::global().writeChromeTrace(OS);
  std::string Trace = OS.str();

  EXPECT_TRUE(JsonChecker(Trace).valid()) << Trace;
  // Schema spot checks: the trace-event envelope, complete events, and
  // thread-name metadata for main and at least one pool worker.
  EXPECT_NE(Trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Trace.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(Trace.find("thread_name"), std::string::npos);
  EXPECT_NE(Trace.find("\"main\""), std::string::npos);
  EXPECT_NE(Trace.find("worker-1"), std::string::npos);
  EXPECT_NE(Trace.find("\"phase\""), std::string::npos);
}

TEST_F(MetricsTest, PrometheusDumpFormat) {
  MetricRegistry &Reg = MetricRegistry::global();
  Reg.counter("optabs_test_total").add(5);
  Reg.gauge("optabs_test_bytes").set(1234);
  LogHistogram &H = Reg.histogram("optabs_test_sizes");
  H.record(1);
  H.record(3);
  { ScopedSpan Span("dump.span"); }

  std::ostringstream OS;
  Reg.dumpPrometheus(OS);
  std::string Dump = OS.str();

  EXPECT_NE(Dump.find("# TYPE optabs_test_total counter"), std::string::npos);
  EXPECT_NE(Dump.find("optabs_test_total 5"), std::string::npos);
  EXPECT_NE(Dump.find("# TYPE optabs_test_bytes gauge"), std::string::npos);
  EXPECT_NE(Dump.find("optabs_test_bytes 1234"), std::string::npos);
  // Histogram: cumulative buckets plus the +Inf catch-all and the
  // sum/count/min/max series.
  EXPECT_NE(Dump.find("optabs_test_sizes_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(Dump.find("optabs_test_sizes_bucket{le=\"3\"} 2"),
            std::string::npos);
  EXPECT_NE(Dump.find("optabs_test_sizes_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(Dump.find("optabs_test_sizes_sum 4"), std::string::npos);
  EXPECT_NE(Dump.find("optabs_test_sizes_count 2"), std::string::npos);
  // Span totals appear as labeled counters.
  EXPECT_NE(Dump.find("optabs_span_calls_total{span=\"dump.span\"} 1"),
            std::string::npos);
  EXPECT_NE(Dump.find("optabs_span_nanos_total{span=\"dump.span\"}"),
            std::string::npos);
}

TEST_F(MetricsTest, ResetAllZeroesEverything) {
  MetricRegistry &Reg = MetricRegistry::global();
  Counter &C = Reg.counter("reset_counter");
  Gauge &G = Reg.gauge("reset_gauge");
  LogHistogram &H = Reg.histogram("reset_hist");
  C.add(3);
  G.set(9);
  H.record(7);
  Reg.resetAll();
  EXPECT_EQ(C.value(), 0u);
  EXPECT_EQ(G.value(), 0);
  EXPECT_EQ(H.count(), 0u);
}

//===----------------------------------------------------------------------===//
// End to end: a driver run exports metrics and a Chrome trace
//===----------------------------------------------------------------------===//

TEST_F(MetricsTest, DriverRunExportsMetricsAndTrace) {
  const char *Src = R"(
    proc main {
      u = new h1;
      v = new h2;
      w = new h3;
      v.f = u;
      check(u);
    }
  )";
  ir::Program P;
  std::string Err;
  ASSERT_TRUE(ir::parseProgram(Src, P, Err)) << Err;

  std::string Dir = ::testing::TempDir();
  std::string MetricsPath = Dir + "/optabs_metrics_test.prom";
  std::string TracePath = Dir + "/optabs_metrics_test.trace.json";

  escape::EscapeAnalysis A(P);
  Config Options;
  Options.Observability.MetricsPath = MetricsPath;
  Options.Observability.ProfilePath = TracePath;
  Options.Execution.NumThreads = 2;
  tracer::QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
  auto Outcomes = Driver.run({ir::CheckId(0)});
  ASSERT_EQ(Outcomes.size(), 1u);
  EXPECT_EQ(Outcomes[0].V, tracer::Verdict::Proven);

  // The driver populated the pipeline metrics...
  MetricRegistry &Reg = MetricRegistry::global();
  EXPECT_GT(Reg.counter("optabs_rounds_total").value(), 0u);
  EXPECT_GT(Reg.counter("optabs_forward_runs_total").value(), 0u);
  EXPECT_GT(Reg.counter("optabs_mincostsat_calls_total").value(), 0u);
  EXPECT_GT(Reg.histogram("optabs_forward_fixpoint_rounds").count(), 0u);

  // ...and the per-phase timers: the TRACER stages partition each round,
  // so their sum is positive and bounded by the whole run's wall clock
  // (generous slack for the 1-hardware-thread container).
  const tracer::DriverStats &Stats = Driver.stats();
  EXPECT_GT(Stats.Phases.sum(), 0.0);
  EXPECT_LE(Stats.Phases.sum(), Driver.totalSeconds() * 1.5 + 0.05);

  // The exports landed on disk: a Prometheus dump naming the driver
  // counters and a Chrome trace that is valid JSON with the phase spans.
  std::string Dump = slurp(MetricsPath);
  EXPECT_NE(Dump.find("optabs_rounds_total"), std::string::npos);
  EXPECT_NE(Dump.find("optabs_span_nanos_total{span=\"tracer.run"),
            std::string::npos);

  std::string Trace = slurp(TracePath);
  ASSERT_FALSE(Trace.empty());
  EXPECT_TRUE(JsonChecker(Trace).valid());
  EXPECT_NE(Trace.find("tracer.round"), std::string::npos);
  EXPECT_NE(Trace.find("tracer.forward"), std::string::npos);

  std::remove(MetricsPath.c_str());
  std::remove(TracePath.c_str());
}

} // namespace
