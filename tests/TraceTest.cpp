//===- TraceTest.cpp - Flight recorder and quantile-summary tests -------------===//
//
// Unit coverage for the request-tracing substrate: the FlightRecorder's
// bounded ring (oldest-first eviction under pressure, the drain cursor
// that leaves delivered events for the shutdown export), its JSONL and
// merged Chrome-trace exports, the LogHistogram quantile walk feeding the
// Prometheus p50/p90/p99 lines, and the disabled-mode overhead pin - a
// null recorder pointer costs one branch and zero allocations, the same
// contract support/Metrics.h makes for disabled metrics.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Metrics.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <vector>

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
using support::FlightRecorder;
using support::LogHistogram;
using support::TraceEvent;

TraceEvent event(const char *Kind, uint64_t Job) {
  TraceEvent E;
  E.Kind = Kind;
  E.Job = Job;
  E.TraceId = Job;
  E.SpanId = Job;
  return E;
}

TEST(TraceTest, RecordsInOrderWithMonotonicSeq) {
  FlightRecorder R(16);
  R.record(event("submitted", 1));
  R.record(event("batched", 1));
  R.record(event("fulfilled", 1));
  std::vector<TraceEvent> Events = R.snapshot();
  ASSERT_EQ(Events.size(), 3u);
  EXPECT_EQ(Events[0].Seq, 1u);
  EXPECT_EQ(Events[1].Seq, 2u);
  EXPECT_EQ(Events[2].Seq, 3u);
  EXPECT_STREQ(Events[0].Kind, "submitted");
  EXPECT_STREQ(Events[2].Kind, "fulfilled");
  EXPECT_EQ(R.size(), 3u);
  EXPECT_EQ(R.recorded(), 3u);
  EXPECT_EQ(R.dropped(), 0u);
  // Timestamps are stamped at record() from the shared profiler timebase.
  EXPECT_GT(Events[0].TsNs, 0u);
  EXPECT_LE(Events[0].TsNs, Events[1].TsNs);
}

TEST(TraceTest, RingEvictsOldestFirstUnderPressure) {
  FlightRecorder R(4);
  for (uint64_t J = 1; J <= 6; ++J)
    R.record(event("submitted", J));
  EXPECT_EQ(R.size(), 4u);
  EXPECT_EQ(R.dropped(), 2u);
  EXPECT_EQ(R.recorded(), 6u);
  std::vector<TraceEvent> Events = R.drain();
  ASSERT_EQ(Events.size(), 4u);
  // Events 1 and 2 were evicted; 3..6 survive in order.
  for (size_t I = 0; I < 4; ++I) {
    EXPECT_EQ(Events[I].Seq, I + 3);
    EXPECT_EQ(Events[I].Job, I + 3);
  }
  // drain() moves the delivery cursor; the events stay buffered and the
  // lifetime pressure counters are kept.
  EXPECT_EQ(R.size(), 4u);
  EXPECT_EQ(R.dropped(), 2u);
  EXPECT_EQ(R.recorded(), 6u);
  EXPECT_TRUE(R.drain().empty());
}

TEST(TraceTest, DrainIsACursorAndTheExportKeepsDeliveredEvents) {
  FlightRecorder R(16);
  for (uint64_t J = 1; J <= 3; ++J)
    R.record(event("submitted", J));
  ASSERT_EQ(R.drain().size(), 3u);
  R.record(event("submitted", 4));
  R.record(event("submitted", 5));

  // The shutdown export sees every buffered event, delivered or not.
  std::ostringstream OS;
  R.writeJsonl(OS);
  std::string Text = OS.str();
  EXPECT_EQ(std::count(Text.begin(), Text.end(), '\n'), 5);

  // A second drain returns only what was recorded since the first.
  std::vector<TraceEvent> Events = R.drain();
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_EQ(Events[0].Seq, 4u);
  EXPECT_EQ(Events[1].Seq, 5u);
  EXPECT_TRUE(R.drain().empty());
  EXPECT_EQ(R.size(), 5u);
}

TEST(TraceTest, FullRingEvictsDeliveredEventsFirstWithoutCountingThem) {
  FlightRecorder R(4);
  for (uint64_t J = 1; J <= 3; ++J)
    R.record(event("submitted", J));
  ASSERT_EQ(R.drain().size(), 3u);
  // Seqs 5 and 6 push out the delivered 1 and 2: nothing undelivered is
  // lost, so nothing counts as dropped.
  for (uint64_t J = 4; J <= 6; ++J)
    R.record(event("submitted", J));
  EXPECT_EQ(R.size(), 4u);
  EXPECT_EQ(R.dropped(), 0u);
  std::vector<TraceEvent> Events = R.drain();
  ASSERT_EQ(Events.size(), 3u);
  EXPECT_EQ(Events[0].Seq, 4u);

  // 7..10 evict the delivered 3..6; 11 evicts the undelivered 7.
  for (uint64_t J = 7; J <= 11; ++J)
    R.record(event("submitted", J));
  EXPECT_EQ(R.dropped(), 1u);
  Events = R.drain();
  ASSERT_EQ(Events.size(), 4u);
  for (size_t I = 0; I < 4; ++I)
    EXPECT_EQ(Events[I].Seq, I + 8);
}

TEST(TraceTest, ZeroCapacityClampsToOne) {
  FlightRecorder R(0);
  EXPECT_EQ(R.capacity(), 1u);
  R.record(event("submitted", 1));
  R.record(event("submitted", 2));
  std::vector<TraceEvent> Events = R.snapshot();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].Job, 2u);
  EXPECT_EQ(R.dropped(), 1u);
}

TEST(TraceTest, JsonlExportHasStableSchemaAndEscapes) {
  FlightRecorder R(8);
  TraceEvent E = event("rejected", 0);
  E.Session = 7;
  E.Note = "quote \" and\nnewline";
  R.record(E);
  std::ostringstream OS;
  R.writeJsonl(OS);
  std::string Out = OS.str();
  // Every field is always present, so scrub steps and offline tooling can
  // rely on one fixed schema.
  EXPECT_NE(Out.find("\"seq\":1"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"kind\":\"rejected\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"session\":7"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"ts_ns\":"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"seconds\":"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\\\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\\n"), std::string::npos) << Out;
  // One line per event, newline-terminated.
  EXPECT_EQ(Out.back(), '\n');
  EXPECT_EQ(std::count(Out.begin(), Out.end(), '\n'), 1);
}

TEST(TraceTest, ChromeTraceMergesServiceTrack) {
  FlightRecorder R(8);
  TraceEvent Done = event("fulfilled", 3);
  Done.Session = 1;
  Done.Batch = 2;
  Done.D0 = 0.25; // end-to-end seconds: renders as a complete span
  R.record(Done);
  R.record(event("submitted", 4)); // renders as an instant
  std::ostringstream OS;
  support::Profiler::global().writeChromeTrace(OS, &R);
  std::string Out = OS.str();
  EXPECT_EQ(Out.rfind("{\"traceEvents\":[", 0), 0u) << Out;
  EXPECT_NE(Out.find("\"name\":\"service\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"job 3\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"ph\":\"X\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"ph\":\"i\""), std::string::npos) << Out;
}

TEST(TraceTest, ExportBytesArePinned) {
  // Pre-stamped timestamps make both exports fully deterministic, so the
  // exact bytes are pinned here: field order, integer and "%.6g" double
  // formatting, string escapes and the Chrome service-track layout.
  FlightRecorder R(8);
  TraceEvent Sub = event("submitted", 4);
  Sub.Session = 2;
  Sub.TsNs = 1234567891;
  Sub.U0 = 17;
  Sub.Note = "a\"b";
  R.record(Sub);
  TraceEvent Done = event("fulfilled", 3);
  Done.Session = 1;
  Done.Batch = 2;
  Done.TsNs = 2000000000;
  Done.U1 = 5;
  Done.D0 = 0.25;
  R.record(Done);
  std::ostringstream Jsonl;
  R.writeJsonl(Jsonl);
  EXPECT_EQ(Jsonl.str(),
            "{\"seq\":1,\"kind\":\"submitted\",\"trace\":4,\"span\":4,"
            "\"job\":4,\"session\":2,\"batch\":0,\"ts_ns\":1234567891,"
            "\"u0\":17,\"u1\":0,\"seconds\":0,\"note\":\"a\\\"b\"}\n"
            "{\"seq\":2,\"kind\":\"fulfilled\",\"trace\":3,\"span\":3,"
            "\"job\":3,\"session\":1,\"batch\":2,\"ts_ns\":2000000000,"
            "\"u0\":0,\"u1\":5,\"seconds\":0.25,\"note\":\"\"}\n");

  std::ostringstream Chrome;
  support::Profiler::global().writeChromeTrace(Chrome, &R);
  std::string Out = Chrome.str();
  // The profiler tracks come first and depend on the process's history;
  // the service track is pinned from its thread_name record to the end.
  size_t Service = Out.find("{\"ph\":\"M\",\"name\":\"thread_name\","
                            "\"pid\":1,\"tid\":9999");
  ASSERT_NE(Service, std::string::npos) << Out;
  EXPECT_EQ(Out.substr(Service),
            "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":9999,"
            "\"args\":{\"name\":\"service\"}},\n"
            "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"submitted\","
            "\"cat\":\"service\",\"pid\":1,\"tid\":9999,\"ts\":1.23457e+06,"
            "\"args\":{\"job\":4,\"batch\":0}},\n"
            "{\"ph\":\"X\",\"name\":\"job 3\",\"cat\":\"service\",\"pid\":1,"
            "\"tid\":9999,\"ts\":1.75e+06,\"dur\":250000,"
            "\"args\":{\"session\":1,\"batch\":2}}\n]}\n");
}

TEST(TraceTest, HistogramQuantilesWalkTheBuckets) {
  LogHistogram H;
  EXPECT_EQ(H.quantile(0.5), 0u); // empty: 0 by definition
  // A single-valued distribution reports that value at every quantile
  // (what keeps transcript quantiles deterministic).
  for (int I = 0; I < 10; ++I)
    H.record(7);
  EXPECT_EQ(H.quantile(0.5), 7u);
  EXPECT_EQ(H.quantile(0.99), 7u);
  EXPECT_EQ(H.quantile(0.0), 7u);  // clamps to min
  EXPECT_EQ(H.quantile(1.0), 7u);  // clamps to max

  LogHistogram Skewed;
  for (int I = 0; I < 99; ++I)
    Skewed.record(1);
  Skewed.record(1000);
  EXPECT_EQ(Skewed.quantile(0.5), 1u);
  EXPECT_EQ(Skewed.quantile(0.9), 1u);
  // p99 = rank 99 of 100: still in the ones; p100 clamps to the max.
  EXPECT_EQ(Skewed.quantile(0.99), 1u);
  EXPECT_EQ(Skewed.quantile(1.0), 1000u);
}

TEST(TraceTest, PrometheusExposesQuantileSummaries) {
  auto &Reg = support::MetricRegistry::global();
  support::setMetricsEnabled(true);
  Reg.histogram("trace_test_latency").record(16);
  Reg.histogram("trace_test_latency").record(16);
  std::ostringstream OS;
  Reg.dumpPrometheus(OS);
  support::setMetricsEnabled(false);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("trace_test_latency_p50 16"), std::string::npos) << Out;
  EXPECT_NE(Out.find("trace_test_latency_p90 16"), std::string::npos) << Out;
  EXPECT_NE(Out.find("trace_test_latency_p99 16"), std::string::npos) << Out;
}

TEST(TraceTest, DisabledModeAllocatesNothing) {
  // The service's disabled state is a null recorder pointer; every
  // recording site is `if (Recorder) { ... }`. Pin that to zero
  // allocations per check, like MetricsTest does for disabled metrics
  // (volatile so the loop's branch is not folded away).
  FlightRecorder *volatile Rec = nullptr;
  ASSERT_FALSE(support::metricsEnabled());
  uint64_t Before = GlobalAllocs.load(std::memory_order_relaxed);
  uint64_t Sink = 0;
  for (int I = 0; I < 1000; ++I) {
    if (FlightRecorder *R = Rec) {
      TraceEvent E;
      E.Kind = "cache-hit";
      R->record(E);
    }
    if (support::metricsEnabled())
      ++Sink;
  }
  EXPECT_EQ(GlobalAllocs.load(std::memory_order_relaxed), Before);
  EXPECT_EQ(Sink, 0u);
}

} // namespace
