//===- Metrics.h - Process-wide metrics registry and profiler --*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Performance observability for the TRACER pipeline: a process-wide
/// MetricRegistry of sharded thread-safe counters, gauges, and log-scale
/// histograms, plus a hierarchical span profiler with Chrome-trace export.
///
/// The design constraint, in the spirit of the overhead-conscious
/// instrumentation of parametric monitoring (Rosu & Chen), is that the
/// instrumentation is *always compiled in* but costs a single
/// relaxed-atomic load and branch when disabled:
///
/// \code
///   if (support::metricsEnabled()) {
///     static auto &Runs =
///         support::MetricRegistry::global().counter("optabs_forward_runs");
///     Runs.add(1);
///   }
///   support::ScopedSpan Span("tracer.forward");  // no-op when disabled
/// \endcode
///
/// Counters are sharded across cache lines and bumped with relaxed atomics
/// so pool workers never contend; histograms use log2 buckets (bucket B
/// holds [2^(B-1), 2^B - 1], bucket 0 holds {0}). They count unsigned
/// samples; support/Stats.h keeps the double-valued (min, max, avg)
/// accumulators the paper tables need.
///
/// Spans form a per-thread hierarchy (strict nesting per thread). A span
/// opened on a pool worker while its thread-local stack is empty is
/// *reparented* under the phase currently published by the driving thread
/// (ScopedSpan with Publish = true), so per-task worker spans aggregate
/// under the pipeline phase that scheduled them. The profiler exports
///
///  * an aggregate tree (name path -> call count + total nanoseconds),
///  * a Chrome trace-event JSON (chrome://tracing / Perfetto: one "X"
///    event per span, one track per thread, workers labeled by their
///    ThreadPool index),
///
/// and MetricRegistry::dumpPrometheus writes a Prometheus-style text dump
/// of every metric plus per-span-path totals.
///
/// Registry entries and profiler thread records are created on demand and
/// never removed, so references returned by counter()/gauge()/histogram()
/// stay valid for the process lifetime; resetAll()/reset() zero values in
/// place (tests rely on this).
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_SUPPORT_METRICS_H
#define OPTABS_SUPPORT_METRICS_H

#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace optabs {
namespace support {

//===----------------------------------------------------------------------===//
// Global enable flag
//===----------------------------------------------------------------------===//

namespace detail {
inline std::atomic<bool> MetricsOn{false};
/// Worker index published by ThreadPool for span-track labeling; -1 on
/// threads that are not pool workers (e.g. main).
inline thread_local int WorkerLabel = -1;
} // namespace detail

/// The single relaxed-atomic branch every instrumentation site pays when
/// metrics are disabled.
inline bool metricsEnabled() {
  return detail::MetricsOn.load(std::memory_order_relaxed);
}

inline void setMetricsEnabled(bool On) {
  detail::MetricsOn.store(On, std::memory_order_relaxed);
}

/// Called by ThreadPool workers so the profiler can label their tracks
/// "worker-N". Plain thread-local store: safe to call with metrics off.
inline void setMetricsWorkerLabel(unsigned Index) {
  detail::WorkerLabel = static_cast<int>(Index);
}

//===----------------------------------------------------------------------===//
// Counter / Gauge / LogHistogram
//===----------------------------------------------------------------------===//

namespace detail {
inline constexpr size_t NumShards = 8;

struct alignas(64) PaddedAtomic {
  std::atomic<uint64_t> V{0};
};

/// Stable per-thread shard index (round-robin assignment), so two pool
/// workers bumping the same counter rarely share a cache line.
inline size_t shardIndex() {
  static std::atomic<unsigned> Next{0};
  thread_local size_t Shard =
      Next.fetch_add(1, std::memory_order_relaxed) % NumShards;
  return Shard;
}
} // namespace detail

/// A monotonically increasing counter, sharded across cache lines.
class Counter {
public:
  void add(uint64_t N = 1) {
    Shards[detail::shardIndex()].V.fetch_add(N, std::memory_order_relaxed);
  }

  uint64_t value() const {
    uint64_t Sum = 0;
    for (const detail::PaddedAtomic &S : Shards)
      Sum += S.V.load(std::memory_order_relaxed);
    return Sum;
  }

  void reset() {
    for (detail::PaddedAtomic &S : Shards)
      S.V.store(0, std::memory_order_relaxed);
  }

private:
  detail::PaddedAtomic Shards[detail::NumShards];
};

/// A point-in-time signed value (e.g. resident bytes of a cache).
class Gauge {
public:
  void set(int64_t V) { Value.store(V, std::memory_order_relaxed); }
  void add(int64_t Delta) {
    Value.fetch_add(Delta, std::memory_order_relaxed);
  }
  int64_t value() const { return Value.load(std::memory_order_relaxed); }
  void reset() { set(0); }

private:
  std::atomic<int64_t> Value{0};
};

/// A log2-bucketed histogram of unsigned samples with exact count, sum,
/// min, and max.
class LogHistogram {
public:
  static constexpr unsigned NumBuckets = 65; // bucket 0 = {0}, 1..64 = log2

  /// Bucket index of \p Sample: 0 for 0, otherwise floor(log2(S)) + 1, so
  /// bucket B >= 1 holds [2^(B-1), 2^B - 1].
  static unsigned bucketOf(uint64_t Sample) {
    unsigned B = 0;
    while (Sample) {
      Sample >>= 1;
      ++B;
    }
    return B;
  }

  /// Smallest value of bucket \p B (inclusive).
  static uint64_t bucketLow(unsigned B) {
    return B == 0 ? 0 : uint64_t(1) << (B - 1);
  }

  /// Largest value of bucket \p B (inclusive).
  static uint64_t bucketHigh(unsigned B) {
    if (B == 0)
      return 0;
    if (B >= 64)
      return UINT64_MAX;
    return (uint64_t(1) << B) - 1;
  }

  void record(uint64_t Sample) {
    Buckets[bucketOf(Sample)].V.fetch_add(1, std::memory_order_relaxed);
    Count.fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(Sample, std::memory_order_relaxed);
    atomicMin(Min, Sample);
    atomicMax(Max, Sample);
  }

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  uint64_t min() const {
    uint64_t M = Min.load(std::memory_order_relaxed);
    return M == UINT64_MAX && count() == 0 ? 0 : M;
  }
  uint64_t max() const { return Max.load(std::memory_order_relaxed); }
  double avg() const {
    uint64_t N = count();
    return N ? static_cast<double>(sum()) / static_cast<double>(N) : 0;
  }
  uint64_t bucketCount(unsigned B) const {
    return B < NumBuckets ? Buckets[B].V.load(std::memory_order_relaxed) : 0;
  }

  /// Quantile estimate from the log2 buckets: the upper bound of the
  /// bucket holding the rank-ceil(Q*N) sample, clamped to the exact
  /// [min, max] envelope (so single-valued distributions report the exact
  /// value). Deterministic given the same samples, which is what lets the
  /// serve transcript goldens pin p50/p90/p99 fields byte for byte.
  uint64_t quantile(double Q) const {
    uint64_t N = count();
    if (N == 0)
      return 0;
    if (Q <= 0)
      return min();
    if (Q >= 1)
      return max();
    uint64_t Rank = static_cast<uint64_t>(Q * static_cast<double>(N));
    if (static_cast<double>(Rank) < Q * static_cast<double>(N))
      ++Rank; // ceil
    if (Rank == 0)
      Rank = 1;
    uint64_t Cumulative = 0;
    for (unsigned B = 0; B < NumBuckets; ++B) {
      Cumulative += bucketCount(B);
      if (Cumulative >= Rank) {
        uint64_t V = bucketHigh(B);
        V = std::max(V, min());
        return std::min(V, max());
      }
    }
    return max();
  }

  void reset() {
    for (detail::PaddedAtomic &B : Buckets)
      B.V.store(0, std::memory_order_relaxed);
    Count.store(0, std::memory_order_relaxed);
    Sum.store(0, std::memory_order_relaxed);
    Min.store(UINT64_MAX, std::memory_order_relaxed);
    Max.store(0, std::memory_order_relaxed);
  }

private:
  static void atomicMin(std::atomic<uint64_t> &A, uint64_t V) {
    uint64_t Cur = A.load(std::memory_order_relaxed);
    while (V < Cur &&
           !A.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
    }
  }
  static void atomicMax(std::atomic<uint64_t> &A, uint64_t V) {
    uint64_t Cur = A.load(std::memory_order_relaxed);
    while (V > Cur &&
           !A.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
    }
  }

  detail::PaddedAtomic Buckets[NumBuckets];
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Min{UINT64_MAX};
  std::atomic<uint64_t> Max{0};
};

/// Truncates \p Path and fills it with \p Write; false when the file
/// cannot be opened or written. Every file export (Prometheus dump, Chrome
/// trace, flight-recorder JSONL) goes through it.
bool writeFile(const std::string &Path,
               const std::function<void(std::ostream &)> &Write);

//===----------------------------------------------------------------------===//
// MetricRegistry
//===----------------------------------------------------------------------===//

/// Process-wide named metrics. Lookup takes a mutex, so hot sites should
/// cache the returned reference (e.g. in a function-local static); the
/// metric objects themselves are lock-free. Entries are never removed.
class MetricRegistry {
public:
  static MetricRegistry &global();

  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  LogHistogram &histogram(const std::string &Name);

  /// Prometheus text exposition: counters as `# TYPE c counter`, gauges as
  /// gauge, histograms as cumulative `_bucket{le="..."}` series plus
  /// `_sum`/`_count`/`_min`/`_max`, and (when the profiler has spans) one
  /// `optabs_span_nanos_total{span="a/b"}` / `optabs_span_calls_total`
  /// pair per aggregated span path.
  void dumpPrometheus(std::ostream &OS) const;

  /// Zeroes every metric in place (addresses stay valid).
  void resetAll();

  /// Snapshot of all metric names of one kind, for tests and exporters.
  std::vector<std::string> counterNames() const;

private:
  mutable std::mutex M;
  // std::map: stable iteration order for deterministic dumps; unique_ptr:
  // stable addresses across rehash-free growth.
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<LogHistogram>> Histograms;
};

//===----------------------------------------------------------------------===//
// Profiler and ScopedSpan
//===----------------------------------------------------------------------===//

class FlightRecorder; // support/Trace.h: the service track of a Chrome trace

/// The hierarchical span profiler. One record per thread (created on the
/// thread's first span, kept for the process lifetime); spans nest
/// strictly within a thread, and root-level worker spans reparent under
/// the currently published phase.
class Profiler {
public:
  static Profiler &global();

  /// Nanoseconds since the profiler's epoch (process start / last reset).
  uint64_t nowNs() const { return Epoch.elapsedNanos(); }

  /// Interns a dynamic span name; the returned pointer lives as long as
  /// the process. Span names that are string literals need no interning.
  const char *internName(const std::string &Name);

  /// Aggregate node: call count and total self+children nanoseconds per
  /// hierarchical name path, merged across threads.
  struct AggNode {
    uint64_t Count = 0;
    uint64_t Nanos = 0;
    std::map<std::string, AggNode> Children;

    const AggNode *child(const std::string &Name) const {
      auto It = Children.find(Name);
      return It == Children.end() ? nullptr : &It->second;
    }
  };

  /// Merges every thread's closed spans into one tree (root children are
  /// phases / top-level spans).
  AggNode aggregate() const;

  /// The one Chrome trace exporter: {"traceEvents":[...]}, one complete
  /// ("X") event per closed span, one track (tid) per thread with
  /// thread_name metadata ("main", "worker-N"), timestamps in microseconds
  /// since the profiler epoch. With a \p Service recorder (same timebase;
  /// see support/Trace.h) its events follow on a "service" track:
  /// "fulfilled" events with a D0 end-to-end duration as complete job
  /// spans, every other event as an instant. Loads in chrome://tracing and
  /// Perfetto.
  void writeChromeTrace(std::ostream &OS,
                        const FlightRecorder *Service = nullptr) const;

  /// Total closed spans across all threads (tests).
  size_t spanCount() const;

  /// Spans dropped because a thread hit its event cap.
  uint64_t droppedSpans() const;

  /// Clears all recorded spans and restarts the epoch. Must not be called
  /// while any span is open (open spans would be silently discarded).
  void reset();

private:
  friend class ScopedSpan;

  struct SpanEvent {
    const char *Name = nullptr;
    /// Phase published at open time; only set for thread-root spans
    /// (reparenting hint). Null otherwise.
    const char *PhaseHint = nullptr;
    uint64_t StartNs = 0;
    uint64_t DurNs = UINT64_MAX; ///< UINT64_MAX = still open
    uint32_t Parent = UINT32_MAX; ///< index into the same thread's Events
  };

  struct ThreadRecord {
    mutable std::mutex M;
    std::string Label;
    uint32_t Tid = 0;
    uint64_t Generation = 0; ///< bumped by reset(); stale spans skip close
    std::vector<SpanEvent> Events;
    uint64_t Dropped = 0;
    /// Owner-thread-only: indices of currently open spans.
    std::vector<uint32_t> OpenStack;
  };

  /// Hard cap per thread so a pathological run cannot exhaust memory.
  static constexpr size_t MaxEventsPerThread = 1u << 20;

  ThreadRecord *threadRecord();

  /// The phase under which stack-empty worker spans reparent. Published by
  /// Publish spans on the driving thread; static-storage string required.
  std::atomic<const char *> CurrentPhase{nullptr};

  mutable std::mutex M;
  std::vector<std::unique_ptr<ThreadRecord>> Records;
  std::vector<std::unique_ptr<std::string>> NameArena;
  Timer Epoch;
};

/// RAII span. When metrics are disabled at construction this is a no-op
/// (no allocation, no clock read). With Publish = true the span also
/// becomes the globally published phase for its lifetime, adopting spans
/// opened on pool workers with an empty local stack.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name, bool Publish = false);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Profiler::ThreadRecord *Rec = nullptr;
  uint32_t Idx = 0;
  uint64_t Generation = 0;
  const char *PrevPhase = nullptr;
  bool Published = false;
  bool Active = false;
};

} // namespace support
} // namespace optabs

#endif // OPTABS_SUPPORT_METRICS_H
