//===- Trace.h - Request-scoped tracing and the flight recorder -*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Request-scoped tracing for the analysis service: a Dapper-style
/// TraceContext minted at every ingress and threaded through the
/// scheduler, batch formation, driver runs, and cache lookups, plus a
/// bounded in-memory FlightRecorder that the `trace` protocol op reads
/// through a delivery cursor and the service exports as JSONL or a Chrome
/// trace on shutdown.
///
/// The overhead contract mirrors support/Metrics.h: instrumentation is
/// always compiled in, and a disabled site costs one ordinary load and a
/// branch - every recording site is gated on a `FlightRecorder *` being
/// non-null, so no TraceEvent is even constructed when tracing is off:
///
/// \code
///   if (FlightRecorder *R = traceSink())
///     R->record({.Kind = "cache-hit", ...});
/// \endcode
///
/// Tracing never feeds back into the analysis: events go only to the
/// recorder (never the CEGAR event trace), and every recording site runs
/// either on the scheduler thread or in the driver's sequential plan
/// phase, so the event sequence - excluding timestamps - is identical at
/// any worker count, and verdicts are bitwise identical with tracing on
/// or off.
///
/// The recorder is a fixed-capacity ring: under pressure the oldest
/// events are evicted first, and those no drain() had returned yet are
/// counted in dropped(). Timestamps come
/// from Profiler::global().nowNs(), so service events and profiler spans
/// share one timebase and Profiler::writeChromeTrace() can merge the
/// service track with the per-worker profiler tracks into a single trace
/// file.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_SUPPORT_TRACE_H
#define OPTABS_SUPPORT_TRACE_H

#include "support/Json.h"

#include <cstdint>
#include <deque>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace optabs {
namespace support {

/// Propagated request identity: minted at an ingress (protocol line or
/// Session::submit), carried through every stage a request touches. A
/// zero TraceId means "no caller-supplied context"; the service then uses
/// the job id as the trace id so every job always has a usable identity.
struct TraceContext {
  uint64_t TraceId = 0;
  uint64_t SpanId = 0;
};

/// One lifecycle event. Kind is a static-duration string ("submitted",
/// "rejected", "batched", "replayed", "cache-hit", "cache-miss",
/// "cache-shared-hit", "cache-stale-miss", "phase", "run", "fulfilled",
/// "slow-query"); U0/U1/D0 carry kind-specific payload (documented at the
/// recording sites), Note carries kind-specific text (rejection reason,
/// phase name, clean-footprint procedures, terminal status).
struct TraceEvent {
  uint64_t Seq = 0;        ///< recorder-assigned, monotonically increasing
  const char *Kind = "";   ///< static string; never owned
  uint64_t TraceId = 0;
  uint64_t SpanId = 0;
  uint64_t Job = 0;        ///< 0 when not job-scoped (e.g. pre-admission)
  uint64_t Session = 0;
  uint64_t Batch = 0;      ///< 0 before batch formation
  uint64_t TsNs = 0;       ///< Profiler timebase; stamped by record()
  uint64_t U0 = 0;
  uint64_t U1 = 0;
  double D0 = 0;           ///< kind-specific seconds payload
  std::string Note;
};

/// The one rendering of a TraceEvent, shared by the JSONL export and the
/// `trace` protocol op: appends its twelve fields to \p O, all always
/// present (stable schema for the scrub step and offline tooling).
JsonObject &appendTraceEvent(JsonObject &O, const TraceEvent &E);

/// A bounded, thread-safe ring of TraceEvents. All mutation takes one
/// mutex - recording happens on the submit path and the scheduler thread,
/// both far from any inner loop. Oldest events are evicted first when the
/// ring is full. A delivery cursor splits the ring: events a drain() has
/// returned stay buffered for the shutdown export, and since they are
/// always the oldest, eviction takes them first. dropped() counts only
/// evictions of events no drain() had returned.
class FlightRecorder {
public:
  explicit FlightRecorder(size_t Capacity = 4096)
      : Capacity(Capacity == 0 ? 1 : Capacity) {}

  size_t capacity() const { return Capacity; }

  /// Stamps Seq (and TsNs, unless the caller pre-stamped it to share one
  /// reading with its own bookkeeping) and appends, evicting oldest-first
  /// when full.
  void record(TraceEvent E);

  /// Returns the events recorded since the previous drain(), oldest
  /// first, and moves the delivery cursor past them. They stay in the
  /// ring. The dropped counter is NOT reset: it reports lifetime pressure.
  std::vector<TraceEvent> drain();

  /// Copies every buffered event, delivered or not (shutdown export).
  std::vector<TraceEvent> snapshot() const;

  size_t size() const;
  uint64_t dropped() const;  ///< undelivered events evicted, lifetime
  uint64_t recorded() const; ///< events ever recorded, lifetime

  /// One appendTraceEvent object per buffered event, one per line.
  void writeJsonl(std::ostream &OS) const;

private:
  mutable std::mutex M;
  size_t Capacity;
  std::deque<TraceEvent> Ring;
  uint64_t NextSeq = 1;
  uint64_t Delivered = 0; ///< Seq of the last event drain() returned
  uint64_t Dropped = 0;
};

} // namespace support
} // namespace optabs

#endif // OPTABS_SUPPORT_TRACE_H
