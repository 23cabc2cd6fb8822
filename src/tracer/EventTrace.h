//===- EventTrace.h - JSONL CEGAR event trace ------------------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A machine-readable trace of the CEGAR loop: one JSON object per line
/// (JSONL), appended to Config::Observability.EventTracePath. Downstream
/// tools - refinement debuggers, learned-model trainers in the style of
/// Grigore & Yang's probabilistic refinement guidance - consume the rounds
/// without parsing human-oriented logs.
///
/// Schema (every event carries "v" - the schema version, currently 1 -
/// plus "event" and "label"; see DESIGN.md for the full field tables):
///
///   run_begin   queries, strategy, k, threads
///   round_begin round, unresolved, groups
///   choose      round, members, cost, bits, viable_clauses
///   forward     round, bits, cached, seconds
///   step        round, query, kind, fail_states, traces, trace_lens,
///               max_cubes, learned_sig
///   verdict     round, query, verdict, iterations, cost, param
///   round_end   round, unresolved, cache_hits, cache_misses,
///               cache_evictions, seconds (round wall clock, from the
///               driver's per-round steady-clock timer)
///   invariant_violation  check, where, message
///   budget_exhausted     round, query, resource, site (a resource budget
///               ran out: resource in {steps, wall_clock, memory,
///               cancelled}, site names the charge point, e.g.
///               "forward.visit")
///   degrade     round, rung, action, trigger, resident_bytes,
///               budget_bytes, evicted (memory-pressure ladder escalation;
///               action in {evict_cache, shrink_beam, single_trace})
///   run_end     rounds, forward_runs, backward_runs, solver_calls,
///               violations, budget_exhausted, degradations, seconds
///
/// uint64 signatures are emitted as "0x..." hex *strings*: JSON numbers
/// lose integer precision above 2^53.
///
/// The driver emits only from its sequential phases (plan and merge), so
/// with a zero backward timeout the trace is bitwise identical for every
/// worker count apart from the "seconds" fields. The writer still holds a
/// mutex per line so harness-level callers need not coordinate.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_TRACER_EVENTTRACE_H
#define OPTABS_TRACER_EVENTTRACE_H

#include "support/Json.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

namespace optabs {
namespace tracer {

/// Schema version stamped as `"v":1` on every event-trace line. Bump it
/// when a field is renamed, removed, or changes meaning; adding fields is
/// backward compatible and needs no bump. The golden-file test in
/// tests/ProtocolTest.cpp pins the exact serialized form of every event
/// kind, so accidental renames fail CI instead of silently breaking
/// downstream trace consumers.
inline constexpr int EventSchemaVersion = 1;

/// Builds one JSON object incrementally. Only the types the event trace
/// needs; strings are escaped per RFC 8259 (support/Json.h).
class JsonObject {
public:
  JsonObject &field(const char *Key, const std::string &Value) {
    beginField(Key);
    support::appendJsonString(Buf, Value);
    return *this;
  }
  JsonObject &field(const char *Key, const char *Value) {
    return field(Key, std::string(Value));
  }
  /// One template for every integer width (uint64_t and size_t are the
  /// same type on LP64, so distinct overloads would collide).
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  JsonObject &field(const char *Key, T Value) {
    beginField(Key);
    Buf += std::to_string(Value);
    return *this;
  }
  JsonObject &field(const char *Key, double Value) {
    beginField(Key);
    char Tmp[32];
    std::snprintf(Tmp, sizeof(Tmp), "%.6g", Value);
    Buf += Tmp;
    return *this;
  }
  JsonObject &field(const char *Key, bool Value) {
    beginField(Key);
    Buf += Value ? "true" : "false";
    return *this;
  }
  /// uint64 as a "0x..." string (JSON numbers lose precision past 2^53).
  JsonObject &hexField(const char *Key, uint64_t Value) {
    char Tmp[24];
    std::snprintf(Tmp, sizeof(Tmp), "0x%016llx",
                  static_cast<unsigned long long>(Value));
    return field(Key, Tmp);
  }
  /// An array of unsigned numbers (e.g. per-trace lengths).
  JsonObject &field(const char *Key, const std::vector<size_t> &Values) {
    beginField(Key);
    Buf += '[';
    for (size_t I = 0; I < Values.size(); ++I) {
      if (I > 0)
        Buf += ',';
      Buf += std::to_string(Values[I]);
    }
    Buf += ']';
    return *this;
  }

  std::string str() const { return Buf + "}"; }

private:
  void beginField(const char *Key) {
    Buf += First ? "{" : ",";
    First = false;
    support::appendJsonString(Buf, Key);
    Buf += ':';
  }

  std::string Buf;
  bool First = true;
};

/// Appends JSONL events to a file. Disabled (all calls no-ops) until
/// open() succeeds; the driver appends, so a harness running several
/// clients can interleave their runs into one trace file (truncation is
/// the CLI's job, once, at startup).
class EventTraceWriter {
public:
  EventTraceWriter() = default;

  /// Opens \p Path in append mode; \p Label is stamped on every event.
  /// Returns false (and stays disabled) when the file cannot be opened.
  bool open(const std::string &Path, std::string Label) {
    std::lock_guard<std::mutex> Lock(M);
    TraceLabel = std::move(Label);
    Out.open(Path, std::ios::app);
    return Out.is_open();
  }

  bool enabled() const {
    std::lock_guard<std::mutex> Lock(M);
    return Out.is_open();
  }

  /// Starts an event object with the common "v" (schema version), "event"
  /// and "label" fields.
  JsonObject event(const char *Kind) const {
    JsonObject O;
    O.field("v", EventSchemaVersion);
    O.field("event", Kind);
    std::lock_guard<std::mutex> Lock(M);
    O.field("label", TraceLabel);
    return O;
  }

  /// Writes one completed event as a line and flushes (audit traces must
  /// survive a crashed run - that is when they matter most).
  void write(const JsonObject &O) {
    std::lock_guard<std::mutex> Lock(M);
    if (!Out.is_open())
      return;
    Out << O.str() << '\n';
    Out.flush();
  }

private:
  mutable std::mutex M;
  std::ofstream Out;
  std::string TraceLabel;
};

/// Renders an abstraction bit-vector as a compact "0101..." string.
inline std::string bitsToString(const std::vector<bool> &Bits) {
  std::string S;
  S.reserve(Bits.size());
  for (bool B : Bits)
    S += B ? '1' : '0';
  return S;
}

} // namespace tracer
} // namespace optabs

#endif // OPTABS_TRACER_EVENTTRACE_H
