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
/// Every event carries "v" (the schema version, currently 1), "event"
/// and "label"; DESIGN.md §7 has the field table of every event kind, and
/// tests/golden/schema_v1.golden pins one sample line of each.
///
/// uint64 signatures are emitted as "0x..." hex *strings*: JSON numbers
/// lose integer precision above 2^53.
///
/// The driver emits only from its sequential phases (plan and merge), so
/// with a zero backward timeout the trace is bitwise identical for every
/// worker count apart from the "seconds" fields. The "verdict" line has
/// one builder, tracer::verdictEvent (tracer/QueryDriver.h), shared by the
/// driver and the service's verdict replay.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_TRACER_EVENTTRACE_H
#define OPTABS_TRACER_EVENTTRACE_H

#include "support/Json.h"

#include <fstream>
#include <string>
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

/// The JSON builder, from support/Json.h (service/Protocol.h and its
/// clients name it through this header).
using support::JsonObject;

/// Starts an event-trace line with the common "v" (schema version),
/// "event" and "label" fields. EventTraceWriter::event() and the golden
/// test in tests/ProtocolTest.cpp both build every prefix here.
inline JsonObject eventPrefix(const char *Kind, const std::string &Label) {
  JsonObject O;
  O.field("v", EventSchemaVersion);
  O.field("event", Kind);
  O.field("label", Label);
  return O;
}

/// Appends JSONL events to a file. Disabled (all calls no-ops) until
/// open() succeeds; the driver appends, so a harness running several
/// clients can interleave their runs into one trace file (truncation is
/// the CLI's job, once, at startup). A writer belongs to one driver run
/// or one replay loop and is written only from sequential code, so it
/// takes no lock.
class EventTraceWriter {
public:
  /// Opens \p Path in append mode; \p Label is stamped on every event.
  /// Returns false (and stays disabled) when the file cannot be opened.
  bool open(const std::string &Path, std::string Label) {
    TraceLabel = std::move(Label);
    Out.open(Path, std::ios::app);
    return Out.is_open();
  }

  bool enabled() const { return Out.is_open(); }
  const std::string &label() const { return TraceLabel; }

  /// Starts an event object (see eventPrefix).
  JsonObject event(const char *Kind) const {
    return eventPrefix(Kind, TraceLabel);
  }

  /// Writes one completed event as a line and flushes (audit traces must
  /// survive a crashed run - that is when they matter most).
  void write(const JsonObject &O) {
    if (!Out.is_open())
      return;
    Out << O.str() << '\n';
    Out.flush();
  }

private:
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
