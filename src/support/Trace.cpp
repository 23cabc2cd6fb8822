//===- Trace.cpp - Flight recorder ring and its event renderer -----------===//

#include "support/Trace.h"

#include "support/Metrics.h"

namespace optabs {
namespace support {

void FlightRecorder::record(TraceEvent E) {
  // Stamp the timestamp outside the lock (nowNs is a clock read); the
  // sequence number inside it so drain order and Seq order agree.
  if (E.TsNs == 0)
    E.TsNs = Profiler::global().nowNs();
  std::lock_guard<std::mutex> L(M);
  E.Seq = NextSeq++;
  if (Ring.size() >= Capacity) {
    if (Ring.front().Seq > Delivered)
      ++Dropped;
    Ring.pop_front(); // oldest-first eviction
  }
  Ring.push_back(std::move(E));
}

std::vector<TraceEvent> FlightRecorder::drain() {
  std::lock_guard<std::mutex> L(M);
  // Ring holds consecutive Seqs, so the undelivered events are a suffix.
  size_t Skip = 0;
  if (!Ring.empty() && Delivered >= Ring.front().Seq)
    Skip = static_cast<size_t>(Delivered - Ring.front().Seq + 1);
  std::vector<TraceEvent> Out(Ring.begin() + Skip, Ring.end());
  Delivered = NextSeq - 1;
  return Out;
}

std::vector<TraceEvent> FlightRecorder::snapshot() const {
  std::lock_guard<std::mutex> L(M);
  return std::vector<TraceEvent>(Ring.begin(), Ring.end());
}

size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> L(M);
  return Ring.size();
}

uint64_t FlightRecorder::dropped() const {
  std::lock_guard<std::mutex> L(M);
  return Dropped;
}

uint64_t FlightRecorder::recorded() const {
  std::lock_guard<std::mutex> L(M);
  return NextSeq - 1;
}

JsonObject &appendTraceEvent(JsonObject &O, const TraceEvent &E) {
  return O.field("seq", E.Seq)
      .field("kind", E.Kind)
      .field("trace", E.TraceId)
      .field("span", E.SpanId)
      .field("job", E.Job)
      .field("session", E.Session)
      .field("batch", E.Batch)
      .field("ts_ns", E.TsNs)
      .field("u0", E.U0)
      .field("u1", E.U1)
      .field("seconds", E.D0)
      .field("note", E.Note);
}

void FlightRecorder::writeJsonl(std::ostream &OS) const {
  for (const TraceEvent &E : snapshot()) {
    JsonObject O;
    OS << appendTraceEvent(O, E).str() << "\n";
  }
}

} // namespace support
} // namespace optabs
