//===- Trace.cpp - Flight recorder ring and exporters ---------------------===//

#include "support/Trace.h"

#include "support/Json.h"
#include "support/Metrics.h"

#include <cstdio>
#include <fstream>

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
    Ring.pop_front(); // oldest-first eviction
    ++Dropped;
  }
  Ring.push_back(std::move(E));
}

std::vector<TraceEvent> FlightRecorder::drain() {
  std::lock_guard<std::mutex> L(M);
  std::vector<TraceEvent> Out(Ring.begin(), Ring.end());
  Ring.clear();
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

namespace {
std::string jsonlLine(const TraceEvent &E) {
  std::string S;
  S += "{\"seq\":" + std::to_string(E.Seq);
  S += ",\"kind\":";
  appendJsonString(S, E.Kind);
  S += ",\"trace\":" + std::to_string(E.TraceId);
  S += ",\"span\":" + std::to_string(E.SpanId);
  S += ",\"job\":" + std::to_string(E.Job);
  S += ",\"session\":" + std::to_string(E.Session);
  S += ",\"batch\":" + std::to_string(E.Batch);
  S += ",\"ts_ns\":" + std::to_string(E.TsNs);
  S += ",\"u0\":" + std::to_string(E.U0);
  S += ",\"u1\":" + std::to_string(E.U1);
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6g", E.D0);
  S += ",\"seconds\":";
  S += Buf;
  S += ",\"note\":";
  appendJsonString(S, E.Note);
  S += "}";
  return S;
}
} // namespace

void FlightRecorder::writeJsonl(std::ostream &OS) const {
  for (const TraceEvent &E : snapshot())
    OS << jsonlLine(E) << "\n";
}

bool FlightRecorder::writeJsonlFile(const std::string &Path) const {
  std::ofstream OS(Path, std::ios::trunc);
  if (!OS)
    return false;
  writeJsonl(OS);
  return static_cast<bool>(OS);
}

void FlightRecorder::writeChromeTrace(std::ostream &OS) const {
  OS << "{\"traceEvents\":[";
  bool First = true;
  auto Sep = [&] {
    if (!First)
      OS << ",";
    First = false;
    OS << "\n";
  };
  // The profiler's per-thread tracks first (same timebase: both sides
  // stamp Profiler::global().nowNs()).
  Profiler::global().writeChromeTraceEvents(OS, First);
  // The service track on its own tid, after every profiler thread.
  constexpr unsigned ServiceTid = 9999;
  Sep();
  OS << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":"
     << ServiceTid << ",\"args\":{\"name\":\"service\"}}";
  for (const TraceEvent &E : snapshot()) {
    std::string Name;
    if (E.Kind == std::string("fulfilled") && E.D0 > 0) {
      // A complete job span: end-to-end duration backdated from the
      // fulfillment timestamp.
      Name = "job " + std::to_string(E.Job);
      std::string JName;
      appendJsonString(JName, Name);
      double DurUs = E.D0 * 1e6;
      double EndUs = static_cast<double>(E.TsNs) / 1000.0;
      Sep();
      OS << "{\"ph\":\"X\",\"name\":" << JName << ",\"cat\":\"service\""
         << ",\"pid\":1,\"tid\":" << ServiceTid
         << ",\"ts\":" << (EndUs - DurUs) << ",\"dur\":" << DurUs
         << ",\"args\":{\"session\":" << E.Session << ",\"batch\":"
         << E.Batch << "}}";
      continue;
    }
    std::string KName;
    appendJsonString(KName, E.Kind);
    Sep();
    OS << "{\"ph\":\"i\",\"s\":\"t\",\"name\":" << KName
       << ",\"cat\":\"service\",\"pid\":1,\"tid\":" << ServiceTid
       << ",\"ts\":" << static_cast<double>(E.TsNs) / 1000.0
       << ",\"args\":{\"job\":" << E.Job << ",\"batch\":" << E.Batch
       << "}}";
  }
  OS << "\n]}\n";
}

bool FlightRecorder::writeChromeTraceFile(const std::string &Path) const {
  std::ofstream OS(Path, std::ios::trunc);
  if (!OS)
    return false;
  writeChromeTrace(OS);
  return static_cast<bool>(OS);
}

} // namespace support
} // namespace optabs
