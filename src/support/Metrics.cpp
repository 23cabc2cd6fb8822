//===- Metrics.cpp - Registry/profiler singletons and exporters -----------===//

#include "support/Metrics.h"

#include "support/Json.h"
#include "support/Trace.h"

#include <fstream>

namespace optabs {
namespace support {

//===----------------------------------------------------------------------===//
// MetricRegistry
//===----------------------------------------------------------------------===//

MetricRegistry &MetricRegistry::global() {
  static MetricRegistry R;
  return R;
}

Counter &MetricRegistry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> L(M);
  std::unique_ptr<Counter> &Slot = Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Gauge &MetricRegistry::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> L(M);
  std::unique_ptr<Gauge> &Slot = Gauges[Name];
  if (!Slot)
    Slot = std::make_unique<Gauge>();
  return *Slot;
}

LogHistogram &MetricRegistry::histogram(const std::string &Name) {
  std::lock_guard<std::mutex> L(M);
  std::unique_ptr<LogHistogram> &Slot = Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<LogHistogram>();
  return *Slot;
}

void MetricRegistry::resetAll() {
  std::lock_guard<std::mutex> L(M);
  for (auto &KV : Counters)
    KV.second->reset();
  for (auto &KV : Gauges)
    KV.second->reset();
  for (auto &KV : Histograms)
    KV.second->reset();
}

std::vector<std::string> MetricRegistry::counterNames() const {
  std::lock_guard<std::mutex> L(M);
  std::vector<std::string> Names;
  Names.reserve(Counters.size());
  for (const auto &KV : Counters)
    Names.push_back(KV.first);
  return Names;
}

namespace {
/// Span paths flattened for the Prometheus dump: "a/b/c" -> node.
void flattenSpans(const Profiler::AggNode &Node, const std::string &Prefix,
                  std::ostream &OS) {
  for (const auto &KV : Node.Children) {
    std::string Path = Prefix.empty() ? KV.first : Prefix + "/" + KV.first;
    OS << "optabs_span_nanos_total{span=\"" << Path
       << "\"} " << KV.second.Nanos << "\n";
    OS << "optabs_span_calls_total{span=\"" << Path
       << "\"} " << KV.second.Count << "\n";
    flattenSpans(KV.second, Path, OS);
  }
}
} // namespace

void MetricRegistry::dumpPrometheus(std::ostream &OS) const {
  std::lock_guard<std::mutex> L(M);
  for (const auto &KV : Counters) {
    OS << "# TYPE " << KV.first << " counter\n";
    OS << KV.first << " " << KV.second->value() << "\n";
  }
  for (const auto &KV : Gauges) {
    OS << "# TYPE " << KV.first << " gauge\n";
    OS << KV.first << " " << KV.second->value() << "\n";
  }
  for (const auto &KV : Histograms) {
    const LogHistogram &H = *KV.second;
    OS << "# TYPE " << KV.first << " histogram\n";
    uint64_t Cumulative = 0;
    unsigned LastNonEmpty = 0;
    for (unsigned B = 0; B < LogHistogram::NumBuckets; ++B)
      if (H.bucketCount(B))
        LastNonEmpty = B;
    for (unsigned B = 0; B <= LastNonEmpty; ++B) {
      Cumulative += H.bucketCount(B);
      OS << KV.first << "_bucket{le=\"" << H.bucketHigh(B) << "\"} "
         << Cumulative << "\n";
    }
    OS << KV.first << "_bucket{le=\"+Inf\"} " << H.count() << "\n";
    OS << KV.first << "_sum " << H.sum() << "\n";
    OS << KV.first << "_count " << H.count() << "\n";
    OS << KV.first << "_min " << H.min() << "\n";
    OS << KV.first << "_max " << H.max() << "\n";
    // Quantile summaries so SLO histograms are consumable without a
    // scraper-side histogram_quantile (log2-bucket estimates, clamped to
    // the exact min/max envelope - see LogHistogram::quantile).
    OS << KV.first << "_p50 " << H.quantile(0.50) << "\n";
    OS << KV.first << "_p90 " << H.quantile(0.90) << "\n";
    OS << KV.first << "_p99 " << H.quantile(0.99) << "\n";
  }
  // Per-span totals from the profiler (read outside our mutex domain; the
  // profiler takes its own locks).
  flattenSpans(Profiler::global().aggregate(), "", OS);
}

bool writeFile(const std::string &Path,
               const std::function<void(std::ostream &)> &Write) {
  std::ofstream OS(Path, std::ios::trunc);
  if (!OS)
    return false;
  Write(OS);
  return static_cast<bool>(OS);
}

//===----------------------------------------------------------------------===//
// Profiler
//===----------------------------------------------------------------------===//

Profiler &Profiler::global() {
  static Profiler P;
  return P;
}

const char *Profiler::internName(const std::string &Name) {
  std::lock_guard<std::mutex> L(M);
  for (const std::unique_ptr<std::string> &S : NameArena)
    if (*S == Name)
      return S->c_str();
  NameArena.push_back(std::make_unique<std::string>(Name));
  return NameArena.back()->c_str();
}

Profiler::ThreadRecord *Profiler::threadRecord() {
  // One record per OS thread, created on first use and owned by the
  // profiler forever (records outlive their threads so export works after
  // a pool is destroyed).
  thread_local ThreadRecord *Rec = nullptr;
  if (Rec)
    return Rec;
  std::lock_guard<std::mutex> L(M);
  auto Owned = std::make_unique<ThreadRecord>();
  Rec = Owned.get();
  Rec->Tid = static_cast<uint32_t>(Records.size());
  int W = detail::WorkerLabel;
  Rec->Label = W < 0 ? (Records.empty() ? std::string("main")
                                        : "thread-" + std::to_string(Rec->Tid))
                     : "worker-" + std::to_string(W);
  Records.push_back(std::move(Owned));
  return Rec;
}

size_t Profiler::spanCount() const {
  std::lock_guard<std::mutex> L(M);
  size_t N = 0;
  for (const std::unique_ptr<ThreadRecord> &R : Records) {
    std::lock_guard<std::mutex> RL(R->M);
    for (const SpanEvent &E : R->Events)
      if (E.DurNs != UINT64_MAX)
        ++N;
  }
  return N;
}

uint64_t Profiler::droppedSpans() const {
  std::lock_guard<std::mutex> L(M);
  uint64_t N = 0;
  for (const std::unique_ptr<ThreadRecord> &R : Records) {
    std::lock_guard<std::mutex> RL(R->M);
    N += R->Dropped;
  }
  return N;
}

void Profiler::reset() {
  std::lock_guard<std::mutex> L(M);
  for (const std::unique_ptr<ThreadRecord> &R : Records) {
    std::lock_guard<std::mutex> RL(R->M);
    R->Events.clear();
    R->OpenStack.clear();
    R->Dropped = 0;
    ++R->Generation;
  }
  CurrentPhase.store(nullptr, std::memory_order_relaxed);
  Epoch.reset();
}

Profiler::AggNode Profiler::aggregate() const {
  std::lock_guard<std::mutex> L(M);
  AggNode Root;
  for (const std::unique_ptr<ThreadRecord> &R : Records) {
    std::lock_guard<std::mutex> RL(R->M);
    // Per-event path cache: Paths[I] = the AggNode for event I, so
    // children resolve their parent in O(1).
    std::vector<AggNode *> Paths(R->Events.size(), nullptr);
    for (size_t I = 0; I < R->Events.size(); ++I) {
      const SpanEvent &E = R->Events[I];
      if (E.DurNs == UINT64_MAX)
        continue; // still open: not aggregated
      AggNode *ParentNode = &Root;
      if (E.Parent != UINT32_MAX && Paths[E.Parent])
        ParentNode = Paths[E.Parent];
      else if (E.PhaseHint)
        ParentNode = &Root.Children[E.PhaseHint]; // cross-thread reparent
      AggNode &Node = ParentNode->Children[E.Name];
      Node.Count += 1;
      Node.Nanos += E.DurNs;
      Paths[I] = &Node;
    }
  }
  return Root;
}

void Profiler::writeChromeTrace(std::ostream &OS,
                                const FlightRecorder *Service) const {
  OS << "{\"traceEvents\":[";
  const char *Sep = "\n";
  auto Emit = [&](const JsonObject &O) {
    OS << Sep << O.str();
    Sep = ",\n";
  };
  auto ThreadName = [](uint32_t Tid, const std::string &Label) {
    return JsonObject()
        .field("ph", "M")
        .field("name", "thread_name")
        .field("pid", 1)
        .field("tid", Tid)
        .field("args", JsonObject().field("name", Label));
  };
  {
    std::lock_guard<std::mutex> L(M);
    for (const std::unique_ptr<ThreadRecord> &R : Records) {
      std::lock_guard<std::mutex> RL(R->M);
      Emit(ThreadName(R->Tid, R->Label));
      for (const SpanEvent &E : R->Events) {
        if (E.DurNs == UINT64_MAX)
          continue;
        // Chrome expects microsecond doubles; keep sub-microsecond
        // precision so nested spans do not collapse to zero width.
        Emit(JsonObject()
                 .field("ph", "X")
                 .field("name", E.Name)
                 .field("cat", "optabs")
                 .field("pid", 1)
                 .field("tid", R->Tid)
                 .field("ts", static_cast<double>(E.StartNs) / 1000.0)
                 .field("dur", static_cast<double>(E.DurNs) / 1000.0));
      }
    }
  }
  if (Service) {
    // The service track on its own tid, after every profiler thread.
    constexpr uint32_t ServiceTid = 9999;
    Emit(ThreadName(ServiceTid, "service"));
    for (const TraceEvent &E : Service->snapshot()) {
      double TsUs = static_cast<double>(E.TsNs) / 1000.0;
      JsonObject O;
      if (E.Kind == std::string("fulfilled") && E.D0 > 0) {
        // A complete job span: end-to-end duration backdated from the
        // fulfillment timestamp.
        double DurUs = E.D0 * 1e6;
        O.field("ph", "X")
            .field("name", "job " + std::to_string(E.Job))
            .field("cat", "service")
            .field("pid", 1)
            .field("tid", ServiceTid)
            .field("ts", TsUs - DurUs)
            .field("dur", DurUs)
            .field("args", JsonObject()
                               .field("session", E.Session)
                               .field("batch", E.Batch));
      } else {
        O.field("ph", "i")
            .field("s", "t")
            .field("name", E.Kind)
            .field("cat", "service")
            .field("pid", 1)
            .field("tid", ServiceTid)
            .field("ts", TsUs)
            .field("args",
                   JsonObject().field("job", E.Job).field("batch", E.Batch));
      }
      Emit(O);
    }
  }
  OS << "\n]}\n";
}

//===----------------------------------------------------------------------===//
// ScopedSpan
//===----------------------------------------------------------------------===//

ScopedSpan::ScopedSpan(const char *Name, bool Publish) {
  if (!metricsEnabled())
    return; // the disabled-mode fast path: one relaxed load, no allocation
  Profiler &P = Profiler::global();
  Rec = P.threadRecord();
  std::lock_guard<std::mutex> L(Rec->M);
  if (Rec->Events.size() >= Profiler::MaxEventsPerThread) {
    ++Rec->Dropped;
    Rec = nullptr;
    return;
  }
  Profiler::SpanEvent E;
  E.Name = Name;
  E.StartNs = P.nowNs();
  if (!Rec->OpenStack.empty()) {
    E.Parent = Rec->OpenStack.back();
  } else {
    // Thread-root span: adopt the globally published phase (if any) so
    // pool-worker tasks aggregate under the driving phase.
    const char *Phase = P.CurrentPhase.load(std::memory_order_relaxed);
    if (Phase && Phase != Name)
      E.PhaseHint = Phase;
  }
  Idx = static_cast<uint32_t>(Rec->Events.size());
  Generation = Rec->Generation;
  Rec->Events.push_back(E);
  Rec->OpenStack.push_back(Idx);
  Active = true;
  if (Publish) {
    PrevPhase = P.CurrentPhase.exchange(Name, std::memory_order_relaxed);
    Published = true;
  }
}

ScopedSpan::~ScopedSpan() {
  if (!Active)
    return;
  Profiler &P = Profiler::global();
  if (Published)
    P.CurrentPhase.store(PrevPhase, std::memory_order_relaxed);
  std::lock_guard<std::mutex> L(Rec->M);
  if (Rec->Generation != Generation)
    return; // profiler was reset while we were open; nothing to close
  Profiler::SpanEvent &E = Rec->Events[Idx];
  E.DurNs = P.nowNs() - E.StartNs;
  if (!Rec->OpenStack.empty() && Rec->OpenStack.back() == Idx)
    Rec->OpenStack.pop_back();
}

} // namespace support
} // namespace optabs
