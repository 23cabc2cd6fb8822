//===- optabs_serve.cpp - JSONL analysis server over stdio or sockets -----===//
//
// A long-lived front end to service::AnalysisService speaking the
// versioned JSONL protocol of service/Protocol.h: one request object per
// line, one (or, for "drain"/"trace", several) response objects per line.
// See the Protocol.h file comment for the operation reference and
// README.md for a quick-start transcript.
//
//   optabs-serve [--listen=unix:PATH|tcp:PORT] [--threads=N]
//                [--cache-capacity=N] [--max-sessions=N] [--metrics=PATH]
//                [--read-timeout-ms=N] [--max-line-bytes=N]
//                [--trace-capacity=N] [--trace-jsonl=PATH]
//                [--trace-chrome=PATH] [--trace-slow-ms=X]
//                [--cache-dir=PATH] [--spill-bytes=N]
//                [--persist-on-shutdown=0|1]
//
// Cache persistence: --cache-dir names a directory for the on-disk cache
// tier (snapshots + spill files). With it set, registering a program
// automatically rehydrates any matching snapshot (warm restart), the
// "cache" op's persist/load/spill actions work, and --persist-on-shutdown
// snapshots every program on the graceful path, so a SIGTERM'd worker
// comes back warm. --spill-bytes caps the spill tier (0 = unbounded).
// Shards of one optabs-shardd deployment share a cache dir: spill files
// are keyed by program fingerprint, not by process-local epoch, so a
// stolen or restarted shard re-warms from its peers' spills.
//
// Transport (service/Transport.h): by default the server speaks on
// stdin/stdout; --listen binds a Unix-domain socket or a loopback TCP
// port and serves one connection at a time - each accepted connection
// runs the same request loop against the same long-lived service, so
// programs, sessions, and caches survive across connections (this is how
// optabs-shardd drives its worker shards). A "shutdown" op ends the
// process from any transport; a disconnect merely returns the server to
// accept(). Lines longer than --max-line-bytes are consumed and answered
// with a structured error; --read-timeout-ms bounds how long a socket
// connection may sit silent before it is dropped (0 = no limit).
//
// Signals: SIGTERM/SIGINT run the same graceful path as the "shutdown"
// op - the in-flight batch finishes, and the --metrics /--trace-jsonl/
// --trace-chrome artifacts are written - instead of the default
// die-and-lose-every-dump disposition.
//
// Re-registering a program diffs it against the retiring version
// (ir/ProgramDiff.h): the reply reports the dirty procedure set and the
// stats op reports migration counters.
//
// Request tracing: any --trace-* flag (or OPTABS_SERVICE_TRACE=1) turns
// on the service flight recorder. Every protocol line mints a trace
// context (trace id = line sequence number), so a job's whole lifecycle -
// admission, batching, driver phases, cache attribution, fulfilment - can
// be pulled back out with the "trace" op (the events recorded since the
// previous "trace" op) or the "explain" op (one job's timeline).
// --trace-jsonl / --trace-chrome dump everything the recorder still holds
// on shutdown, whether or not a "trace" op already returned it; --trace-slow-ms logs jobs whose end-to-end
// latency exceeds the threshold. Flag defaults seed from OPTABS_*
// environment overrides, so precedence is flags > environment > defaults.
//
// The server runs the service with AutoDispatch off: submitted jobs are
// queued and only execute inside "drain", which then emits every finished
// job's result in job-id order. Responses carry no wall-clock fields
// (ping's uptime_s is scrubbed by the transcript runner), so a scripted
// session always produces a byte-identical transcript - CI boots this
// binary, pipes tools/testdata/serve_session.jsonl through it, and diffs
// the output against the checked-in golden file.
//
//===----------------------------------------------------------------------===//

#include <optabs/optabs.h>

#include "service/Transport.h"

#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace optabs;
using tracer::JsonObject;

namespace {

struct ServerState {
  std::unique_ptr<service::AnalysisService> Svc;
  std::map<uint64_t, service::Session> Sessions;
  /// Futures of every accepted job, in submission (= job-id) order;
  /// drained and cleared by the "drain" op.
  std::vector<std::future<service::QueryResult>> InFlight;
  Timer Uptime;
  uint64_t LineSeq = 0; ///< per-request trace id (comments don't count)
};

/// Reads the per-session configuration fields of an "open-session"
/// request into \p C. Returns false (with \p Err) on a non-integer where
/// an integer belongs, or one too large for its Config field.
bool readSessionConfig(const service::JsonLine &Req, Config &C,
                       std::string &Err) {
  struct UIntField {
    const char *Key;
    uint64_t *Out;
    uint64_t Max = UINT32_MAX;
  };
  uint64_t K = C.Execution.K, MaxIters = C.Execution.MaxItersPerQuery;
  uint64_t Traces = C.Execution.TracesPerIteration;
  uint64_t StepBudget = 0;
  uint64_t MaxPending = C.Service.MaxPendingPerSession;
  uint64_t MaxJobs = C.Service.MaxJobsPerSession;
  for (UIntField F : {UIntField{"k", &K}, UIntField{"max-iters", &MaxIters},
                      UIntField{"traces-per-iter", &Traces},
                      UIntField{"step-budget", &StepBudget, UINT64_MAX},
                      UIntField{"max-pending", &MaxPending},
                      UIntField{"max-jobs", &MaxJobs, UINT64_MAX}}) {
    if (!Req.has(F.Key))
      continue;
    auto V = Req.getUInt(F.Key, F.Max);
    if (!V) {
      Err = std::string("field '") + F.Key + "' must be an unsigned " +
            (F.Max == UINT32_MAX ? "32" : "64") + "-bit integer";
      return false;
    }
    *F.Out = *V;
  }
  C.Execution.K = static_cast<unsigned>(K);
  C.Execution.MaxItersPerQuery = static_cast<unsigned>(MaxIters);
  C.Execution.TracesPerIteration = static_cast<unsigned>(Traces);
  if (StepBudget > 0) {
    C.Budgets.ForwardStepBudget = StepBudget;
    C.Budgets.BackwardStepBudget = StepBudget;
    C.Budgets.SolverDecisionBudget = StepBudget;
  }
  C.Service.MaxPendingPerSession = static_cast<unsigned>(MaxPending);
  C.Service.MaxJobsPerSession = MaxJobs;
  if (auto S = Req.getString("strategy"))
    C.Execution.Strategy = *S;
  // Config::validate() (run by openSession) rejects unknown strategies and
  // inconsistent combinations with structured errors.
  return true;
}

std::string resultLine(const service::QueryResult &R) {
  JsonObject O = service::response(true);
  O.field("op", "result");
  O.field("job", R.Job);
  O.field("session", R.Session);
  O.field("status", service::jobStatusName(R.Status));
  if (R.Status == service::JobStatus::Done) {
    O.field("verdict", tracer::verdictName(R.V));
    O.field("iterations", R.Iterations);
    if (R.V == tracer::Verdict::Proven) {
      O.field("cost", R.CheapestCost);
      O.field("param", R.CheapestParam);
    }
    if (!R.ExhaustedResource.empty()) {
      O.field("exhausted", R.ExhaustedResource);
      O.field("site", R.ExhaustedSite);
    }
  } else {
    O.field("error", R.Error);
  }
  return O.str();
}

/// Handles one parsed request line. Returns false for "shutdown".
bool handleRequest(ServerState &St, const std::string &Line,
                   service::LineChannel &Ch) {
  auto Emit = [&Ch](const std::string &S) { Ch.writeLine(S); };
  auto EmitObj = [&Ch](const JsonObject &O) { Ch.writeLine(O.str()); };

  service::JsonLine Req;
  std::string Err;
  if (!service::JsonLine::parse(Line, Req, Err)) {
    EmitObj(JsonObject(service::response(false))
                .field("error", "malformed request: " + Err));
    return true;
  }
  auto Op = Req.getString("op");
  if (!Op) {
    EmitObj(JsonObject(service::response(false))
                .field("error", "missing 'op' field"));
    return true;
  }

  if (*Op == "register-program") {
    auto Name = Req.getString("name");
    auto Text = Req.getString("text");
    if (!Name || !Text) {
      Emit(service::errorLine(*Op,
                              "register-program needs 'name' and 'text'"));
      return true;
    }
    service::RegisterResult R = St.Svc->registerProgram(*Name, *Text);
    if (!R.Ok) {
      Emit(service::errorLine(*Op, R.Error));
      return true;
    }
    JsonObject O = service::response(true);
    O.field("op", *Op);
    O.field("name", *Name);
    O.field("epoch", R.Epoch);
    O.field("checks", R.Checks);
    O.field("allocs", R.Allocs);
    // The dirty set of a re-registration.
    if (R.ReRegistered) {
      O.field("incremental", R.Incremental);
      O.field("dirty_checks", R.DirtyChecks);
      if (R.Incremental) {
        O.field("dirty_procs", R.DirtyProcs.size());
        std::string Joined;
        for (const std::string &P : R.DirtyProcs) {
          if (!Joined.empty())
            Joined += ',';
          Joined += P;
        }
        O.field("dirty", Joined);
      }
    }
    EmitObj(O);
  } else if (*Op == "open-session") {
    service::SessionSpec Spec;
    Spec.SessionConfig = Config::defaults();
    if (auto P = Req.getString("program"))
      Spec.Program = *P;
    if (auto C = Req.getString("client"))
      Spec.Client = *C;
    if (auto P = Req.getString("property"))
      Spec.Property = *P;
    std::string CfgErr;
    if (!readSessionConfig(Req, Spec.SessionConfig, CfgErr)) {
      Emit(service::errorLine(*Op, CfgErr));
      return true;
    }
    std::string OpenErr;
    service::Session S = St.Svc->openSession(Spec, OpenErr);
    if (!S.valid()) {
      Emit(service::errorLine(*Op, OpenErr));
      return true;
    }
    St.Sessions[S.id()] = S;
    JsonObject O = service::response(true);
    O.field("op", *Op);
    O.field("session", S.id());
    EmitObj(O);
  } else if (*Op == "submit") {
    std::string SubErr;
    auto Sub = service::readSubmit(Req, SubErr);
    if (!Sub) {
      Emit(service::errorLine(*Op, SubErr));
      return true;
    }
    auto It = St.Sessions.find(Sub->Session);
    if (It == St.Sessions.end()) {
      Emit(service::errorLine(
          *Op, "unknown session " + std::to_string(Sub->Session)));
      return true;
    }
    service::JobSpec Job(Sub->Check, Sub->Site.value_or(0),
                         Sub->Priority.value_or(0));
    // Protocol ingress mints the request's trace identity: the line
    // sequence number, stable across reruns of the same script.
    Job.Parent.TraceId = St.LineSeq;
    Job.Parent.SpanId = St.LineSeq;
    uint64_t JobId = 0;
    std::future<service::QueryResult> F = It->second.submit(Job, &JobId);
    if (JobId == 0) {
      // Rejected synchronously: the ready future carries the reason.
      service::QueryResult R = F.get();
      JsonObject O = service::response(false);
      O.field("op", *Op);
      O.field("status", service::jobStatusName(R.Status));
      O.field("error", R.Error);
      EmitObj(O);
      return true;
    }
    St.InFlight.push_back(std::move(F));
    JsonObject O = service::response(true);
    O.field("op", *Op);
    O.field("job", JobId);
    EmitObj(O);
  } else if (*Op == "cancel") {
    auto Sess = Req.getUInt("session");
    auto It = Sess ? St.Sessions.find(*Sess) : St.Sessions.end();
    if (It == St.Sessions.end()) {
      Emit(service::errorLine(*Op, "unknown session"));
      return true;
    }
    size_t N = It->second.cancelPending();
    JsonObject O = service::response(true);
    O.field("op", *Op);
    O.field("cancelled", N);
    EmitObj(O);
  } else if (*Op == "close-session") {
    auto Sess = Req.getUInt("session");
    auto It = Sess ? St.Sessions.find(*Sess) : St.Sessions.end();
    if (It == St.Sessions.end()) {
      Emit(service::errorLine(*Op, "unknown session"));
      return true;
    }
    It->second.close();
    St.Sessions.erase(It);
    JsonObject O = service::response(true);
    O.field("op", *Op);
    EmitObj(O);
  } else if (*Op == "drain") {
    St.Svc->drain();
    for (std::future<service::QueryResult> &F : St.InFlight)
      Emit(resultLine(F.get()));
    size_t N = St.InFlight.size();
    St.InFlight.clear();
    JsonObject O = service::response(true);
    O.field("op", *Op);
    O.field("results", N);
    EmitObj(O);
  } else if (*Op == "ping") {
    // Liveness + backlog in one deterministic-except-uptime line: the
    // shard supervisor health-checks workers with this op, and the
    // transcript runner's SCRUB step zeroes uptime_s.
    service::ServiceStats S = St.Svc->stats();
    JsonObject O = service::response(true);
    O.field("op", *Op);
    O.field("server", "optabs-serve");
    O.field("protocol", service::ProtocolVersion);
    O.field("uptime_s", St.Uptime.seconds());
    O.field("pending", S.QueueDepth);
    EmitObj(O);
  } else if (*Op == "stats") {
    service::ServiceStats S = St.Svc->stats();
    JsonObject O = service::response(true);
    O.field("op", *Op);
    O.field("programs", S.ProgramsRegistered);
    O.field("sessions_opened", S.SessionsOpened);
    O.field("sessions_closed", S.SessionsClosed);
    O.field("submitted", S.JobsSubmitted);
    O.field("rejected", S.JobsRejected);
    O.field("cancelled", S.JobsCancelled);
    O.field("completed", S.JobsCompleted);
    O.field("failed", S.JobsFailed);
    O.field("batches", S.Batches);
    O.field("coalesced", S.CoalescedJobs);
    O.field("queue_depth", S.QueueDepth);
    O.field("forward_runs", S.ForwardRuns);
    O.field("backward_runs", S.BackwardRuns);
    O.field("cache_hits", S.CacheHits);
    O.field("cache_misses", S.CacheMisses);
    O.field("cache_evictions", S.CacheEvictions);
    O.field("stale_invalidated", S.StaleEntriesInvalidated);
    O.field("entries_migrated", S.EntriesMigrated);
    O.field("entries_invalidated", S.EntriesInvalidated);
    O.field("procs_dirty", S.ProceduresDirty);
    O.field("verdicts_replayed", S.VerdictsReplayed);
    std::string Pending;
    for (const auto &[Id, N] : S.PendingBySession) {
      if (!Pending.empty())
        Pending += ',';
      Pending += std::to_string(Id) + ":" + std::to_string(N);
    }
    O.field("pending_by_session", Pending);
    O.field("batch_jobs_p50", S.BatchJobsP50);
    O.field("batch_jobs_p90", S.BatchJobsP90);
    O.field("batch_jobs_p99", S.BatchJobsP99);
    O.field("fixpoints_amortized", S.FixpointsAmortized);
    O.field("slow_queries", S.SlowQueries);
    EmitObj(O);
  } else if (*Op == "cache") {
    auto Action = Req.getString("action");
    if (!Action) {
      Emit(service::errorLine(
          *Op, "cache needs 'action' (stats|persist|load|spill|evict)"));
      return true;
    }
    std::string Program;
    if (auto P = Req.getString("program"))
      Program = *P;
    service::CacheOpResult R = St.Svc->cacheOp(*Action, Program);
    if (!R.Ok) {
      Emit(service::errorLine(*Op, R.Error));
      return true;
    }
    JsonObject O = service::response(true);
    O.field("op", *Op);
    O.field("action", *Action);
    O.field("entries", R.Entries);
    O.field("resident_bytes", R.ResidentBytes);
    O.field("runs_persisted", R.RunsPersisted);
    O.field("verdicts_persisted", R.VerdictsPersisted);
    O.field("runs_loaded", R.RunsLoaded);
    O.field("verdicts_loaded", R.VerdictsLoaded);
    O.field("runs_skipped", R.RunsSkipped);
    O.field("verdicts_skipped", R.VerdictsSkipped);
    O.field("spilled", R.Spilled);
    O.field("evicted", R.Evicted);
    O.field("spill_writes", R.SpillWrites);
    O.field("spill_loads", R.SpillLoads);
    std::string Notes;
    for (const std::string &N : R.Notes) {
      if (!Notes.empty())
        Notes += ';';
      Notes += N;
    }
    O.field("notes", Notes);
    EmitObj(O);
  } else if (*Op == "trace") {
    if (!St.Svc->tracingEnabled()) {
      Emit(service::errorLine(
          *Op, "tracing is disabled (enable with "
               "--trace-capacity=N or OPTABS_SERVICE_TRACE=1)"));
      return true;
    }
    // Dropped count first, then the events since the previous "trace"
    // op; the recorder keeps them for the shutdown export.
    uint64_t Dropped = St.Svc->traceDropped();
    std::vector<support::TraceEvent> Events = St.Svc->drainTrace();
    for (const support::TraceEvent &E : Events) {
      JsonObject O = service::response(true);
      O.field("op", "trace-event");
      EmitObj(support::appendTraceEvent(O, E));
    }
    JsonObject O = service::response(true);
    O.field("op", *Op);
    O.field("events", Events.size());
    O.field("dropped", Dropped);
    EmitObj(O);
  } else if (*Op == "explain") {
    auto JobN = Req.getUInt("job");
    if (!JobN) {
      Emit(service::errorLine(*Op, "explain needs 'job'"));
      return true;
    }
    service::JobTimeline T = St.Svc->explain(*JobN);
    if (!T.Found) {
      Emit(service::errorLine(
          *Op, "no timeline for job " + std::to_string(*JobN) +
                   " (tracing disabled, job never admitted, "
                   "or entry evicted)"));
      return true;
    }
    JsonObject O = service::response(true);
    O.field("op", *Op);
    O.field("job", T.Job);
    O.field("session", T.Session);
    O.field("check", T.Check);
    O.field("site", T.Site);
    O.field("status", T.Status);
    if (!T.Verdict.empty())
      O.field("verdict", T.Verdict);
    O.field("batch", T.Batch);
    O.field("peers", T.Peers);
    O.field("queue_wait_ns", T.queueWaitNs());
    O.field("batch_wait_ns", T.batchWaitNs());
    O.field("run_ns", T.runNs());
    O.field("e2e_ns", T.endToEndNs());
    O.field("plan_s", T.PlanS);
    O.field("forward_s", T.ForwardS);
    O.field("classify_s", T.ClassifyS);
    O.field("extract_s", T.ExtractS);
    O.field("backward_s", T.BackwardS);
    O.field("merge_s", T.MergeS);
    O.field("cache_hits", T.CacheHits);
    O.field("cache_misses", T.CacheMisses);
    O.field("replayed", T.Replayed);
    if (T.Replayed) {
      O.field("data_epoch", T.ReplayDataEpoch);
      O.field("clean_footprint", T.CleanFootprint);
    }
    EmitObj(O);
  } else if (*Op == "shutdown") {
    JsonObject O = service::response(true);
    O.field("op", *Op);
    EmitObj(O);
    return false;
  } else {
    Emit(service::errorLine(*Op, "unknown op '" + *Op + "'"));
  }
  return true;
}

struct ServeFlags {
  service::ListenSpec Listen;
  uint64_t ReadTimeoutMs = 0; ///< 0 = never time a connection out
  uint64_t MaxLineBytes = service::DefaultMaxLineBytes;
  std::string MetricsPath;
};

int serve(const Config &Base, const ServeFlags &F) {
  service::AnalysisService::Options Opts;
  Opts.Base = Base;
  Opts.AutoDispatch = false; // jobs run inside "drain": stable transcripts
  ServerState St;
  St.Svc = std::make_unique<service::AnalysisService>(std::move(Opts));

  std::string Err;
  service::ServeExit Exit = service::serveLines(
      F.Listen, F.MaxLineBytes, F.ReadTimeoutMs,
      [&St](const std::string &Line, service::LineChannel &Ch) {
        ++St.LineSeq;
        return handleRequest(St, Line, Ch);
      },
      Err);
  if (Exit == service::ServeExit::ListenFailed) {
    std::cerr << "error: " << Err << "\n";
    return 1;
  }

  // Graceful shutdown - identical for the "shutdown" op, EOF, and
  // SIGTERM/SIGINT: any in-flight batch has already finished (the request
  // loop only returns between requests), the metrics dump is written, and
  // destroying the service writes the --trace-jsonl/--trace-chrome
  // artifacts and completes still-pending jobs as Cancelled.
  if (!F.MetricsPath.empty())
    support::writeFile(F.MetricsPath, [](std::ostream &OS) {
      support::MetricRegistry::global().dumpPrometheus(OS);
    });
  St.Svc.reset();
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  // OPTABS_* environment overrides seed the flag defaults (fromEnv), so
  // an explicit flag always wins over the environment, which wins over
  // Config::defaults(). Malformed env values are reported, not fatal.
  std::vector<ConfigError> EnvErrors;
  Config Base = Config::fromEnv(&EnvErrors);
  if (!EnvErrors.empty())
    std::cerr << formatConfigErrors(EnvErrors);
  uint64_t Threads = Base.Execution.NumThreads;
  uint64_t CacheCapacity = Base.Execution.ForwardCacheCapacity;
  uint64_t MaxSessions = Base.Service.MaxSessions;
  std::string CacheDir = Base.Service.CacheDir;
  uint64_t SpillBytes = Base.Service.SpillBytes;
  uint64_t PersistOnShutdown = Base.Service.PersistOnShutdown ? 1 : 0;
  uint64_t TraceCapacity =
      Base.Observability.ServiceTrace ? Base.Observability.ServiceTraceCapacity
                                      : 0;
  ServeFlags F;
  F.MetricsPath = Base.Observability.MetricsPath;
  std::string Listen = "stdio";
  std::string TraceJsonl = Base.Observability.ServiceTraceJsonlPath;
  std::string TraceChrome = Base.Observability.ServiceTraceChromePath;
  double TraceSlowMs = Base.Observability.SlowQuerySeconds * 1000;
  support::ArgParser Parser("optabs-serve");
  Parser.option("--listen", &Listen,
                "transport: stdio (default), unix:PATH, or tcp:PORT");
  Parser.option("--threads", &Threads, "shared pool workers (0 = hardware)");
  Parser.option("--cache-capacity", &CacheCapacity,
                "forward-run cache entries per shard (0 = unbounded)");
  Parser.option("--max-sessions", &MaxSessions, "open-session quota");
  Parser.option("--metrics", &F.MetricsPath, "Prometheus dump on shutdown");
  Parser.option("--cache-dir", &CacheDir,
                "on-disk cache tier: snapshots + spill files (empty = off)");
  Parser.option("--spill-bytes", &SpillBytes,
                "spill-tier byte budget (0 = unbounded)");
  Parser.option("--persist-on-shutdown", &PersistOnShutdown,
                "snapshot every program on graceful shutdown (0|1)");
  Parser.option("--read-timeout-ms", &F.ReadTimeoutMs,
                "drop a socket connection silent this long (0 = never)");
  Parser.option("--max-line-bytes", &F.MaxLineBytes,
                "per-line size cap; longer lines get a structured error");
  Parser.option("--trace-capacity", &TraceCapacity,
                "flight-recorder ring size; > 0 enables request tracing");
  Parser.option("--trace-jsonl", &TraceJsonl,
                "JSONL trace dump on shutdown (enables tracing)");
  Parser.option("--trace-chrome", &TraceChrome,
                "merged Chrome trace dump on shutdown (enables tracing)");
  Parser.option("--trace-slow-ms", &TraceSlowMs,
                "slow-query threshold in milliseconds (enables tracing)");
  std::string Err;
  if (!Parser.parse(Argc, Argv, Err)) {
    std::cerr << "error: " << Err << "\n" << Parser.usage();
    return 2;
  }
  if (Parser.helpRequested()) {
    std::cout << Parser.help();
    return 0;
  }
  if (!service::ListenSpec::parse(Listen, F.Listen, Err)) {
    std::cerr << "error: " << Err << "\n";
    return 2;
  }
  Base.Execution.NumThreads = static_cast<unsigned>(Threads);
  Base.Execution.ForwardCacheCapacity = static_cast<size_t>(CacheCapacity);
  Base.Service.MaxSessions = static_cast<unsigned>(MaxSessions);
  Base.Service.CacheDir = CacheDir;
  Base.Service.SpillBytes = SpillBytes;
  Base.Service.PersistOnShutdown = PersistOnShutdown != 0;
  if (TraceCapacity > 0) {
    Base.Observability.ServiceTrace = true;
    Base.Observability.ServiceTraceCapacity =
        static_cast<size_t>(TraceCapacity);
  }
  if (!TraceJsonl.empty()) {
    Base.Observability.ServiceTrace = true;
    Base.Observability.ServiceTraceJsonlPath = TraceJsonl;
  }
  if (!TraceChrome.empty()) {
    Base.Observability.ServiceTrace = true;
    Base.Observability.ServiceTraceChromePath = TraceChrome;
  }
  if (TraceSlowMs > 0) {
    Base.Observability.ServiceTrace = true;
    Base.Observability.SlowQuerySeconds = TraceSlowMs / 1000.0;
  }
  Base.Observability.MetricsPath = F.MetricsPath;
  if (!F.MetricsPath.empty())
    support::setMetricsEnabled(true);
  service::installShutdownSignals();
  return serve(Base, F);
}
