//===- AnalysisService.h - Long-lived multi-tenant analysis service -*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived, multi-tenant front door to the TRACER engine. Where a
/// standalone tracer::QueryDriver is a one-shot object owning its own
/// thread pool and forward-run cache, an AnalysisService amortizes both
/// across every client: tenants register programs, open Sessions bound to
/// a program, submit (query, abstraction-family, budget, priority) jobs,
/// and receive futures; a batch scheduler coalesces jobs that target the
/// same (program, client, options) shard into one driver run, so a CEGAR
/// round's forward fixpoints are planned once across all pending queries
/// and memoized for every later one.
///
/// Architecture (DESIGN.md §9):
///
///  * One process-wide support::ThreadPool, borrowed by every driver run
///    for its parallel phases (QueryDriver::borrowExecution).
///  * One ForwardRunCache shard per (program, client family), shared
///    across sessions and batches. Cache keys carry the program's
///    registration epoch, so re-registering a program under the same name
///    invalidates cleanly: new keys never match stale runs, and the stale
///    entries (plus the retired IR they reference) are reclaimed by the
///    scheduler before the next batch on that program.
///  * A single scheduler thread executes batches one at a time: the
///    caches keep their single-threaded contract, verdicts stay bitwise
///    identical to standalone driver runs, and intra-batch parallelism
///    still comes from the shared pool.
///  * Admission control: per-session pending and lifetime job quotas
///    (Config::ServiceConfig). A tenant over quota has its submissions
///    rejected with a structured reason; other tenants are unaffected.
///    Fair-share scheduling picks the next batch from the session with
///    the fewest jobs served so far, then coalesces every compatible
///    pending job across all sessions into the same run.
///
/// All public methods are thread-safe. Batch execution order is
/// deterministic given a deterministic submission order (single scheduler,
/// fair-share tie-broken by session id and submission sequence), and
/// verdicts are independent of batch composition altogether: batching only
/// changes which forward fixpoints are shared, never what any query
/// concludes.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_SERVICE_ANALYSISSERVICE_H
#define OPTABS_SERVICE_ANALYSISSERVICE_H

#include "support/Config.h"
#include "support/Trace.h"
#include "tracer/QueryDriver.h"

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

namespace optabs {
namespace service {

/// How one submitted job ended.
enum class JobStatus : uint8_t {
  Done,      ///< the driver resolved the query (see QueryResult::V)
  Rejected,  ///< admission control refused it (quota, bad session/query)
  Cancelled, ///< cancelled before it was scheduled
  Failed,    ///< the batch failed (program re-registered away, internal)
};

inline const char *jobStatusName(JobStatus S) {
  switch (S) {
  case JobStatus::Done:
    return "done";
  case JobStatus::Rejected:
    return "rejected";
  case JobStatus::Cancelled:
    return "cancelled";
  case JobStatus::Failed:
    return "failed";
  }
  return "?";
}

/// The resolution of one job, delivered through the future returned by
/// submit(). For Status == Done the verdict fields mirror
/// tracer::QueryOutcome; otherwise Error says what happened.
struct QueryResult {
  uint64_t Job = 0;
  uint64_t Session = 0;
  JobStatus Status = JobStatus::Failed;
  tracer::Verdict V = tracer::Verdict::Unresolved;
  unsigned Iterations = 0;
  uint32_t CheapestCost = 0;
  std::string CheapestParam;
  std::string ExhaustedResource; ///< for budget-unresolved verdicts
  std::string ExhaustedSite;
  std::string Error; ///< Rejected/Cancelled/Failed reason
};

/// A registration receipt (or a structured refusal).
struct RegisterResult {
  bool Ok = false;
  std::string Error;
  uint64_t Epoch = 0;   ///< bumped every time the name is re-registered
  uint32_t Checks = 0;  ///< check sites in the parsed program
  uint32_t Allocs = 0;  ///< allocation sites (typestate site domain)
  /// True when this was a re-registration (the name was already bound).
  bool ReRegistered = false;
  /// True when the retiring and new versions were comparable and the diff
  /// drove invalidation; false on first registration and for incomparable
  /// versions, which fall back to full invalidation.
  bool Incremental = false;
  /// Procedures whose content (or liveness) changed, by name, when
  /// Incremental; empty otherwise. DirtyChecks counts the check sites
  /// whose dependence footprint intersects those procedures - the only
  /// checks whose cached artifacts the re-registration discards.
  std::vector<std::string> DirtyProcs;
  uint32_t DirtyChecks = 0;
};

/// What a session analyzes: the thread-escape client, or the type-state
/// client (stress property when Property is empty, otherwise a property
/// automaton in the CLI's "init=...; method: from->to, ..." syntax).
struct SessionSpec {
  std::string Program; ///< registered program name
  std::string Client;  ///< "escape" or "typestate"
  std::string Property;
  /// Per-session execution/budget configuration. Validated at open;
  /// Execution.NumThreads and Execution.ForwardCacheCapacity are
  /// service-owned and ignored here. Sessions with identical effective
  /// options coalesce into shared batches; differing options (a different
  /// K, strategy, or budget) keep their runs apart.
  Config SessionConfig;
};

/// One submitted query.
struct JobSpec {
  JobSpec() = default;
  JobSpec(uint32_t Check, uint32_t Site = 0, int32_t Priority = 0,
          support::TraceContext Parent = {})
      : Check(Check), Site(Site), Priority(Priority), Parent(Parent) {}

  uint32_t Check = 0; ///< check-site index in the program
  /// Type-state tracked allocation-site index. One driver run handles one
  /// site, so jobs coalesce per site; the escape client ignores it (its
  /// jobs batch, and its verdicts key, at site 0).
  uint32_t Site = 0;
  /// Larger = served earlier within this session's queue. Priority orders
  /// batch *selection*; it never changes any query's verdict.
  int32_t Priority = 0;
  /// Caller-minted trace context (support/Trace.h). When TraceId is 0 the
  /// service uses the assigned job id as the trace id, so every job has a
  /// usable identity; the span id is always the job id. Purely
  /// observational - never affects scheduling or verdicts.
  support::TraceContext Parent;
};

/// Aggregate service counters (monotonic except QueueDepth). Exposed to
/// the stats protocol op and mirrored as optabs_service_* metrics.
struct ServiceStats {
  uint64_t ProgramsRegistered = 0;
  uint64_t SessionsOpened = 0;
  uint64_t SessionsClosed = 0;
  uint64_t JobsSubmitted = 0;
  uint64_t JobsRejected = 0;
  uint64_t JobsCancelled = 0;
  uint64_t JobsCompleted = 0;
  uint64_t JobsFailed = 0;
  uint64_t Batches = 0;
  /// Jobs that rode in a coalesced batch beyond the first of each batch:
  /// BatchedJobs - Batches. The amortization the service exists for.
  uint64_t CoalescedJobs = 0;
  uint64_t QueueDepth = 0; ///< pending + running jobs right now
  /// Summed driver statistics across every batch (deltas per run).
  uint64_t ForwardRuns = 0;
  uint64_t BackwardRuns = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t CacheEvictions = 0;
  uint64_t StaleEntriesInvalidated = 0; ///< re-registration evictions
  /// Incremental re-registration accounting (ir/ProgramDiff.h): cached
  /// artifacts (forward runs and stored verdicts) carried into the new
  /// epoch vs discarded because a dirty procedure sat in their dependence
  /// footprint; ProceduresDirty sums diff sizes across re-registrations
  /// and VerdictsReplayed counts jobs answered from a migrated verdict
  /// without running the driver at all.
  uint64_t EntriesMigrated = 0;
  uint64_t EntriesInvalidated = 0;
  uint64_t ProceduresDirty = 0;
  uint64_t VerdictsReplayed = 0;
  /// Forward fixpoints a job got without computing one: cache hits inside
  /// batch runs plus whole-verdict replays. The amortization the batching
  /// and incremental layers buy, as one number.
  uint64_t FixpointsAmortized = 0;
  /// Jobs whose end-to-end latency exceeded
  /// Config::ObservabilityConfig::SlowQuerySeconds (0 when that log is
  /// disabled or tracing/metrics never stamped timestamps).
  uint64_t SlowQueries = 0;
  /// Jobs-per-batch quantiles (log2-bucket estimates clamped to min/max;
  /// support::LogHistogram::quantile). Recorded unconditionally - batch
  /// composition is deterministic under AutoDispatch = false, so these are
  /// transcript-stable.
  uint64_t BatchJobsP50 = 0;
  uint64_t BatchJobsP90 = 0;
  uint64_t BatchJobsP99 = 0;
  /// (session id, pending + running jobs) for every open session at
  /// snapshot time, ascending by session id. The per-tenant companion to
  /// the process-wide QueueDepth gauge.
  std::vector<std::pair<uint64_t, uint64_t>> PendingBySession;
};

/// One job's recorded lifecycle, returned by AnalysisService::explain()
/// (and the `explain` protocol op). Only populated while tracing is on;
/// the service keeps the most recent trace-capacity timelines and evicts
/// oldest-first, like the flight recorder itself.
struct JobTimeline {
  bool Found = false; ///< false: tracing off, never admitted, or evicted
  uint64_t Job = 0;
  uint64_t Session = 0;
  uint32_t Check = 0;
  uint32_t Site = 0;
  uint64_t TraceId = 0;
  uint64_t SpanId = 0;
  std::string Status;  ///< "queued", "batched", or a terminal JobStatus name
  std::string Verdict; ///< verdict name when Status == "done"
  uint64_t Batch = 0;  ///< 0 until batched
  uint64_t Peers = 0;  ///< jobs in the batch, this one included
  /// Lifecycle timestamps (Profiler timebase, ns): submission, batch
  /// formation, driver start, fulfillment. 0 = not reached yet.
  uint64_t SubmitNs = 0;
  uint64_t PickNs = 0;
  uint64_t RunStartNs = 0;
  uint64_t FulfillNs = 0;
  /// Per-phase driver seconds of the batch that served this job (batch
  /// attribution: one driver run resolves every non-replayed peer).
  double PlanS = 0;
  double ForwardS = 0;
  double ClassifyS = 0;
  double ExtractS = 0;
  double BackwardS = 0;
  double MergeS = 0;
  /// Forward-cache hit/miss deltas of the serving batch's run.
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  /// Whole-verdict replay attribution: the job was answered from a stored
  /// verdict computed at DataEpoch, legal because every procedure in the
  /// check's dependence footprint (CleanFootprint, by name) survived the
  /// re-registration unchanged.
  bool Replayed = false;
  uint64_t ReplayDataEpoch = 0;
  std::string CleanFootprint;

  /// The latency decomposition; by construction
  /// endToEndNs() == queueWaitNs() + batchWaitNs() + runNs() once the job
  /// is fulfilled. Each stage reads 0 while its later stamp is missing
  /// (job still queued/batched, or clocks off).
  uint64_t queueWaitNs() const {
    return PickNs >= SubmitNs && PickNs ? PickNs - SubmitNs : 0;
  }
  uint64_t batchWaitNs() const {
    return RunStartNs >= PickNs && PickNs ? RunStartNs - PickNs : 0;
  }
  uint64_t runNs() const {
    return FulfillNs >= RunStartNs && RunStartNs ? FulfillNs - RunStartNs
                                                : 0;
  }
  uint64_t endToEndNs() const {
    return FulfillNs >= SubmitNs && FulfillNs ? FulfillNs - SubmitNs : 0;
  }
};

/// The outcome of one cache-admin operation (AnalysisService::cacheOp and
/// the `cache` protocol op): what was persisted, loaded, spilled, evicted
/// or skipped, plus structured per-artifact notes ("skipped stale verdict
/// ...", "snapshot <path>: checksum mismatch ..."). A damaged or stale
/// snapshot never fails the operation as a whole - it is skipped with a
/// note, because a warm start degrading to a cold one is normal.
struct CacheOpResult {
  bool Ok = false;
  std::string Error; ///< unknown action/program, persistence disabled, ...
  uint64_t RunsPersisted = 0;
  uint64_t VerdictsPersisted = 0;
  uint64_t RunsLoaded = 0;
  uint64_t VerdictsLoaded = 0;
  uint64_t RunsSkipped = 0;    ///< stale/duplicate/corrupt, see Notes
  uint64_t VerdictsSkipped = 0;
  uint64_t Spilled = 0; ///< entries written to spill files then evicted
  uint64_t Evicted = 0;
  uint64_t SpillLoads = 0;  ///< lifetime spill-file rehydrations (stats)
  uint64_t SpillWrites = 0; ///< lifetime spill-file writes (stats)
  uint64_t ResidentBytes = 0; ///< in-memory cache footprint (stats)
  uint64_t Entries = 0;       ///< resident cache entries (stats)
  std::vector<std::string> Notes;
};

class AnalysisService;

/// A tenant's handle: a session id plus the service it lives in. Thin and
/// copyable; close() (or closing the service) invalidates all copies.
class Session {
public:
  Session() = default;

  uint64_t id() const { return Id; }
  bool valid() const { return Svc != nullptr; }

  /// Submits one query; the future always completes (Rejected results
  /// complete immediately, scheduled ones when their batch finishes).
  /// \p JobId (when non-null) receives the assigned job id, or 0 when the
  /// submission was rejected without being queued.
  std::future<QueryResult> submit(const JobSpec &Job,
                                  uint64_t *JobId = nullptr);

  /// Cancels this session's still-pending jobs; running batches finish.
  /// Returns how many were cancelled.
  size_t cancelPending();

  /// Closes the session: pending jobs are cancelled, further submissions
  /// rejected. Idempotent.
  void close();

private:
  friend class AnalysisService;
  Session(AnalysisService *Svc, uint64_t Id) : Svc(Svc), Id(Id) {}

  AnalysisService *Svc = nullptr;
  uint64_t Id = 0;
};

/// See the file comment. Construction spins up the shared pool and the
/// scheduler thread; destruction drains nothing - still-pending jobs
/// complete as Cancelled.
class AnalysisService {
public:
  struct Options {
    /// Service-wide execution defaults: NumThreads sizes the shared pool
    /// (0 = hardware concurrency), ForwardCacheCapacity caps every cache
    /// shard, and Service.* carries the tenant quotas.
    Config Base;
    /// When false, submitted jobs only run inside drain() calls - every
    /// pending job is visible to the scheduler at once, so batch
    /// composition (and therefore cache-hit accounting) is a pure
    /// function of the submission order. The JSONL server runs this way
    /// to keep scripted transcripts byte-stable; interactive embedders
    /// keep the default and batches form as the scheduler frees up.
    bool AutoDispatch = true;
  };

  AnalysisService(); ///< default Options
  explicit AnalysisService(Options Opts);
  ~AnalysisService();

  AnalysisService(const AnalysisService &) = delete;
  AnalysisService &operator=(const AnalysisService &) = delete;

  /// Parses and (re-)registers a program under \p Name. Re-registration
  /// bumps the epoch; what happens to queued jobs and cached artifacts
  /// depends on whether the two versions are comparable:
  ///
  ///  * Incremental: the new version is diffed against the
  ///    retiring one per procedure (ir/ProgramDiff.h). Cached forward runs
  ///    and stored verdicts whose dependence footprint is entirely clean
  ///    migrate into the new epoch; only artifacts touching a dirty
  ///    procedure are discarded. Still-queued jobs survive when their
  ///    check's footprint is clean and fail with a structured stale-epoch
  ///    reason otherwise. Verdicts after an incremental re-registration
  ///    are bitwise identical to a cold re-registration; the service
  ///    replays whole stored verdicts.
  ///  * Full (incomparable versions: entity tables or main moved):
  ///    every cached artifact of older epochs is invalidated before the
  ///    next batch and every still-queued job against the retiring epoch
  ///    fails with the stale-epoch reason.
  RegisterResult registerProgram(const std::string &Name,
                                 const std::string &IrText);

  /// Opens a session; on failure the returned Session is !valid() and
  /// \p Error explains why (unknown program/client, invalid config,
  /// session quota).
  Session openSession(const SessionSpec &Spec, std::string &Error);

  /// Blocks until every job pending at (or submitted during) this call
  /// has completed. With AutoDispatch = false this is also what runs them.
  void drain();

  ServiceStats stats() const;

  /// The number of workers in the shared pool (diagnostics/tests).
  unsigned poolWorkers() const;

  /// True when the flight recorder is live
  /// (Config::ObservabilityConfig::ServiceTrace at construction).
  bool tracingEnabled() const;

  /// Returns the trace events recorded since the previous call, oldest
  /// first (the `trace` protocol op); they stay buffered for the shutdown
  /// export. Empty when tracing is disabled.
  std::vector<support::TraceEvent> drainTrace();

  /// Trace events evicted under ring pressure before any drainTrace()
  /// returned them, lifetime.
  uint64_t traceDropped() const;

  /// The recorded timeline of one job (the `explain` protocol op).
  /// !Found when tracing is off, the job was never admitted, or its
  /// timeline was evicted (bounded like the recorder ring).
  JobTimeline explain(uint64_t JobId) const;

  /// The unified cache-admin API (the `cache` protocol op). \p Action is
  /// one of:
  ///
  ///  * "stats"   - resident entries/bytes and lifetime spill counters
  ///  * "persist" - snapshot cached forward runs and stored verdicts of
  ///                \p Program (every program when empty) to
  ///                Config::ServiceConfig::CacheDir
  ///  * "load"    - warm the caches from snapshots on disk; entries are
  ///                validated against the live program fingerprint exactly
  ///                like a re-registration diff (ir/ProgramDiff.h) and
  ///                stale or corrupt artifacts are skipped with notes
  ///  * "spill"   - demote every unpinned cached run to a spill file (or
  ///                plain-evict when no cache_dir is configured)
  ///  * "evict"   - drop every unpinned cached run without spilling
  ///
  /// Runs on the scheduler thread between batches, so cache invariants
  /// (single-threaded shards, epoch pinning) hold throughout; the call
  /// blocks until the operation completes. persist/load require
  /// service.cache_dir; fingerprints are what make a loaded entry
  /// provably current.
  CacheOpResult cacheOp(const std::string &Action,
                        const std::string &Program = std::string());

private:
  friend class Session;

  std::future<QueryResult> submitJob(uint64_t SessionId, const JobSpec &Job,
                                     uint64_t *JobId);
  size_t cancelSessionPending(uint64_t SessionId);
  void closeSession(uint64_t SessionId);

  struct Impl;
  std::unique_ptr<Impl> I;
};

inline std::future<QueryResult> Session::submit(const JobSpec &Job,
                                                uint64_t *JobId) {
  if (JobId)
    *JobId = 0;
  if (!Svc) {
    std::promise<QueryResult> P;
    QueryResult R;
    R.Status = JobStatus::Rejected;
    R.Error = "invalid session handle";
    P.set_value(std::move(R));
    return P.get_future();
  }
  return Svc->submitJob(Id, Job, JobId);
}
inline size_t Session::cancelPending() {
  return Svc ? Svc->cancelSessionPending(Id) : 0;
}
inline void Session::close() {
  if (Svc)
    Svc->closeSession(Id);
  Svc = nullptr;
}

} // namespace service
} // namespace optabs

#endif // OPTABS_SERVICE_ANALYSISSERVICE_H
