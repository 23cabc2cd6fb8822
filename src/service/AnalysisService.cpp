//===- AnalysisService.cpp - Multi-tenant analysis service ----------------===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Implementation notes (see the header and DESIGN.md §9 for the model):
//
//  * One mutex guards programs, sessions, queues, and stats. The scheduler
//    thread is the only code that runs drivers or touches the per-program
//    cache shards, so every ForwardRunCache keeps its single-threaded
//    mutating contract even though sessions submit concurrently.
//  * Program registrations are immutable once published: re-registering a
//    name installs a fresh ProgramEntry under the next epoch and retires
//    the old one. Retired entries stay alive while any cache entry's
//    *data* epoch still references their IR (cached forward runs hold
//    references into it); a migrated run keeps its original data epoch,
//    so a retired program can outlive several re-registrations.
//  * Incremental re-registration:
//    registerProgram fingerprints every version at registration time
//    (ir/ProgramDiff.h) - never by re-reading the retiring Program, which
//    the scheduler may still be mutating through lazy method interning -
//    and diffs fingerprints under the lock. Checks whose dependence
//    footprint avoids every dirty procedure keep their CheckLastDirty
//    epoch; the scheduler then migrates forward runs into the new epoch
//    wholesale (stale ones are shadowed by the per-check MinDataEpoch
//    freshness floor at lookup time) and stored verdicts are filtered
//    right in registerProgram. Jobs answered from a stored verdict replay
//    the whole recorded outcome - including its event-trace verdict line -
//    so the contract is bitwise identity with a cold re-registration.
//  * Batch picking: the session with the fewest served jobs leads; its
//    best pending job (priority, then submission order) defines the shard
//    key, and every compatible pending job across all sessions rides in
//    the same driver run, ordered by global submission sequence. That
//    order is what makes batch composition - and therefore cache-hit
//    accounting - deterministic under AutoDispatch = false.
//
//===----------------------------------------------------------------------===//

#include "service/AnalysisService.h"

#include "ir/CheckReach.h"
#include "ir/Liveness.h"
#include "ir/Parser.h"
#include "ir/ProgramDiff.h"
#include "service/Clients.h"
#include "support/Budget.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "tracer/CachePersist.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

#include <dirent.h>
#include <sys/stat.h>

namespace optabs {
namespace service {

namespace {

/// The execution-relevant slice of a session's Config, serialized so
/// sessions coalesce into one batch exactly when a shared driver run would
/// behave identically for both. Observability paths are included (a batch
/// writes one trace/metrics dump, so sessions wanting different files must
/// not share).
std::string optionsSignature(const Config &C) {
  std::ostringstream S;
  S << C.Execution.K << '|' << C.Execution.MaxItersPerQuery << '|'
    << C.Execution.GroupQueries << '|' << C.Execution.ProductSoftCap << '|'
    << C.Execution.TracesPerIteration << '|' << C.Execution.Strategy << '|'
    << C.Budgets.TimeBudgetSeconds << '|' << C.Budgets.BackwardTimeoutSeconds
    << '|' << C.Budgets.ForwardStepBudget << '|'
    << C.Budgets.BackwardStepBudget << '|' << C.Budgets.SolverDecisionBudget
    << '|' << C.Budgets.MemoryBudgetBytes << '|'
    << C.Observability.EventTracePath << '|' << C.Observability.MetricsPath
    << '|' << C.Observability.ProfilePath;
  return S.str();
}

/// The result of a job that ended without a verdict (\p Job is 0 for a
/// submission rejected before it was assigned an id).
QueryResult ended(uint64_t Job, uint64_t Session, JobStatus Status,
                  std::string Why) {
  QueryResult R;
  R.Job = Job;
  R.Session = Session;
  R.Status = Status;
  R.Error = std::move(Why);
  return R;
}

std::future<QueryResult> readyFuture(QueryResult R) {
  std::promise<QueryResult> P;
  P.set_value(std::move(R));
  return P.get_future();
}

/// A flight-recorder event of \p Kind in request context \p Ctx,
/// attributed to a job, session and batch (0 where there is none).
support::TraceEvent traceEvent(const char *Kind,
                               const support::TraceContext &Ctx,
                               uint64_t Job = 0, uint64_t Session = 0,
                               uint64_t Batch = 0) {
  support::TraceEvent E;
  E.Kind = Kind;
  E.TraceId = Ctx.TraceId;
  E.SpanId = Ctx.SpanId;
  E.Job = Job;
  E.Session = Session;
  E.Batch = Batch;
  return E;
}

void bumpServiceCounter(const char *Name, uint64_t N = 1) {
  if (support::metricsEnabled())
    support::MetricRegistry::global().counter(Name).add(N);
}

// -- persistent cache tier helpers ---------------------------------------

std::string hex16(uint64_t V) {
  static const char *Digits = "0123456789abcdef";
  std::string S(16, '0');
  for (int I = 15; I >= 0; --I) {
    S[I] = Digits[V & 0xf];
    V >>= 4;
  }
  return S;
}

/// mkdir -p: creates \p Dir and its parents; EEXIST is success.
bool ensureDir(const std::string &Dir) {
  if (Dir.empty())
    return false;
  for (size_t I = 1; I <= Dir.size(); ++I) {
    if (I != Dir.size() && Dir[I] != '/')
      continue;
    std::string Prefix = Dir.substr(0, I);
    if (::mkdir(Prefix.c_str(), 0755) != 0 && errno != EEXIST)
      return false;
  }
  return true;
}

/// Folds the eight little-endian bytes of \p V into hash \p H.
void mixHash(uint64_t &H, uint64_t V) {
  unsigned char B[8];
  for (int I = 0; I < 8; ++I)
    B[I] = static_cast<unsigned char>(V >> (8 * I));
  H = tracer::snapshotHash(B, 8, H);
}

/// A stable hash of one program version's fingerprint: procedure names and
/// id-inclusive content/liveness hashes plus the entity-table shape.
/// Stamped into every spill file and snapshot so a loaded artifact is
/// provably from a byte-identical (or per-check footprint-clean) program,
/// across process restarts where registration epochs restart from 1.
uint64_t fingerprintHashOf(const ir::ProgramFingerprint &Fp) {
  uint64_t H = tracer::snapshotHash(nullptr, 0);
  auto Mix = [&H](uint64_t V) { mixHash(H, V); };
  Mix(Fp.Procs.size());
  for (const auto &P : Fp.Procs) {
    H = tracer::snapshotHash(P.Name.data(), P.Name.size(), H);
    Mix(P.ContentHash);
    Mix(P.LivenessHash);
  }
  Mix(Fp.NumVars);
  Mix(Fp.NumGlobals);
  Mix(Fp.NumFields);
  Mix(Fp.NumAllocs);
  Mix(Fp.NumMethods);
  Mix(Fp.NumSymbols);
  Mix(Fp.NumChecks);
  Mix(Fp.MainProc);
  return H;
}

/// True when dependence footprint \p Foot contains a procedure of
/// \p Dirty.
bool footprintHits(const BitSet &Foot, const BitSet &Dirty) {
  bool Hit = false;
  Dirty.forEach([&](size_t P) {
    if (P < Foot.size() && Foot.test(P))
      Hit = true;
  });
  return Hit;
}

// -- program registrations and their per-client cache shards -------------

/// One client's analyses of a program registration: per property, the
/// client's run context and one analysis per group, each built on first
/// use. Everything lives here, stably, because cached forward runs hold
/// references into the analyses.
template <typename A> struct ClientAnalyses {
  struct Family {
    typename ClientTraits<A>::Context Ctx;
    std::map<uint32_t, std::unique_ptr<A>> Groups;
  };
  std::map<std::string, Family> ByProperty; ///< by property text

  void releaseWpTables() {
    for (auto &[Prop, F] : ByProperty)
      for (auto &[G, An] : F.Groups)
        An->wpTable().clear();
  }
};

/// One immutable registration of a program. Lazily grown (analyses,
/// liveness) by the scheduler thread only.
struct ProgramEntry {
  std::unique_ptr<ir::Program> P;
  uint64_t Epoch = 0;
  PerClient<ClientAnalyses> Analyses;
  /// The liveness and check-reach tables every forward run of this entry
  /// points at, built once: batch drivers borrow them
  /// (QueryDriver::borrowExecution) and runs rehydrated from disk are
  /// built against them. Cached runs outlive the driver that computed
  /// them, and an entry outlives every cached run whose data epoch is its
  /// own (pruneRetired), so the pointers they hold stay valid.
  std::unique_ptr<ir::CommandLiveness> Live;
  std::unique_ptr<ir::CheckReach> Reach;

  /// Frees every analysis's wp table (meta/WpTable.h). Only between
  /// batches: no driver may be using the analyses.
  void releaseWpTables() {
    std::apply([](auto &...S) { (S.releaseWpTables(), ...); }, Analyses);
  }
};

/// A stored resolved verdict, replayable across re-registrations while
/// the check's dependence footprint stays clean. DataEpoch is the epoch
/// of the program version that computed it (never rewritten: the
/// CheckLastDirty comparison is against the compute-time version).
struct VerdictKey {
  uint8_t Client = 0; ///< the client's SpillKind, as snapshots store it
  std::string Property;
  uint32_t Site = 0;
  std::string OptionsSig;
  uint32_t Check = 0;
  bool operator<(const VerdictKey &O) const {
    return std::tie(Client, Property, Site, OptionsSig, Check) <
           std::tie(O.Client, O.Property, O.Site, O.OptionsSig, O.Check);
  }
};
struct VerdictEntry {
  tracer::Verdict V = tracer::Verdict::Unresolved;
  unsigned Iterations = 0;
  uint32_t CheapestCost = 0;
  std::string CheapestParam;
  /// Replay fields for the "verdict" event-trace line (round + short vs
  /// full form; see tracer::QueryOutcome::TraceForm).
  unsigned TraceRound = 0;
  uint8_t TraceForm = 0;
  uint64_t DataEpoch = 0;
  /// True for entries rehydrated from a snapshot. They are stamped with
  /// the live epoch their load-time footprint diff validated against,
  /// and replay within that epoch too (a driver-computed verdict only
  /// replays across re-registrations - see pickBatch). Never lowers any
  /// CheckLastDirty floor: the floors also shadow migrated forward runs
  /// and must keep reflecting the last dirtying edit.
  bool Loaded = false;
};

/// A forward run's identity in a file: its client, the property text and
/// site of its family (empty and 0 for a client without families), its
/// salt and its parameter bits - the identity VerdictKey gives a verdict.
/// A cache key folds an in-process family index instead, which each
/// process hands out in first-use order, so no file holds one. The spill
/// stamp, the spill file name and every snapshot run record go through
/// write() and read().
struct RunId {
  uint8_t Client = 0; ///< the client's SpillKind
  std::string Property;
  uint32_t Site = 0;
  uint32_t Salt = 0;
  std::vector<bool> Bits;

  void write(tracer::SnapshotWriter &W) const {
    W.u8(Client);
    W.str(Property);
    W.u32(Site);
    W.u32(Salt);
    W.bits(Bits);
  }
  bool read(tracer::SnapshotReader &R) {
    return R.u8(Client) && R.str(Property) && R.u32(Site) && R.u32(Salt) &&
           R.bits(Bits);
  }
};

/// The type-state family indices of one program slot, in-process only:
/// cache keys fold (family index << 32) | site, and migrated entries stay
/// valid because a property keeps its index for the life of the slot.
/// Files name a family by its property text (RunId), never by its index.
/// Scheduler thread only.
struct FamilyIndex {
  std::map<std::string, uint64_t> ByProperty;
  std::vector<std::string> Properties; ///< by index - 1

  /// The index of \p Prop, assigned on first use (from 1).
  uint64_t of(const std::string &Prop) {
    auto [It, New] = ByProperty.emplace(Prop, Properties.size() + 1);
    if (New)
      Properties.push_back(Prop);
    return It->second;
  }
};

/// One client's forward-run cache shard of a program slot, shared across
/// sessions, batches and registrations of that program.
template <typename A> struct ClientShard : ClientTraits<A> {
  using T = ClientTraits<A>;
  using Forward = dataflow::ForwardAnalysis<A>;
  using Key = typename tracer::ForwardRunCache<Forward>::Key;
  tracer::ForwardRunCache<Forward> Runs;

  /// The analysis of group \p Group of family \p Property of \p E,
  /// built on first use; null when it cannot be built. Scheduler thread
  /// only.
  static A *analysisFor(ProgramEntry &E, const std::string &Property,
                        uint32_t Group) {
    if (Group >= T::numGroups(*E.P))
      return nullptr;
    auto &Families = std::get<ClientAnalyses<A>>(E.Analyses).ByProperty;
    auto It = Families.find(Property);
    if (It == Families.end()) {
      // openSession checked the property; defensive for re-registers and
      // for properties read from a file.
      std::string Err;
      auto Ctx = T::context(Property, *E.P, Err);
      if (!Ctx)
        return nullptr;
      It = Families.emplace(Property, typename ClientAnalyses<A>::Family{
                                          std::move(*Ctx), {}})
               .first;
    }
    auto &An = It->second.Groups[Group];
    if (!An)
      An = T::analysis(*E.P, It->second.Ctx, Group);
    return An.get();
  }

  /// The cache-key family of \p Property at \p Group: (index << 32) |
  /// group for a client with families, else 0. Assigns the index.
  static uint64_t familyOf(FamilyIndex &F, const std::string &Property,
                           uint32_t Group) {
    return T::HasFamily ? (F.of(Property) << 32) | Group : 0;
  }

  /// The live key of \p Id at \p Epoch (assigns its family index).
  static Key keyOf(FamilyIndex &F, const RunId &Id, uint64_t Epoch) {
    return Key{Id.Bits, Id.Salt, Epoch, familyOf(F, Id.Property, Id.Site)};
  }

  /// The file identity of live key \p K (whose family index came from
  /// familyOf).
  static RunId idOf(const FamilyIndex &F, const Key &K) {
    if (!T::HasFamily)
      return RunId{T::SpillKind, "", 0, K.Salt, K.Bits};
    return RunId{T::SpillKind, F.Properties.at((K.Family >> 32) - 1),
                 static_cast<uint32_t>(K.Family & 0xffffffffu), K.Salt,
                 K.Bits};
  }
};

/// The per-name slot: survives re-registration and owns the cache shards
/// (which is the whole point - a new epoch keeps hitting the warm shard
/// for keys it shares, while stale epochs are evicted below).
struct ProgramSlot {
  std::shared_ptr<ProgramEntry> Current;
  /// Entries replaced by a re-registration, kept alive until the shards
  /// no longer cache runs whose data epoch references their IR.
  std::vector<std::shared_ptr<ProgramEntry>> Retired;
  bool NeedsInvalidation = false;
  PerClient<ClientShard> Shards;
  /// Per-check dependence footprints of Current (proc indices into
  /// Fingerprint.Procs), so replay events and `explain` can name the
  /// clean footprint.
  std::vector<BitSet> CheckFootprints;

  // -- incremental re-registration state (lock held for all of these) --
  /// Fingerprint of Current, captured at registration.
  ir::ProgramFingerprint Fingerprint;
  /// Per-check epoch of the last re-registration that dirtied the
  /// check's dependence footprint, sized numChecks of Current. A cached
  /// artifact with DataEpoch >= CheckLastDirty[check] is still exact for
  /// that check.
  std::vector<uint64_t> CheckLastDirty;
  /// Epoch re-keying the scheduler still has to apply to the forward
  /// shards ((from, to) pairs, in re-registration order).
  std::vector<std::pair<uint64_t, uint64_t>> PendingMigrations;
  /// Stored resolved verdicts; filtered against the diff at re-register.
  std::map<VerdictKey, VerdictEntry> Verdicts;
  FamilyIndex Families; ///< in-process only; see FamilyIndex

  /// Calls \p Fn on each client's shard, in snapshot order.
  template <typename FnT> void forEachShard(FnT Fn) {
    std::apply([&](auto &...Sh) { (Fn(Sh), ...); }, Shards);
  }
};

/// A shard's runs collected on the side by a merge-mode load, named by
/// their file identity: a merge assigns no family index.
template <typename A>
using MergedRuns = std::vector<
    std::pair<RunId, std::unique_ptr<typename ClientShard<A>::Forward>>>;

} // namespace

struct AnalysisService::Impl {
  struct PendingJob {
    uint64_t Id = 0; ///< global submission sequence; batch execution order
    JobSpec Spec;
    /// Program epoch current at submission. A job still queued when its
    /// program is re-registered fails with a structured stale-epoch reason
    /// unless the diff proves its check's footprint untouched; silently
    /// re-running it against different IR was a bug.
    uint64_t Epoch = 0;
    /// Request identity: the caller's trace id (or the job id when the
    /// caller minted none) + the job id as span id.
    support::TraceContext Ctx;
    /// Submission timestamp (Profiler timebase); 0 when neither tracing
    /// nor metrics were on at submit, so no clock was read.
    uint64_t SubmitNs = 0;
    std::promise<QueryResult> Promise;
  };

  struct SessionState {
    uint64_t Id = 0;
    std::string ProgramName;
    uint8_t Client = 0; ///< ClientTraits::SpillKind
    std::string Property;
    Config Cfg;
    std::string OptionsSig;
    std::deque<PendingJob> Pending;
    uint64_t SubmittedTotal = 0;
    uint64_t Served = 0; ///< fair-share: lowest goes first
    size_t Running = 0;
  };

  /// One coalesced unit of driver work, extracted under the lock, executed
  /// without it.
  struct Batch {
    std::string ProgramName;
    uint8_t Client = 0; ///< ClientTraits::SpillKind
    std::string Property;
    uint32_t Site = 0;
    Config Cfg;
    std::string OptionsSig;
    std::vector<PendingJob> Jobs; ///< sorted by Id (submission order)
    std::vector<uint64_t> JobSessions; ///< parallel to Jobs
    std::shared_ptr<ProgramEntry> Entry;
    ProgramSlot *Slot = nullptr;
    /// Snapshot of the slot's CheckLastDirty, copied under the lock (the
    /// driver reads it without the lock as its per-check data-freshness
    /// floor; a concurrent re-registration must not mutate it mid-run).
    std::vector<uint64_t> MinDataByCheck;
    /// Stored verdicts serving jobs without a driver run, copied under the
    /// lock in pickBatch (parallel to Jobs; nullopt = run the driver).
    /// Only cross-epoch survivors replay - a repeat submission in the same
    /// epoch still exercises the driver and its forward-run cache.
    std::vector<std::optional<VerdictEntry>> Replays;
    /// Batch sequence number (1-based, assigned in pickBatch; 0 only
    /// before assignment). Stable across thread counts: batch formation
    /// runs on the scheduler thread alone.
    uint64_t Id = 0;
    /// Timestamp of batch formation; 0 when neither tracing nor metrics
    /// are on (queue-wait ends, batch-wait starts).
    uint64_t PickNs = 0;
    /// Batch span: the lead job's trace id with the batch id as span.
    support::TraceContext Ctx;
    /// Clean-footprint procedure names for replayed jobs (parallel to
    /// Jobs; empty where the job runs the driver), resolved under the
    /// lock in pickBatch while the slot's footprints are stable.
    std::vector<std::string> ReplayFootprints;
    /// Nonzero arms the disk spill tier for this batch's run: the hash of
    /// the slot's fingerprint, snapshotted under the lock in pickBatch
    /// (executeBatch runs without it, and a concurrent re-registration
    /// may replace the fingerprint). Stamped into spill files so only an
    /// identical program version ever re-warms from them.
    uint64_t FpHash = 0;

    VerdictKey verdictKey(uint32_t Check) const {
      return {Client, Property, Site, OptionsSig, Check};
    }
  };

  struct BatchResult {
    std::vector<QueryResult> Results; ///< parallel to Batch::Jobs
    /// Per-job verdict-recording material (parallel to Jobs; TraceForm 0
    /// where the job did not run or did not resolve).
    std::vector<unsigned> TraceRound;
    std::vector<uint8_t> TraceForm;
    tracer::DriverStats DS;
    bool Ran = false;
    double Seconds = 0;
    /// Timestamp of the moment executeBatch took over (after batch-wait,
    /// before the driver); 0 when neither tracing nor metrics are on.
    uint64_t RunStartNs = 0;
  };

  explicit Impl(Options O) : Opts(std::move(O)) {
    if (Opts.Base.Observability.ServiceTrace)
      Recorder = std::make_unique<support::FlightRecorder>(
          Opts.Base.Observability.ServiceTraceCapacity);
    unsigned Workers = Opts.Base.Execution.NumThreads == 0
                           ? support::ThreadPool::hardwareWorkers()
                           : Opts.Base.Execution.NumThreads;
    Pool = std::make_unique<support::ThreadPool>(Workers);
    Scheduler = std::thread([this] { schedulerLoop(); });
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> Lock(M);
      ShuttingDown = true;
    }
    WorkCV.notify_all();
    IdleCV.notify_all();
    Scheduler.join();
    // Export whatever the flight recorder still holds. After the join no
    // other thread touches the recorder, so the snapshot is complete.
    if (Recorder) {
      const auto &Obs = Opts.Base.Observability;
      if (!Obs.ServiceTraceJsonlPath.empty())
        support::writeFile(Obs.ServiceTraceJsonlPath, [&](std::ostream &OS) {
          Recorder->writeJsonl(OS);
        });
      if (!Obs.ServiceTraceChromePath.empty())
        support::writeFile(Obs.ServiceTraceChromePath, [&](std::ostream &OS) {
          support::Profiler::global().writeChromeTrace(OS, Recorder.get());
        });
    }
  }

  // -- state (guarded by M unless noted) ---------------------------------
  Options Opts;
  mutable std::mutex M;
  std::condition_variable WorkCV; ///< wakes the scheduler
  std::condition_variable IdleCV; ///< wakes drain() waiters
  bool ShuttingDown = false;
  unsigned DrainWaiters = 0;

  std::unique_ptr<support::ThreadPool> Pool; ///< immutable after ctor
  std::thread Scheduler;

  std::map<std::string, ProgramSlot> Programs;
  /// Open sessions only: closeSession erases its entry, so every walk
  /// below sees live tenants alone.
  std::map<uint64_t, SessionState> Sessions;
  /// Jobs of the batch the scheduler is running (0 between batches). They
  /// stay queued work even when their session closes mid-batch.
  size_t InFlight = 0;
  uint64_t NextEpoch = 1;   ///< > 0: standalone drivers use epoch 0
  uint64_t NextSession = 1;
  uint64_t NextJob = 1;
  uint64_t NextBatch = 1;
  ServiceStats Stats;

  /// One queued cache-admin operation (cacheOp or the register-time
  /// auto-warm). Executed on the scheduler thread between batches, where
  /// the single-threaded cache contract and the epoch invariants hold.
  struct AdminCmd {
    std::string Action; ///< stats | persist | load | spill | evict
    std::string Program; ///< empty = every registered program
    std::promise<CacheOpResult> Promise;
  };
  std::deque<AdminCmd> AdminQueue; ///< guarded by M
  /// Bytes of spill files on disk, compared against
  /// Config::ServiceConfig::SpillBytes. Seeded from the cache dir's
  /// existing spill files on first use (see ensureSpillAccounting), so a
  /// restart - or a shared cache dir - does not reset the budget; a
  /// rewrite of an existing spill path replaces its old bytes instead of
  /// double-counting. Scheduler thread only (the spill hooks run inside
  /// executeBatch or an admin op, both scheduler-side). The budget is
  /// enforced per worker: shardd workers sharing one dir each apply
  /// their own service.spill_bytes against the shared contents.
  uint64_t SpillBytesUsed = 0;
  bool SpillBytesScanned = false;

  // -- request tracing (guarded by M except where noted) -----------------
  /// Null when observability.service_trace is off: every recording site
  /// below is gated on this one pointer test, so disabled mode costs a
  /// single ordinary load + branch and never constructs a TraceEvent.
  /// The recorder itself is internally synchronized (record() from the
  /// scheduler thread runs outside M in executeBatch).
  std::unique_ptr<support::FlightRecorder> Recorder;
  /// Per-job lifecycle timelines for `explain`, FIFO-bounded at the
  /// recorder's capacity (JobLogOrder is the eviction queue).
  std::map<uint64_t, JobTimeline> JobLog;
  std::deque<uint64_t> JobLogOrder;
  /// Jobs-per-batch distribution. Recorded unconditionally (batch
  /// formation is deterministic, so the stats-op quantiles stay
  /// transcript-stable whether or not metrics are on).
  support::LogHistogram BatchJobsHist;

  bool timingOn() const {
    return Recorder != nullptr || support::metricsEnabled();
  }
  static uint64_t nowNs() { return support::Profiler::global().nowNs(); }

  /// Lock held. Inserts a fresh timeline, evicting oldest-first so the
  /// explain log is bounded by the same capacity as the event ring.
  void logJob(JobTimeline T) {
    while (JobLogOrder.size() >= Recorder->capacity()) {
      JobLog.erase(JobLogOrder.front());
      JobLogOrder.pop_front();
    }
    JobLogOrder.push_back(T.Job);
    JobLog[T.Job] = std::move(T);
  }

  /// Lock held. Null when the job's timeline was evicted (or never made).
  JobTimeline *timeline(uint64_t JobId) {
    auto It = JobLog.find(JobId);
    return It == JobLog.end() ? nullptr : &It->second;
  }

  /// Lock held. Records the terminal event for a job that never reached a
  /// driver run (cancelled, failed stale, shut down).
  void noteTerminal(const PendingJob &J, uint64_t SessionId,
                    const char *Status) {
    if (!Recorder)
      return;
    support::TraceEvent E = traceEvent("fulfilled", J.Ctx, J.Id, SessionId);
    E.Note = Status;
    Recorder->record(E);
    if (JobTimeline *T = timeline(J.Id)) {
      T->Status = Status;
      T->FulfillNs = nowNs();
    }
  }

  /// Lock held. Records an admission rejection. No job id was minted, so
  /// the event carries only the caller's context and the reason.
  void noteRejected(uint64_t SessionId, const support::TraceContext &Parent,
                    const char *Why) {
    if (!Recorder)
      return;
    support::TraceEvent E = traceEvent("rejected", Parent, 0, SessionId);
    E.Note = Why;
    Recorder->record(E);
  }

  /// Lock held. Comma-joined names of the procedures in \p Check's
  /// dependence footprint (the set a replay proves clean).
  std::string footprintNames(const ProgramSlot &Slot, uint32_t Check) const {
    if (Check >= Slot.CheckFootprints.size())
      return {};
    std::string Out;
    Slot.CheckFootprints[Check].forEach([&](size_t P) {
      if (P < Slot.Fingerprint.Procs.size()) {
        if (!Out.empty())
          Out += ',';
        Out += Slot.Fingerprint.Procs[P].Name;
      }
    });
    return Out;
  }

  // -- helpers -----------------------------------------------------------

  size_t queuedJobs() const {
    size_t N = InFlight;
    for (const auto &[Id, S] : Sessions)
      N += S.Pending.size();
    return N;
  }

  void setQueueDepth() {
    Stats.QueueDepth = queuedJobs();
    if (support::metricsEnabled()) {
      auto &Reg = support::MetricRegistry::global();
      Reg.gauge("optabs_service_queue_depth")
          .set(static_cast<int64_t>(Stats.QueueDepth));
      for (const auto &[Id, S] : Sessions)
        pendingGauge(Id).set(
            static_cast<int64_t>(S.Pending.size() + S.Running));
    }
  }

  /// A session's pending gauge: pending + running jobs, i.e. what counts
  /// against its in-flight quota. Registry entries are never removed, so
  /// closeSession zeroes it once and it stays at zero.
  static support::Gauge &pendingGauge(uint64_t Session) {
    return support::MetricRegistry::global().gauge(
        "optabs_service_session_" + std::to_string(Session) + "_pending");
  }

  /// Scheduler only, lock held. Applies pending epoch migrations to the
  /// forward shards, evicts whatever is left under a stale key, fails (or
  /// re-validates) still-queued jobs from retired epochs, and drops
  /// retired registrations no cached run references any more.
  void processInvalidations() {
    for (auto &[Name, Slot] : Programs) {
      if (!Slot.NeedsInvalidation)
        continue;
      uint64_t Live = Slot.Current->Epoch;

      // Per shard, migrations first (empty after a full invalidation):
      // re-key every surviving epoch's entries into the new one, in
      // re-registration order, then evict whatever is left under a stale
      // key. Stale data inside migrated entries is shadowed by the
      // per-check MinDataEpoch floor at lookup time, so re-keying is
      // sound wholesale.
      size_t Migrated = 0, N = 0;
      Slot.forEachShard([&](auto &Sh) {
        for (const auto &[From, To] : Slot.PendingMigrations)
          Migrated += Sh.Runs.migrateEpoch(From, To);
        N += Sh.Runs.evictKeysWhere(
            [Live](const auto &K) { return K.ProgramEpoch != Live; });
      });
      Slot.PendingMigrations.clear();
      if (Migrated) {
        Stats.EntriesMigrated += Migrated;
        bumpServiceCounter("optabs_service_entries_migrated_total", Migrated);
      }
      Stats.StaleEntriesInvalidated += N;
      Stats.EntriesInvalidated += N;
      bumpServiceCounter("optabs_service_stale_invalidated_total", N);

      sweepStalePending(Name, Slot, Live);
      pruneRetired(Slot, Live);
      Slot.NeedsInvalidation = false;
    }
  }

  /// Lock held. Jobs queued before a re-registration either survive (their
  /// check's footprint is provably untouched) or fail with a structured
  /// stale-epoch reason. Fulfilling promises under the lock follows the
  /// shutdown path's precedent.
  void sweepStalePending(const std::string &Name, ProgramSlot &Slot,
                         uint64_t Live) {
    size_t Failed = 0;
    for (auto &[SId, S] : Sessions) {
      if (S.ProgramName != Name)
        continue;
      for (auto It = S.Pending.begin(); It != S.Pending.end();) {
        PendingJob &J = *It;
        if (J.Epoch == Live) {
          ++It;
          continue;
        }
        bool Clean = J.Spec.Check < Slot.CheckLastDirty.size() &&
                     Slot.CheckLastDirty[J.Spec.Check] <= J.Epoch;
        if (Clean) {
          // Same check, same footprint, both hashes unchanged: the job's
          // result against the new version is bitwise what it would have
          // been against the one it was submitted under.
          J.Epoch = Live;
          ++It;
          continue;
        }
        noteTerminal(J, SId, "failed");
        J.Promise.set_value(ended(
            J.Id, SId, JobStatus::Failed,
            "stale epoch: program '" + Name + "' was re-registered (epoch " +
                std::to_string(J.Epoch) + " -> " + std::to_string(Live) +
                ") and check " + std::to_string(J.Spec.Check) +
                " could not be proven unaffected while the job was queued"));
        ++Stats.JobsFailed;
        ++Failed;
        It = S.Pending.erase(It);
      }
    }
    if (Failed) {
      setQueueDepth();
      IdleCV.notify_all();
    }
  }

  /// Lock held. A retired registration stays alive while any cached run's
  /// data epoch references it (migrated entries keep their original data
  /// epoch, so retired IR can outlive several re-registrations).
  void pruneRetired(ProgramSlot &Slot, uint64_t Live) {
    if (Slot.Retired.empty())
      return;
    std::vector<uint64_t> Referenced;
    Slot.forEachShard([&](auto &Sh) {
      Sh.Runs.forEachDataEpoch(
          [&](uint64_t E) { Referenced.push_back(E); });
    });
    Slot.Retired.erase(
        std::remove_if(Slot.Retired.begin(), Slot.Retired.end(),
                       [&](const std::shared_ptr<ProgramEntry> &E) {
                         return E->Epoch != Live &&
                                std::find(Referenced.begin(), Referenced.end(),
                                          E->Epoch) == Referenced.end();
                       }),
        Slot.Retired.end());
  }

  /// Extracts the next coalesced batch. Returns false when nothing is
  /// runnable. Lock held.
  bool pickBatch(Batch &B) {
    // Fair share: the open session with the fewest served jobs (ties to
    // the older session) leads.
    SessionState *Lead = nullptr;
    for (auto &[Id, S] : Sessions) {
      if (S.Pending.empty())
        continue;
      if (!Lead || S.Served < Lead->Served)
        Lead = &S;
    }
    if (!Lead)
      return false;

    // The lead's best job (priority, then submission order) fixes the
    // shard: program, client, property, options - and, for a client run
    // per family, the tracked site, since one driver run handles one site.
    const PendingJob *Best = nullptr;
    for (const PendingJob &J : Lead->Pending)
      if (!Best || J.Spec.Priority > Best->Spec.Priority ||
          (J.Spec.Priority == Best->Spec.Priority && J.Id < Best->Id))
        Best = &J;

    // A client without families ignores the site: its jobs batch, and
    // its verdicts key, at site 0.
    bool PerSite = false;
    forEachClient([&](auto T) {
      PerSite |= T.SpillKind == Lead->Client && T.HasFamily;
    });
    B.ProgramName = Lead->ProgramName;
    B.Client = Lead->Client;
    B.Property = Lead->Property;
    B.Site = PerSite ? Best->Spec.Site : 0;
    B.Cfg = Lead->Cfg;
    B.OptionsSig = Lead->OptionsSig;

    // Coalesce matching jobs from every compatible session.
    for (auto &[Id, S] : Sessions) {
      if (S.Pending.empty())
        continue;
      if (S.ProgramName != B.ProgramName || S.Client != B.Client ||
          S.Property != B.Property || S.OptionsSig != Lead->OptionsSig)
        continue;
      for (auto It = S.Pending.begin(); It != S.Pending.end();) {
        if (PerSite && It->Spec.Site != B.Site) {
          ++It;
          continue;
        }
        B.Jobs.push_back(std::move(*It));
        B.JobSessions.push_back(Id);
        It = S.Pending.erase(It);
        ++S.Running;
      }
    }
    // Global submission order: what the "one client submitting the same
    // list to a standalone driver" order would have been.
    std::vector<size_t> Order(B.Jobs.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    std::sort(Order.begin(), Order.end(), [&](size_t X, size_t Y) {
      return B.Jobs[X].Id < B.Jobs[Y].Id;
    });
    std::vector<PendingJob> Jobs;
    std::vector<uint64_t> JobSessions;
    Jobs.reserve(Order.size());
    for (size_t I : Order) {
      Jobs.push_back(std::move(B.Jobs[I]));
      JobSessions.push_back(B.JobSessions[I]);
    }
    B.Jobs = std::move(Jobs);
    B.JobSessions = std::move(JobSessions);
    InFlight = B.Jobs.size();

    auto SlotIt = Programs.find(B.ProgramName);
    if (SlotIt != Programs.end()) {
      B.Slot = &SlotIt->second;
      B.Entry = SlotIt->second.Current;
    }
    B.Replays.resize(B.Jobs.size());
    B.ReplayFootprints.resize(B.Jobs.size());
    if (B.Slot && B.Entry) {
      // Snapshot the per-check freshness floor (the driver reads it
      // without the lock) and resolve which jobs replay a stored verdict.
      B.MinDataByCheck = B.Slot->CheckLastDirty;
      for (size_t I = 0; I < B.Jobs.size(); ++I) {
        VerdictKey K = B.verdictKey(B.Jobs[I].Spec.Check);
        auto It = B.Slot->Verdicts.find(K);
        if (It == B.Slot->Verdicts.end())
          continue;
        const VerdictEntry &E = It->second;
        // Cross-epoch survivors replay: E outlived at least one
        // re-registration with its check's footprint clean (the filter at
        // re-register erased it otherwise; the comparison here re-checks
        // defensively). Snapshot-loaded verdicts replay within the epoch
        // that admitted them as well - their load-time footprint diff is
        // the same proof a survivor gets from re-registration.
        if ((E.Loaded || E.DataEpoch < B.Entry->Epoch) &&
            K.Check < B.MinDataByCheck.size() &&
            B.MinDataByCheck[K.Check] <= E.DataEpoch) {
          B.Replays[I] = E;
          B.ReplayFootprints[I] = footprintNames(*B.Slot, K.Check);
        }
      }
    }

    // Disk spill tier: armed for this batch when persistence is on; spill
    // files are stamped with the program fingerprint. Snapshot the hash
    // here, under the lock - a re-registration may replace the
    // fingerprint while executeBatch runs without it.
    if (B.Slot && B.Entry && persistenceEnabled())
      B.FpHash = fingerprintHashOf(B.Slot->Fingerprint);

    // Trace identity: the batch rides the lead (first-by-submission) job's
    // trace, with the batch sequence number as its span.
    B.Id = NextBatch++;
    if (timingOn())
      B.PickNs = nowNs();
    B.Ctx.TraceId = B.Jobs.empty() ? B.Id : B.Jobs.front().Ctx.TraceId;
    B.Ctx.SpanId = B.Id;
    if (Recorder) {
      for (size_t I = 0; I < B.Jobs.size(); ++I) {
        const PendingJob &J = B.Jobs[I];
        support::TraceEvent E =
            traceEvent("batched", J.Ctx, J.Id, B.JobSessions[I], B.Id);
        E.TsNs = B.PickNs;
        E.U0 = B.Jobs.size(); // peer count, this job included
        E.U1 = J.Spec.Check;
        Recorder->record(E);
        if (JobTimeline *T = timeline(J.Id)) {
          T->Status = "batched";
          T->Batch = B.Id;
          T->Peers = B.Jobs.size();
          T->PickNs = B.PickNs;
        }
      }
    }
    return true;
  }

  /// Scheduler only, lock NOT held: runs the batch's driver.
  BatchResult executeBatch(Batch &B) {
    BatchResult R;
    if (timingOn())
      R.RunStartNs = nowNs();
    R.Results.resize(B.Jobs.size());
    R.TraceRound.assign(B.Jobs.size(), 0);
    R.TraceForm.assign(B.Jobs.size(), 0);
    for (size_t I = 0; I < B.Jobs.size(); ++I) {
      R.Results[I].Job = B.Jobs[I].Id;
      R.Results[I].Session = B.JobSessions[I];
      R.Results[I].Status = JobStatus::Failed;
    }
    if (!B.Entry) {
      for (QueryResult &Res : R.Results)
        Res.Error = "program '" + B.ProgramName + "' is not registered";
      return R;
    }
    // Everything below is written once over the batch client's shard.
    B.Slot->forEachShard([&](auto &Sh) {
      if (Sh.SpillKind == B.Client)
        runBatch(B, Sh, R);
    });
    return R;
  }

  /// executeBatch's body for the batch's client shard \p Sh: replays
  /// stored verdicts, runs one driver over the remaining queries, and
  /// fills \p R. Scheduler only, lock NOT held.
  template <typename ShardT>
  void runBatch(Batch &B, ShardT &Sh, BatchResult &R) {
    ir::Program &P = *B.Entry->P;
    std::string TraceLabel =
        "service/" + B.ProgramName + "/" + ShardT::traceLabel(B.Site);

    // Jobs with a stored verdict replay it wholesale - result fields and
    // the event-trace verdict line the original run emitted - and never
    // reach the driver. The line is byte-identical to what a cold run
    // would write: §6 grouping is exact, so a query's resolution round,
    // iterations and witness are independent of batch composition, and
    // the "query" field is the check id, not a batch position.
    std::vector<ir::CheckId> Queries;
    std::vector<size_t> QueryJob; ///< batch-job index per query
    tracer::EventTraceWriter ReplayTrace;
    for (size_t I = 0; I < B.Jobs.size(); ++I) {
      const JobSpec &Spec = B.Jobs[I].Spec;
      if (Spec.Check >= P.numChecks()) {
        R.Results[I].Error = "check " + std::to_string(Spec.Check) +
                             " out of range (program has " +
                             std::to_string(P.numChecks()) + " checks)";
        continue;
      }
      if (ShardT::HasFamily && Spec.Site >= ShardT::numGroups(P)) {
        R.Results[I].Error = "site " + std::to_string(Spec.Site) +
                             " out of range (program has " +
                             std::to_string(ShardT::numGroups(P)) +
                             " allocation sites)";
        continue;
      }
      if (I < B.Replays.size() && B.Replays[I]) {
        const VerdictEntry &E = *B.Replays[I];
        if (Recorder) {
          support::TraceEvent TE = traceEvent("replayed", B.Jobs[I].Ctx,
                                              B.Jobs[I].Id, B.JobSessions[I],
                                              B.Id);
          TE.U0 = E.DataEpoch; // epoch of the run the verdict came from
          TE.Note = B.ReplayFootprints[I];
          Recorder->record(TE);
        }
        QueryResult &Res = R.Results[I];
        Res.Status = JobStatus::Done;
        Res.V = E.V;
        Res.Iterations = E.Iterations;
        Res.CheapestCost = E.CheapestCost;
        Res.CheapestParam = E.CheapestParam;
        if (E.TraceForm != 0 &&
            !B.Cfg.Observability.EventTracePath.empty()) {
          if (!ReplayTrace.enabled())
            ReplayTrace.open(B.Cfg.Observability.EventTracePath, TraceLabel);
          ReplayTrace.write(tracer::verdictEvent(TraceLabel, Spec.Check, E));
        }
        continue;
      }
      QueryJob.push_back(I);
      Queries.push_back(ir::CheckId(Spec.Check));
    }
    if (Queries.empty())
      return;

    Config O = B.Cfg;
    O.Observability.EventTraceLabel = TraceLabel;
    const std::vector<uint64_t> *MinData =
        B.MinDataByCheck.empty() ? nullptr : &B.MinDataByCheck;

    // Arm the disk spill tier for the duration of the run: the ladder's
    // first rung then demotes cold entries to spill files instead of
    // dropping them, and cache misses consult the spill dir before
    // recomputing (how a freshly restarted worker re-warms lazily).
    if (B.FpHash)
      armSpill(*B.Slot, B.Entry, B.FpHash);

    Timer BatchTimer;
    try {
      uint64_t Family =
          ShardT::familyOf(B.Slot->Families, B.Property, B.Site);
      auto *A = ShardT::analysisFor(*B.Entry, B.Property, B.Site);
      if (!A)
        throw std::runtime_error("invalid property '" + B.Property + "'");
      tracer::QueryDriver<typename ShardT::Analysis> D(P, *A, O);
      D.borrowExecution(Pool.get(), &Sh.Runs, B.Entry->Epoch, Family,
                        MinData, Recorder.get(), B.Ctx, B.Id,
                        entryLiveness(*B.Entry), entryReach(*B.Entry));
      std::vector<tracer::QueryOutcome> Outcomes = D.run(Queries);
      R.DS = D.stats();
      R.Ran = true;
      for (size_t Q = 0; Q < Outcomes.size(); ++Q) {
        QueryResult &Res = R.Results[QueryJob[Q]];
        const tracer::QueryOutcome &Out = Outcomes[Q];
        Res.Status = JobStatus::Done;
        Res.V = Out.V;
        Res.Iterations = Out.Iterations;
        Res.CheapestCost = Out.CheapestCost;
        Res.CheapestParam = Out.CheapestParam;
        if (Out.Exhaustion) {
          Res.ExhaustedResource = support::resourceName(Out.Exhaustion->Res);
          Res.ExhaustedSite = Out.Exhaustion->Site;
        }
        R.TraceRound[QueryJob[Q]] = Out.TraceRound;
        R.TraceForm[QueryJob[Q]] = Out.TraceForm;
      }
    } catch (const std::exception &E) {
      for (size_t I : QueryJob)
        if (R.Results[I].Status != JobStatus::Done)
          R.Results[I].Error = std::string("batch execution failed: ") +
                               E.what();
    }
    R.Seconds = BatchTimer.seconds();
    // Detach the trace sink: the next batch on this slot re-arms it with
    // its own context via borrowExecution. Likewise the spill hooks, which
    // validate against this batch's entry and epoch.
    if (Recorder)
      Sh.Runs.setTraceSink(nullptr);
    if (B.FpHash)
      disarmSpill(*B.Slot);
    if (Recorder && R.Ran) {
      auto Phase = [&](const char *Name, double S) {
        support::TraceEvent E = traceEvent("phase", B.Ctx, 0, 0, B.Id);
        E.Note = Name;
        E.D0 = S;
        Recorder->record(E);
      };
      Phase("plan", R.DS.Phases.Plan);
      Phase("forward", R.DS.Phases.Forward);
      Phase("classify", R.DS.Phases.Classify);
      Phase("extract", R.DS.Phases.Extract);
      Phase("backward", R.DS.Phases.Backward);
      Phase("merge", R.DS.Phases.Merge);
      support::TraceEvent E = traceEvent("run", B.Ctx, 0, 0, B.Id);
      E.U0 = R.DS.CacheHits;
      E.U1 = R.DS.CacheMisses;
      E.D0 = R.Seconds;
      Recorder->record(E);
    }
  }

  // -- persistent cache tier (scheduler thread only) ---------------------

  /// True when the on-disk tier is usable at all: it needs a directory to
  /// write into.
  bool persistenceEnabled() const {
    return !Opts.Base.Service.CacheDir.empty();
  }

  /// The entry's liveness table, built on first use (see
  /// ProgramEntry::Live).
  const ir::CommandLiveness *entryLiveness(ProgramEntry &E) {
    if (!E.Live)
      E.Live = std::make_unique<ir::CommandLiveness>(*E.P);
    return E.Live.get();
  }

  /// The entry's check-reach table, built on first use (see
  /// ProgramEntry::Reach).
  const ir::CheckReach *entryReach(ProgramEntry &E) {
    if (!E.Reach)
      E.Reach = std::make_unique<ir::CheckReach>(*E.P);
    return E.Reach.get();
  }

  std::string snapshotPathFor(const std::string &Name) const {
    return Opts.Base.Service.CacheDir + "/prog-" +
           hex16(tracer::snapshotHash(Name.data(), Name.size())) + ".snap";
  }

  /// A spill file's stamp: the program fingerprint hash and the run's
  /// file identity (RunId) - deliberately NOT the registration epoch,
  /// which restarts at 1 in every process, nor the family index, which
  /// each process assigns in its own order. Two processes (or two
  /// registrations) of the same program re-warm from each other's spill
  /// files; any other program or property hashes elsewhere, and the stamp
  /// stored inside the file re-verifies the match on load.
  static tracer::SnapshotWriter spillStamp(uint64_t FpHash, const RunId &Id) {
    tracer::SnapshotWriter W;
    W.u64(FpHash);
    Id.write(W);
    return W;
  }

  /// The spill file named by the hash of stamp \p Stamp.
  std::string spillPathFor(const tracer::SnapshotWriter &Stamp) const {
    const std::string &B = Stamp.payload();
    return Opts.Base.Service.CacheDir + "/spill-" +
           hex16(tracer::snapshotHash(B.data(), B.size())) + ".spill";
  }

  /// First-use seeding of the spill-byte accounting: spill files already
  /// in the cache dir (this worker's previous life, or a peer's in a
  /// shared dir) count against the budget from the start, so a restart
  /// never resets it.
  void ensureSpillAccounting() {
    if (SpillBytesScanned)
      return;
    SpillBytesScanned = true;
    DIR *D = ::opendir(Opts.Base.Service.CacheDir.c_str());
    if (!D)
      return;
    while (struct dirent *Ent = ::readdir(D)) {
      std::string N = Ent->d_name;
      if (N.size() < 12 || N.compare(0, 6, "spill-") != 0 ||
          N.compare(N.size() - 6, 6, ".spill") != 0)
        continue;
      struct stat SB;
      if (::stat((Opts.Base.Service.CacheDir + "/" + N).c_str(), &SB) == 0)
        SpillBytesUsed += static_cast<uint64_t>(SB.st_size);
    }
    ::closedir(D);
  }

  /// Writes one spilled run: the stamp (spillStamp), then the run
  /// payload. Returns false when the spill-byte budget is exhausted or
  /// the write fails - the caller (ForwardRunCache::spillUnpinned) then
  /// evicts without spilling.
  template <typename ShardT>
  bool writeSpill(uint64_t FpHash, const RunId &Id,
                  const typename ShardT::Forward &Run) {
    ensureSpillAccounting();
    tracer::SnapshotWriter W = spillStamp(FpHash, Id);
    std::string Path = spillPathFor(W);
    // A rewrite replaces its old file, so only the net usage counts -
    // both for the budget gate and for the post-commit accounting.
    struct stat SB;
    uint64_t OldBytes =
        ::stat(Path.c_str(), &SB) == 0 ? static_cast<uint64_t>(SB.st_size)
                                       : 0;
    uint64_t NetUsed =
        SpillBytesUsed > OldBytes ? SpillBytesUsed - OldBytes : 0;
    uint64_t Budget = Opts.Base.Service.SpillBytes;
    if (Budget > 0 && NetUsed >= Budget)
      return false;
    using CodecT = typename ShardT::Codec;
    tracer::RunSink<CodecT> S{W, CodecT(Run.client())};
    Run.saveTo(S);
    std::string Err;
    if (!ensureDir(Opts.Base.Service.CacheDir) || !W.commit(Path, Err))
      return false;
    SpillBytesUsed = NetUsed + W.payload().size() + 20; // + header/checksum
    return true;
  }

  /// Opens and stamp-validates one spill file; true when it matches the
  /// requested run exactly (hash-collision paths fail here, not later).
  bool openSpill(tracer::SnapshotReader &R, uint64_t FpHash,
                 const RunId &Id) {
    tracer::SnapshotWriter Want = spillStamp(FpHash, Id);
    if (!R.open(spillPathFor(Want)))
      return false;
    uint64_t GotFp = 0;
    RunId Got;
    if (!R.u64(GotFp) || !Got.read(R))
      return false;
    if (spillStamp(GotFp, Got).payload() != Want.payload()) {
      R.fail("spill stamp does not match the requested key");
      return false;
    }
    return true;
  }

  /// Reads one run payload for key bits \p Bits of analysis \p A into a
  /// fresh forward run against \p E's tables; null when the payload does
  /// not parse.
  template <typename ShardT>
  std::unique_ptr<typename ShardT::Forward>
  readRun(tracer::SnapshotReader &R, ProgramEntry &E,
          typename ShardT::Analysis &A, const std::vector<bool> &Bits) {
    auto Run = std::make_unique<typename ShardT::Forward>(
        *E.P, A, A.paramFromBits(Bits), entryLiveness(E), entryReach(E));
    using CodecT = typename ShardT::Codec;
    tracer::RunSource<CodecT> S{R, CodecT(A)};
    if (!Run->loadFrom(S) || R.failed())
      return nullptr;
    return Run;
  }

  /// Arms every cache shard of \p Slot with disk-tier hooks bound to
  /// \p Entry and \p FpHash. The hooks run on the scheduler thread only
  /// (inside executeBatch's driver run, or inside an admin spill op) and
  /// must be disarmed with disarmSpill afterwards: they capture the entry
  /// they validate against, and a later batch may run a newer epoch.
  void armSpill(ProgramSlot &Slot, std::shared_ptr<ProgramEntry> Entry,
                uint64_t FpHash) {
    ProgramSlot *SlotP = &Slot;
    Slot.forEachShard([&](auto &Sh) {
      using ShardT = std::decay_t<decltype(Sh)>;
      using Key = typename ShardT::Key;
      using Forward = typename ShardT::Forward;
      Sh.Runs.setSpillStore(
          [this, SlotP, Entry, FpHash](const Key &K, const Forward &Run,
                                       uint64_t DataEpoch) {
            // Only runs computed against this exact program version
            // spill: a migrated run (older data epoch) contains stale
            // values for dirty procedures, shadowed in memory by the
            // per-check freshness floor - but a reload would stamp it
            // fresh, so it must evict instead.
            if (DataEpoch != Entry->Epoch)
              return false;
            return writeSpill<ShardT>(
                FpHash, ShardT::idOf(SlotP->Families, K), Run);
          },
          [this, SlotP, Entry, FpHash](const Key &K, uint64_t *DataEpoch)
              -> std::unique_ptr<Forward> {
            RunId Id = ShardT::idOf(SlotP->Families, K);
            tracer::SnapshotReader R;
            if (!openSpill(R, FpHash, Id))
              return nullptr;
            auto *A = ShardT::analysisFor(*Entry, Id.Property, Id.Site);
            if (!A)
              return nullptr;
            std::unique_ptr<Forward> Run =
                readRun<ShardT>(R, *Entry, *A, K.Bits);
            if (Run)
              *DataEpoch = Entry->Epoch;
            return Run;
          });
    });
  }

  void disarmSpill(ProgramSlot &Slot) {
    Slot.forEachShard(
        [](auto &Sh) { Sh.Runs.setSpillStore(nullptr, nullptr); });
  }

  /// Still-valid entries of an existing on-disk snapshot, collected on
  /// the side by loadProgram's merge mode so persistProgram can union
  /// them into the file it writes WITHOUT touching the live slot: a
  /// persist must stay read-only on verdicts, caches, freshness floors
  /// and family indices (a "persist" that loaded would also widen the
  /// trigger surface of any load-path bug to every shutdown snapshot).
  /// Entries here passed the same per-entry validation a live load
  /// applies and are absent from the live slot, so re-serializing them
  /// against the live fingerprint is sound. Runs keep their RunId.
  struct SnapshotMerge {
    std::map<VerdictKey, VerdictEntry> Verdicts;
    PerClient<MergedRuns> Runs;
    template <typename A> MergedRuns<A> &runs() {
      return std::get<MergedRuns<A>>(Runs);
    }
  };

  /// Snapshots one program slot - fingerprint, stored verdicts, and every
  /// cached forward run computed against the live version - into
  /// CacheDir. Lock held (enumeration only; no waiting).
  void persistProgram(const std::string &Name, ProgramSlot &Slot,
                      CacheOpResult &Res) {
    if (!Slot.Current) {
      Res.Notes.push_back("program '" + Name + "': no live registration");
      return;
    }
    // Merge-on-persist: processes sharing a cache dir (the shard fleet)
    // persist to the same per-program path, so the write is a union with
    // the still-valid entries already on disk, not a clobber - an idle
    // shard re-writes its peers' runs rather than erasing them. Stale or
    // corrupt snapshots contribute nothing (see SnapshotMerge).
    SnapshotMerge Merge;
    struct stat SB;
    if (::stat(snapshotPathFor(Name).c_str(), &SB) == 0)
      loadProgram(Name, Slot, Res, &Merge);
    uint64_t Live = Slot.Current->Epoch;
    tracer::SnapshotWriter W;
    W.str(Name);
    const ir::ProgramFingerprint &Fp = Slot.Fingerprint;
    W.u32(static_cast<uint32_t>(Fp.Procs.size()));
    for (const auto &P : Fp.Procs) {
      W.str(P.Name);
      W.u64(P.ContentHash);
      W.u64(P.LivenessHash);
    }
    W.u32(Fp.NumVars);
    W.u32(Fp.NumGlobals);
    W.u32(Fp.NumFields);
    W.u32(Fp.NumAllocs);
    W.u32(Fp.NumMethods);
    W.u32(Fp.NumSymbols);
    W.u32(Fp.NumChecks);
    W.u32(Fp.MainProc);

    auto WriteVerdict = [&](const VerdictKey &K, const VerdictEntry &E) {
      W.u8(K.Client);
      W.str(K.Property);
      W.u32(K.Site);
      W.str(K.OptionsSig);
      W.u32(K.Check);
      W.u8(static_cast<uint8_t>(E.V));
      W.u32(E.Iterations);
      W.u32(E.CheapestCost);
      W.str(E.CheapestParam);
      W.u32(E.TraceRound);
      W.u8(E.TraceForm);
      ++Res.VerdictsPersisted;
    };
    W.u32(static_cast<uint32_t>(Slot.Verdicts.size() +
                                Merge.Verdicts.size()));
    for (const auto &[K, E] : Slot.Verdicts)
      WriteVerdict(K, E);
    for (const auto &[K, E] : Merge.Verdicts)
      WriteVerdict(K, E);

    // Forward runs: only those computed against the live version persist
    // (see the spill-hook comment on migrated runs). Snapshot loading
    // requires a bitwise-identical program anyway, so nothing of value is
    // lost - a migrated run's data epoch proves it predates this version.
    uint64_t Skipped = 0;
    Slot.forEachShard([&](auto &Sh) {
      using ShardT = std::decay_t<decltype(Sh)>;
      using Key = typename ShardT::Key;
      using Forward = typename ShardT::Forward;
      std::vector<std::pair<RunId, const Forward *>> Runs;
      Sh.Runs.forEachEntry(
          [&](const Key &K, const Forward &Run, uint64_t DataEpoch) {
            if (K.ProgramEpoch == Live && DataEpoch == Live)
              Runs.emplace_back(ShardT::idOf(Slot.Families, K), &Run);
            else
              ++Skipped;
          });
      for (const auto &[Id, Run] : Merge.runs<typename ShardT::Analysis>())
        Runs.emplace_back(Id, Run.get());
      W.u32(static_cast<uint32_t>(Runs.size()));
      for (const auto &[Id, Run] : Runs) {
        Id.write(W);
        using CodecT = typename ShardT::Codec;
        tracer::RunSink<CodecT> S{W, CodecT(Run->client())};
        Run->saveTo(S);
        ++Res.RunsPersisted;
      }
    });
    if (Skipped) {
      Res.RunsSkipped += Skipped;
      Res.Notes.push_back(
          "program '" + Name + "': skipped " + std::to_string(Skipped) +
          " cached run(s) not computed against the live version");
    }

    std::string Err;
    if (!ensureDir(Opts.Base.Service.CacheDir)) {
      Res.Ok = false;
      Res.Error = "cannot create cache directory '" +
                  Opts.Base.Service.CacheDir + "'";
      return;
    }
    if (!W.commit(snapshotPathFor(Name), Err)) {
      Res.Ok = false;
      Res.Error = Err;
    }
  }

  /// Warms one program slot from its snapshot, validating every artifact
  /// against the live fingerprint exactly like a re-registration diff:
  /// verdicts load per-check when the check's dependence footprint avoids
  /// every procedure that changed since the snapshot; forward runs load
  /// only when the program is bitwise identical to the snapshot version.
  /// Anything else - and any structural damage - is skipped with a note,
  /// never served. With \p Merge set, validated entries absent from the
  /// live slot are collected there instead of inserted (the merge half
  /// of persistProgram); verdicts, caches, and freshness floors of the
  /// live slot are then untouched. Lock held.
  void loadProgram(const std::string &Name, ProgramSlot &Slot,
                   CacheOpResult &Res, SnapshotMerge *Merge = nullptr) {
    if (!Slot.Current) {
      Res.Notes.push_back("program '" + Name + "': no live registration");
      return;
    }
    tracer::SnapshotReader R;
    if (!R.open(snapshotPathFor(Name))) {
      Res.Notes.push_back(R.error());
      return;
    }
    readSnapshot(Name, Slot, R, Res, Merge);
    // Every structural failure latches in the reader and ends the read.
    if (R.failed())
      Res.Notes.push_back(R.error());
  }

  /// The body of loadProgram: returns at the first failed read.
  void readSnapshot(const std::string &Name, ProgramSlot &Slot,
                    tracer::SnapshotReader &R, CacheOpResult &Res,
                    SnapshotMerge *Merge) {
    std::string SnapName;
    if (!R.str(SnapName))
      return;
    if (SnapName != Name) {
      Res.Notes.push_back("snapshot " + snapshotPathFor(Name) +
                          ": names program '" + SnapName + "', not '" +
                          Name + "'");
      return;
    }
    ir::ProgramFingerprint SnapFp;
    uint32_t NumProcs = 0;
    if (!R.u32(NumProcs))
      return;
    // Each proc record is at least 20 bytes (length-prefixed name plus
    // two u64 hashes); a larger count is provably truncated and must not
    // size the resize below.
    if (NumProcs > R.remaining() / 20)
      return R.fail("fingerprint proc count exceeds the remaining payload");
    SnapFp.Procs.resize(NumProcs);
    for (auto &P : SnapFp.Procs)
      if (!R.str(P.Name) || !R.u64(P.ContentHash) || !R.u64(P.LivenessHash))
        return;
    if (!R.u32(SnapFp.NumVars) || !R.u32(SnapFp.NumGlobals) ||
        !R.u32(SnapFp.NumFields) || !R.u32(SnapFp.NumAllocs) ||
        !R.u32(SnapFp.NumMethods) || !R.u32(SnapFp.NumSymbols) ||
        !R.u32(SnapFp.NumChecks) || !R.u32(SnapFp.MainProc))
      return;

    // The snapshot-to-live diff: the same comparison a re-registration
    // makes between the retiring and new versions, and the sole authority
    // on what may load. Identical program = everything; comparable =
    // per-check verdicts; incomparable = nothing.
    ir::ProgramDiff D = ir::diffPrograms(SnapFp, Slot.Fingerprint);
    const bool Identical = D.Comparable && D.numDirty() == 0;
    if (!D.Comparable)
      Res.Notes.push_back("program '" + Name +
                          "': snapshot version is incomparable with the "
                          "live version (entity tables or main differ); "
                          "nothing loaded");

    // Stored verdicts: per-check validation, exactly the re-registration
    // filter. A loaded verdict is stamped with the live epoch - the
    // version the footprint comparison just proved it exact for - plus
    // the Loaded flag that lets it replay within that epoch. The
    // CheckLastDirty floors are deliberately never touched: they also
    // shadow stale migrated forward runs in the in-memory caches, and
    // lowering one to admit a verdict would serve those runs as fresh.
    uint32_t NumVerdicts = 0;
    if (!R.u32(NumVerdicts))
      return;
    uint64_t StaleVerdicts = 0;
    for (uint32_t I = 0; I < NumVerdicts; ++I) {
      VerdictKey K;
      VerdictEntry E;
      uint8_t V = 0;
      uint32_t Iter = 0, Round = 0;
      if (!R.u8(K.Client) || !R.str(K.Property) || !R.u32(K.Site) ||
          !R.str(K.OptionsSig) || !R.u32(K.Check) || !R.u8(V) ||
          !R.u32(Iter) || !R.u32(E.CheapestCost) ||
          !R.str(E.CheapestParam) || !R.u32(Round) || !R.u8(E.TraceForm))
        return;
      bool Known = false;
      forEachClient([&](auto T) { Known |= T.SpillKind == K.Client; });
      if (!Known || V > 2 || E.TraceForm > 2)
        return R.fail("verdict record field out of range");
      E.V = static_cast<tracer::Verdict>(V);
      E.Iterations = Iter;
      E.TraceRound = Round;
      E.DataEpoch = Slot.Current->Epoch;
      E.Loaded = true;
      if (!D.Comparable || K.Check >= Slot.CheckFootprints.size() ||
          footprintHits(Slot.CheckFootprints[K.Check], D.DirtyProcs)) {
        ++StaleVerdicts;
        continue;
      }
      if (Slot.Verdicts.count(K)) {
        ++Res.VerdictsSkipped;
        continue; // a live verdict is always at least as fresh
      }
      if (Merge) {
        Merge->Verdicts.emplace(std::move(K), std::move(E));
        continue;
      }
      Slot.Verdicts.emplace(std::move(K), std::move(E));
      ++Res.VerdictsLoaded;
    }
    if (StaleVerdicts) {
      Res.VerdictsSkipped += StaleVerdicts;
      Res.Notes.push_back("program '" + Name + "': skipped " +
                          std::to_string(StaleVerdicts) +
                          " stored verdict(s) whose check footprint "
                          "changed since the snapshot");
    }

    // Forward runs: all-or-nothing on program identity. Their values are
    // indexed by statement/command ids across the whole program, so any
    // dirty procedure poisons the address space; per-check shadowing
    // cannot save them the way it does live migrated entries, because a
    // load stamps the current epoch as the data epoch.
    if (!Identical && D.Comparable)
      Res.Notes.push_back("program '" + Name + "': " +
                          std::to_string(D.numDirty()) +
                          " procedure(s) changed since the snapshot; "
                          "cached runs not loaded");
    bool Stopped = false;
    Slot.forEachShard([&](auto &Sh) {
      Stopped =
          Stopped || !loadRuns(Name, Slot, Sh, R, Identical, Res, Merge);
    });
  }

  /// One shard's section of a snapshot being loaded (see loadProgram).
  /// Returns false when the record stream cannot be read any further.
  template <typename ShardT>
  bool loadRuns(const std::string &Name, ProgramSlot &Slot, ShardT &Sh,
                tracer::SnapshotReader &R, bool Identical, CacheOpResult &Res,
                SnapshotMerge *Merge) {
    uint32_t NumRuns = 0;
    if (!R.u32(NumRuns))
      return false;
    ProgramEntry &E = *Slot.Current;
    // A run enters the live slot under the index its property text maps
    // to there. A merge keeps the text: it probes residency through a
    // copy of the index, so it assigns no live index.
    FamilyIndex Probe;
    FamilyIndex &F = Merge ? (Probe = Slot.Families) : Slot.Families;
    for (uint32_t I = 0; I < NumRuns; ++I) {
      RunId Id;
      if (!Id.read(R))
        return false;
      if (Id.Client != ShardT::SpillKind ||
          (!ShardT::HasFamily && (!Id.Property.empty() || Id.Site != 0))) {
        R.fail("run record key does not belong to its client section");
        return false;
      }
      // A run's bytes cannot be read without its analysis. A family-free
      // run always has one, so a stale one is parsed past; a family's is
      // built only for a run that can load, and the stream stops at the
      // first run whose analysis cannot be built.
      typename ShardT::Analysis *A = nullptr;
      if (Identical || !ShardT::HasFamily)
        A = ShardT::analysisFor(E, Id.Property, Id.Site);
      if (!A) {
        Res.Notes.push_back(
            "program '" + Name + "': " +
            (Identical ? std::string("cannot build the ") + ShardT::Noun +
                             " analysis of a cached run; remaining runs "
                             "skipped"
                       : std::string("remaining ") + ShardT::Noun +
                             " runs not loaded (program changed since the "
                             "snapshot)"));
        Res.RunsSkipped += NumRuns - I;
        return false;
      }
      std::unique_ptr<typename ShardT::Forward> Run =
          readRun<ShardT>(R, E, *A, Id.Bits);
      if (!Run) {
        // The stream is sequential: a payload that fails to parse means
        // the rest of the record stream is unrecoverable. Keep what
        // loaded so far; it was each individually validated.
        if (!R.failed())
          Res.Notes.push_back("snapshot " + snapshotPathFor(Name) +
                              ": invalid forward-run payload");
        return false;
      }
      typename ShardT::Key K = ShardT::keyOf(F, Id, E.Epoch);
      if (!Identical || Sh.Runs.contains(K)) {
        ++Res.RunsSkipped;
        continue;
      }
      if (Merge) {
        Merge->runs<typename ShardT::Analysis>().emplace_back(std::move(Id),
                                                             std::move(Run));
        continue;
      }
      Sh.Runs.insert(std::move(K), std::move(Run), E.Epoch);
      ++Res.RunsLoaded;
    }
    return true;
  }

  /// Lock held. Executes one queued cache-admin command against the
  /// matching program slots and fulfills its promise.
  void runAdminCmd(AdminCmd &Cmd) {
    CacheOpResult Res;
    Res.Ok = true;
    auto ForEachTarget = [&](auto Fn) {
      if (!Cmd.Program.empty()) {
        auto It = Programs.find(Cmd.Program);
        if (It == Programs.end()) {
          Res.Ok = false;
          Res.Error = "program '" + Cmd.Program + "' is not registered";
          return;
        }
        Fn(It->first, It->second);
        return;
      }
      for (auto &[Name, Slot] : Programs)
        Fn(Name, Slot);
    };
    // Resident footprint plus the lifetime spill counters of a slot.
    auto Fold = [&](ProgramSlot &Slot) {
      Slot.forEachShard([&](auto &Sh) {
        tracer::ForwardCacheCounters C = Sh.Runs.counters();
        Res.Entries += Sh.Runs.size();
        Res.ResidentBytes += C.ResidentBytes;
        Res.SpillWrites += C.SpillWrites;
        Res.SpillLoads += C.SpillLoads;
      });
    };

    if (Cmd.Action == "stats") {
      ForEachTarget(
          [&](const std::string &, ProgramSlot &Slot) { Fold(Slot); });
    } else if (Cmd.Action == "persist" || Cmd.Action == "load") {
      if (!persistenceEnabled()) {
        Res.Ok = false;
        Res.Error = "cache persistence is disabled: no "
                    "service.cache_dir configured";
      } else if (Cmd.Action == "persist") {
        ForEachTarget([&](const std::string &Name, ProgramSlot &Slot) {
          persistProgram(Name, Slot, Res);
        });
      } else {
        ForEachTarget([&](const std::string &Name, ProgramSlot &Slot) {
          loadProgram(Name, Slot, Res);
        });
      }
    } else if (Cmd.Action == "spill" || Cmd.Action == "evict") {
      bool Spill = Cmd.Action == "spill" && persistenceEnabled();
      if (Cmd.Action == "spill" && !persistenceEnabled())
        Res.Notes.push_back("no cache_dir configured; evicting without "
                            "spilling");
      ForEachTarget([&](const std::string &, ProgramSlot &Slot) {
        uint64_t FpHash = Spill && Slot.Current
                              ? fingerprintHashOf(Slot.Fingerprint)
                              : 0;
        if (FpHash)
          armSpill(Slot, Slot.Current, FpHash);
        Slot.forEachShard([&](auto &Sh) {
          // A new cache round first: between batches no driver holds run
          // pointers, so unpinning everything (and flushing deferred
          // replacements) is safe and lets the whole shard demote.
          Sh.Runs.beginEpoch();
          uint64_t WritesBefore = Sh.Runs.counters().SpillWrites;
          size_t Left = Sh.Runs.spillUnpinned();
          uint64_t Wrote = Sh.Runs.counters().SpillWrites - WritesBefore;
          Res.Spilled += Wrote;
          Res.Evicted += Left - std::min<size_t>(Left, Wrote);
        });
        if (FpHash)
          disarmSpill(Slot);
        // The wp tables go with the runs, so a pass after this starts
        // cold. resident_bytes stays a forward-run figure.
        for (auto &E : Slot.Retired)
          E->releaseWpTables();
        if (Slot.Current)
          Slot.Current->releaseWpTables();
        // Post-operation footprint plus the lifetime spill counters, so
        // the response is self-describing (no follow-up stats op needed
        // to see where the entries went).
        Fold(Slot);
      });
    } else {
      Res.Ok = false;
      Res.Error = "unknown cache action '" + Cmd.Action +
                  "' (expected stats, persist, load, spill or evict)";
    }
    Cmd.Promise.set_value(std::move(Res));
  }

  /// Lock held. Drains the admin queue in submission order - notably
  /// before the next batch is picked, so a register-time auto-warm is
  /// visible to the first batch on that program.
  void processAdminCommands() {
    while (!AdminQueue.empty()) {
      AdminCmd Cmd = std::move(AdminQueue.front());
      AdminQueue.pop_front();
      runAdminCmd(Cmd);
    }
  }

  void schedulerLoop() {
    std::unique_lock<std::mutex> Lock(M);
    for (;;) {
      processInvalidations();
      if (ShuttingDown)
        break;
      processAdminCommands();
      Batch B;
      if ((Opts.AutoDispatch || DrainWaiters > 0) && pickBatch(B)) {
        Lock.unlock();
        BatchResult R = executeBatch(B);
        Lock.lock();
        // Record stats and replayable verdicts BEFORE the results are
        // moved into the promises: moving hollows out the string fields
        // (witness param, error text) that the verdict store keeps.
        finishBatch(B, R);
        for (size_t I = 0; I < B.Jobs.size(); ++I)
          B.Jobs[I].Promise.set_value(std::move(R.Results[I]));
        IdleCV.notify_all();
        continue;
      }
      if (queuedJobs() == 0)
        IdleCV.notify_all();
      WorkCV.wait(Lock);
    }
    // Shutdown persist: snapshot every program so the next process starts
    // warm. Runs before the promises are doomed - the caches are quiet
    // (no batch is running) and the fingerprints are final.
    if (Opts.Base.Service.PersistOnShutdown && persistenceEnabled()) {
      for (auto &[Name, Slot] : Programs) {
        CacheOpResult Res;
        Res.Ok = true;
        persistProgram(Name, Slot, Res);
      }
    }
    // Queued admin operations complete with a structured shutdown error.
    for (AdminCmd &Cmd : AdminQueue) {
      CacheOpResult Res;
      Res.Error = "service shut down";
      Cmd.Promise.set_value(std::move(Res));
    }
    AdminQueue.clear();
    // Shutdown: everything still queued completes as Cancelled.
    for (auto &[Id, S] : Sessions) {
      for (PendingJob &J : S.Pending) {
        noteTerminal(J, Id, "cancelled");
        J.Promise.set_value(
            ended(J.Id, Id, JobStatus::Cancelled, "service shut down"));
        ++Stats.JobsCancelled;
      }
      S.Pending.clear();
    }
    setQueueDepth();
    IdleCV.notify_all();
  }

  /// Lock held: folds a finished batch into stats and session accounting,
  /// and records freshly resolved verdicts for cross-epoch replay.
  void finishBatch(const Batch &B, const BatchResult &R) {
    InFlight = 0;
    ++Stats.Batches;
    Stats.CoalescedJobs += B.Jobs.size() - 1;
    BatchJobsHist.record(B.Jobs.size());
    uint64_t FulfillNs = timingOn() ? nowNs() : 0;
    for (size_t I = 0; I < B.Jobs.size(); ++I) {
      if (R.Results[I].Status == JobStatus::Done)
        ++Stats.JobsCompleted;
      else
        ++Stats.JobsFailed;
      auto It = Sessions.find(B.JobSessions[I]);
      if (It != Sessions.end()) {
        ++It->second.Served;
        --It->second.Running;
      }
      if (I < B.Replays.size() && B.Replays[I]) {
        ++Stats.VerdictsReplayed;
        bumpServiceCounter("optabs_service_verdicts_replayed_total");
        // A replayed verdict is a whole fixpoint search the batch never
        // re-ran; count it alongside in-run cache hits below.
        ++Stats.FixpointsAmortized;
        bumpServiceCounter("optabs_service_fixpoints_amortized_total");
        continue;
      }
      // Record resolved driver verdicts (never budget-unresolved ones:
      // a later run under the same options must re-attempt those). The
      // entry's DataEpoch is the epoch the batch actually ran against;
      // if the program was re-registered mid-batch, the replay-time
      // CheckLastDirty comparison decides whether it is still exact.
      if (B.Slot && R.Ran &&
          R.Results[I].Status == JobStatus::Done &&
          (R.Results[I].V == tracer::Verdict::Proven ||
           R.Results[I].V == tracer::Verdict::Impossible)) {
        const QueryResult &Res = R.Results[I];
        B.Slot->Verdicts[B.verdictKey(B.Jobs[I].Spec.Check)] = {
            .V = Res.V,
            .Iterations = Res.Iterations,
            .CheapestCost = Res.CheapestCost,
            .CheapestParam = Res.CheapestParam,
            .TraceRound = R.TraceRound[I],
            .TraceForm = R.TraceForm[I],
            .DataEpoch = B.Entry->Epoch};
      }
    }
    if (R.Ran) {
      Stats.ForwardRuns += R.DS.ForwardRuns;
      Stats.BackwardRuns += R.DS.BackwardRuns;
      Stats.CacheHits += R.DS.CacheHits;
      Stats.CacheMisses += R.DS.CacheMisses;
      Stats.CacheEvictions += R.DS.CacheEvictions;
      Stats.FixpointsAmortized += R.DS.CacheHits;
      bumpServiceCounter("optabs_service_fixpoints_amortized_total",
                         R.DS.CacheHits);
    }

    // Per-job fulfillment: SLO histograms, slow-query log, trace events
    // and `explain` timelines. One FulfillNs per batch keeps the latency
    // decomposition exact: e2e = queue-wait + batch-wait + run by ns
    // arithmetic, no residual.
    const double SlowS = Opts.Base.Observability.SlowQuerySeconds;
    for (size_t I = 0; I < B.Jobs.size(); ++I) {
      const PendingJob &J = B.Jobs[I];
      const QueryResult &Res = R.Results[I];
      double E2eS = 0;
      if (FulfillNs && J.SubmitNs) {
        uint64_t QueueNs = B.PickNs - J.SubmitNs;
        uint64_t BatchNs = R.RunStartNs - B.PickNs;
        uint64_t RunNs = FulfillNs - R.RunStartNs;
        uint64_t E2eNs = FulfillNs - J.SubmitNs;
        E2eS = static_cast<double>(E2eNs) / 1e9;
        if (support::metricsEnabled()) {
          auto &Reg = support::MetricRegistry::global();
          std::string P =
              "optabs_service_session_" + std::to_string(B.JobSessions[I]);
          Reg.histogram(P + "_queue_wait_micros").record(QueueNs / 1000);
          Reg.histogram(P + "_batch_wait_micros").record(BatchNs / 1000);
          Reg.histogram(P + "_run_micros").record(RunNs / 1000);
          Reg.histogram(P + "_e2e_micros").record(E2eNs / 1000);
        }
        if (SlowS > 0 && E2eS > SlowS) {
          ++Stats.SlowQueries;
          bumpServiceCounter("optabs_service_slow_queries_total");
          if (Recorder) {
            support::TraceEvent E = traceEvent(
                "slow-query", J.Ctx, J.Id, B.JobSessions[I], B.Id);
            E.D0 = E2eS;
            Recorder->record(E);
          }
        }
      }
      if (Recorder) {
        support::TraceEvent E =
            traceEvent("fulfilled", J.Ctx, J.Id, B.JobSessions[I], B.Id);
        E.TsNs = FulfillNs;
        E.D0 = E2eS;
        E.Note = jobStatusName(Res.Status);
        if (Res.Status == JobStatus::Done) {
          E.Note += ':';
          E.Note += tracer::verdictName(Res.V);
        }
        Recorder->record(E);
        if (JobTimeline *T = timeline(J.Id)) {
          T->Status = jobStatusName(Res.Status);
          if (Res.Status == JobStatus::Done)
            T->Verdict = tracer::verdictName(Res.V);
          T->Batch = B.Id;
          T->Peers = B.Jobs.size();
          T->PickNs = B.PickNs;
          T->RunStartNs = R.RunStartNs;
          T->FulfillNs = FulfillNs;
          if (R.Ran) {
            T->PlanS = R.DS.Phases.Plan;
            T->ForwardS = R.DS.Phases.Forward;
            T->ClassifyS = R.DS.Phases.Classify;
            T->ExtractS = R.DS.Phases.Extract;
            T->BackwardS = R.DS.Phases.Backward;
            T->MergeS = R.DS.Phases.Merge;
            T->CacheHits = R.DS.CacheHits;
            T->CacheMisses = R.DS.CacheMisses;
          }
          if (I < B.Replays.size() && B.Replays[I]) {
            T->Replayed = true;
            T->ReplayDataEpoch = B.Replays[I]->DataEpoch;
            T->CleanFootprint = B.ReplayFootprints[I];
          }
        }
      }
    }
    setQueueDepth();
    if (support::metricsEnabled()) {
      auto &Reg = support::MetricRegistry::global();
      Reg.counter("optabs_service_batches_total").add(1);
      Reg.histogram("optabs_service_batch_jobs").record(B.Jobs.size());
      auto Micros = static_cast<uint64_t>(R.Seconds * 1e6);
      Reg.histogram("optabs_service_batch_micros").record(Micros);
      // Per-tenant phase attribution: one histogram per session that had
      // jobs in this batch (entries are never removed from the registry,
      // so the references stay valid).
      std::vector<uint64_t> Tenants(B.JobSessions);
      std::sort(Tenants.begin(), Tenants.end());
      Tenants.erase(std::unique(Tenants.begin(), Tenants.end()),
                    Tenants.end());
      for (uint64_t T : Tenants)
        Reg.histogram("optabs_service_session_" + std::to_string(T) +
                      "_batch_micros")
            .record(Micros);
    }
  }
};

AnalysisService::AnalysisService() : AnalysisService(Options()) {}

AnalysisService::AnalysisService(Options Opts)
    : I(std::make_unique<Impl>(std::move(Opts))) {}

AnalysisService::~AnalysisService() = default;

RegisterResult AnalysisService::registerProgram(const std::string &Name,
                                                const std::string &IrText) {
  RegisterResult R;
  if (Name.empty()) {
    R.Error = "program name must be non-empty";
    return R;
  }
  auto Entry = std::make_shared<ProgramEntry>();
  Entry->P = std::make_unique<ir::Program>();
  std::string Err;
  if (!ir::parseProgram(IrText, *Entry->P, Err)) {
    R.Error = Err;
    return R;
  }
  // Fingerprint and footprints of the NEW version, computed outside the
  // lock (both walk the whole program). The diff later compares this
  // against the fingerprint stored when the retiring version registered -
  // never against the retiring Program object itself, which the scheduler
  // may still be mutating through lazy method interning.
  ir::ProgramFingerprint NewFp = ir::fingerprintProgram(*Entry->P);
  std::vector<BitSet> NewFoot = ir::checkFootprints(*Entry->P);
  {
    std::lock_guard<std::mutex> Lock(I->M);
    Entry->Epoch = I->NextEpoch++;
    ProgramSlot &Slot = I->Programs[Name];
    if (!Slot.Current) {
      size_t Cap = I->Opts.Base.Execution.ForwardCacheCapacity;
      Slot.forEachShard([Cap](auto &Sh) { Sh.Runs.setCapacity(Cap); });
      Slot.CheckLastDirty.assign(Entry->P->numChecks(), Entry->Epoch);
    } else {
      R.ReRegistered = true;
      ir::ProgramDiff D = ir::diffPrograms(Slot.Fingerprint, NewFp);
      if (D.Comparable) {
        R.Incremental = true;
        R.DirtyProcs = D.DirtyProcNames;
        I->Stats.ProceduresDirty += D.numDirty();
        uint32_t NumChecks = Entry->P->numChecks();
        std::vector<uint64_t> NewCLD(NumChecks, Entry->Epoch);
        for (uint32_t C = 0; C < NumChecks; ++C) {
          bool Dirty = C >= Slot.CheckLastDirty.size() ||
                       footprintHits(NewFoot[C], D.DirtyProcs);
          if (!Dirty)
            NewCLD[C] = Slot.CheckLastDirty[C];
          else
            ++R.DirtyChecks;
        }
        Slot.CheckLastDirty = std::move(NewCLD);
        Slot.PendingMigrations.emplace_back(Slot.Current->Epoch,
                                            Entry->Epoch);
        // Filter stored verdicts right here: the counts are part of the
        // registration receipt's accounting, and the scheduler's later
        // shard migration never consults them again.
        for (auto It = Slot.Verdicts.begin(); It != Slot.Verdicts.end();) {
          bool Keep = It->first.Check < Slot.CheckLastDirty.size() &&
                      Slot.CheckLastDirty[It->first.Check] <=
                          It->second.DataEpoch;
          if (Keep) {
            ++I->Stats.EntriesMigrated;
            ++It;
          } else {
            ++I->Stats.EntriesInvalidated;
            It = Slot.Verdicts.erase(It);
          }
        }
      } else {
        // Full invalidation: the versions are incomparable (entity tables
        // or main moved) - parameter spaces may not line up, so nothing
        // migrates and every check is dirty.
        I->Stats.EntriesInvalidated += Slot.Verdicts.size();
        I->Stats.ProceduresDirty += NewFp.Procs.size();
        R.DirtyChecks = Entry->P->numChecks();
        Slot.Verdicts.clear();
        Slot.PendingMigrations.clear();
        Slot.CheckLastDirty.assign(Entry->P->numChecks(), Entry->Epoch);
      }
      Slot.Retired.push_back(std::move(Slot.Current));
      Slot.NeedsInvalidation = true;
    }
    Slot.Fingerprint = std::move(NewFp);
    Slot.CheckFootprints = std::move(NewFoot);
    Slot.Current = Entry;
    ++I->Stats.ProgramsRegistered;
    R.Ok = true;
    R.Epoch = Entry->Epoch;
    R.Checks = Entry->P->numChecks();
    R.Allocs = Entry->P->numAllocs();
    // Auto-warm: queue a snapshot load for this program so the scheduler
    // rehydrates whatever a previous process persisted before it picks
    // the first batch. Stale/corrupt snapshots degrade to a cold start
    // with notes; nobody waits on this promise.
    if (I->persistenceEnabled()) {
      Impl::AdminCmd Cmd;
      Cmd.Action = "load";
      Cmd.Program = Name;
      I->AdminQueue.push_back(std::move(Cmd));
    }
  }
  bumpServiceCounter("optabs_service_programs_registered_total");
  I->WorkCV.notify_all(); // stale-epoch eviction runs promptly
  return R;
}

Session AnalysisService::openSession(const SessionSpec &Spec,
                                     std::string &Error) {
  uint8_t Client = 0;
  bool TakesProperty = false;
  bool (*CheckProperty)(const std::string &, std::string &) = nullptr;
  if (!withClient(Spec.Client, [&](auto T) {
        Client = T.SpillKind;
        TakesProperty = T.TakesProperty;
        CheckProperty = &decltype(T)::checkProperty;
      })) {
    Error = "client must be " + clientNames() + ", got '" + Spec.Client + "'";
    return Session();
  }
  if (!TakesProperty && !Spec.Property.empty()) {
    Error = "the " + Spec.Client + " client takes no property";
    return Session();
  }
  std::vector<ConfigError> Errs = Spec.SessionConfig.validate();
  if (!Errs.empty()) {
    Error = "invalid session config: " + formatConfigErrors(Errs);
    return Session();
  }
  if (!CheckProperty(Spec.Property, Error))
    return Session();
  std::lock_guard<std::mutex> Lock(I->M);
  if (I->Programs.find(Spec.Program) == I->Programs.end()) {
    Error = "program '" + Spec.Program + "' is not registered";
    return Session();
  }
  if (I->Sessions.size() >= I->Opts.Base.Service.MaxSessions) {
    Error = "session quota exceeded (" +
            std::to_string(I->Opts.Base.Service.MaxSessions) +
            " open sessions)";
    return Session();
  }
  uint64_t Id = I->NextSession++;
  Impl::SessionState &S = I->Sessions[Id];
  S.Id = Id;
  S.ProgramName = Spec.Program;
  S.Client = Client;
  S.Property = Spec.Property;
  S.Cfg = Spec.SessionConfig;
  S.OptionsSig = optionsSignature(Spec.SessionConfig);
  ++I->Stats.SessionsOpened;
  bumpServiceCounter("optabs_service_sessions_opened_total");
  return Session(this, Id);
}

std::future<QueryResult> AnalysisService::submitJob(uint64_t SessionId,
                                                    const JobSpec &Job,
                                                    uint64_t *JobId) {
  if (JobId)
    *JobId = 0;
  std::unique_lock<std::mutex> Lock(I->M);
  ++I->Stats.JobsSubmitted;
  bumpServiceCounter("optabs_service_jobs_submitted_total");
  auto Reject = [&](const char *Why, const std::string &Detail) {
    ++I->Stats.JobsRejected;
    bumpServiceCounter("optabs_service_jobs_rejected_total");
    I->noteRejected(SessionId, Job.Parent, Why);
    return readyFuture(
        ended(0, SessionId, JobStatus::Rejected, Why + Detail));
  };
  auto It = I->Sessions.find(SessionId);
  if (It == I->Sessions.end() || I->ShuttingDown)
    return Reject("unknown or closed session", "");
  Impl::SessionState &S = It->second;
  // Admission control. Quotas are per-tenant (the session's own config),
  // so one tenant flooding its queue never affects another's admissions.
  const Config::ServiceConfig &Q = S.Cfg.Service;
  if (S.Pending.size() + S.Running >= Q.MaxPendingPerSession)
    return Reject("pending-job quota exceeded",
                  " (" + std::to_string(Q.MaxPendingPerSession) +
                      " jobs in flight)");
  if (Q.MaxJobsPerSession > 0 && S.SubmittedTotal >= Q.MaxJobsPerSession)
    return Reject("lifetime job quota exceeded",
                  " (" + std::to_string(Q.MaxJobsPerSession) +
                      " jobs per session)");
  Impl::PendingJob P;
  P.Id = I->NextJob++;
  if (JobId)
    *JobId = P.Id;
  P.Spec = Job;
  // Request identity: adopt the caller's trace id when it minted one
  // (protocol ingress does); otherwise the job id doubles as the trace.
  // The span is always the job id.
  P.Ctx.TraceId = Job.Parent.TraceId ? Job.Parent.TraceId : P.Id;
  P.Ctx.SpanId = P.Id;
  if (I->timingOn())
    P.SubmitNs = Impl::nowNs();
  if (I->Recorder) {
    support::TraceEvent E =
        traceEvent("submitted", P.Ctx, P.Id, SessionId);
    E.TsNs = P.SubmitNs;
    E.U0 = Job.Check;
    E.U1 = Job.Site;
    I->Recorder->record(E);
    JobTimeline T;
    T.Found = true;
    T.Job = P.Id;
    T.Session = SessionId;
    T.Check = Job.Check;
    T.Site = Job.Site;
    T.TraceId = P.Ctx.TraceId;
    T.SpanId = P.Ctx.SpanId;
    T.Status = "queued";
    T.SubmitNs = P.SubmitNs;
    I->logJob(std::move(T));
  }
  auto ProgIt = I->Programs.find(S.ProgramName);
  if (ProgIt != I->Programs.end() && ProgIt->second.Current)
    P.Epoch = ProgIt->second.Current->Epoch;
  std::future<QueryResult> F = P.Promise.get_future();
  S.Pending.push_back(std::move(P));
  ++S.SubmittedTotal;
  I->setQueueDepth();
  Lock.unlock();
  I->WorkCV.notify_all();
  return F;
}

size_t AnalysisService::cancelSessionPending(uint64_t SessionId) {
  std::vector<Impl::PendingJob> Cancelled;
  {
    std::lock_guard<std::mutex> Lock(I->M);
    auto It = I->Sessions.find(SessionId);
    if (It == I->Sessions.end())
      return 0;
    for (Impl::PendingJob &J : It->second.Pending) {
      I->noteTerminal(J, SessionId, "cancelled");
      Cancelled.push_back(std::move(J));
    }
    It->second.Pending.clear();
    I->Stats.JobsCancelled += Cancelled.size();
    bumpServiceCounter("optabs_service_jobs_cancelled_total",
                       Cancelled.size());
    I->setQueueDepth();
  }
  for (Impl::PendingJob &J : Cancelled)
    J.Promise.set_value(
        ended(J.Id, SessionId, JobStatus::Cancelled, "cancelled by client"));
  I->IdleCV.notify_all();
  return Cancelled.size();
}

void AnalysisService::closeSession(uint64_t SessionId) {
  cancelSessionPending(SessionId);
  std::lock_guard<std::mutex> Lock(I->M);
  // Erased, not flagged: a job of this session still running in a batch
  // is counted by InFlight, and finishBatch skips its missing session.
  if (I->Sessions.erase(SessionId) == 0)
    return;
  if (support::metricsEnabled())
    Impl::pendingGauge(SessionId).set(0);
  ++I->Stats.SessionsClosed;
  bumpServiceCounter("optabs_service_sessions_closed_total");
}

void AnalysisService::drain() {
  std::unique_lock<std::mutex> Lock(I->M);
  ++I->DrainWaiters;
  I->WorkCV.notify_all();
  I->IdleCV.wait(Lock, [this] {
    return I->queuedJobs() == 0 || I->ShuttingDown;
  });
  --I->DrainWaiters;
}

ServiceStats AnalysisService::stats() const {
  std::lock_guard<std::mutex> Lock(I->M);
  ServiceStats S = I->Stats;
  S.BatchJobsP50 = I->BatchJobsHist.quantile(0.50);
  S.BatchJobsP90 = I->BatchJobsHist.quantile(0.90);
  S.BatchJobsP99 = I->BatchJobsHist.quantile(0.99);
  for (const auto &[Id, Sess] : I->Sessions)
    S.PendingBySession.emplace_back(Id, Sess.Pending.size() + Sess.Running);
  return S;
}

bool AnalysisService::tracingEnabled() const {
  return I->Recorder != nullptr;
}

std::vector<support::TraceEvent> AnalysisService::drainTrace() {
  return I->Recorder ? I->Recorder->drain()
                     : std::vector<support::TraceEvent>();
}

uint64_t AnalysisService::traceDropped() const {
  return I->Recorder ? I->Recorder->dropped() : 0;
}

JobTimeline AnalysisService::explain(uint64_t JobId) const {
  std::lock_guard<std::mutex> Lock(I->M);
  auto It = I->JobLog.find(JobId);
  return It == I->JobLog.end() ? JobTimeline() : It->second;
}

CacheOpResult AnalysisService::cacheOp(const std::string &Action,
                                       const std::string &Program) {
  std::future<CacheOpResult> F;
  {
    std::lock_guard<std::mutex> Lock(I->M);
    if (I->ShuttingDown) {
      CacheOpResult R;
      R.Error = "service shut down";
      return R;
    }
    Impl::AdminCmd Cmd;
    Cmd.Action = Action;
    Cmd.Program = Program;
    F = Cmd.Promise.get_future();
    I->AdminQueue.push_back(std::move(Cmd));
  }
  I->WorkCV.notify_all();
  return F.get();
}

unsigned AnalysisService::poolWorkers() const { return I->Pool->numWorkers(); }

} // namespace service
} // namespace optabs
