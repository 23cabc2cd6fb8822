//===- Ledger.cpp - The traced run: per-layer metrics and the ledger ------===//
//
// Replays one fixed request script of the workload (set-up, warm-up, and
// Workload::tracedSlices() slices of units) on a ladder of rungs, each
// adding one layer of the serving path:
//
//   rung 1  in-process service::AnalysisService, tracing and metrics on;
//           the benchmark times its own calls into the service and into
//           the ir / pointer / persist modules, and reads explain
//           timelines, stats(), the Profiler aggregate and the optabs_*
//           registry counters;
//   rung 2  one optabs-serve --listen=unix: (tracing and metrics on);
//   rung 3  optabs-shardd --shards=1 (tracing and metrics on in its
//           worker);
//   rung 3u the same as rung 3 with tracing off, for the overhead.
//
// A rung's extra wall time over the previous one is the self time of the
// layer it adds. Every rung is serial (one worker thread, one shard), so
// busy times add up and the ledger identity
//
//   rung-3 time = shardd + serve + service + ir + pointer + persist
//                 + driver phases + unattributed
//
// holds by construction; the unattributed remainder (the benchmark's own
// time between calls on rung 1) is reported, never dropped.
//
//===----------------------------------------------------------------------===//

#include "Measure.h"
#include "Runs.h"

#include "ir/Liveness.h"
#include "service/Protocol.h"
#include "ir/Parser.h"
#include "ir/ProgramDiff.h"
#include "pointer/PointsTo.h"
#include "support/Metrics.h"

#include <dirent.h>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <sys/stat.h>

namespace perfbench {

using optabs::support::MetricRegistry;
using optabs::support::Profiler;

namespace {

constexpr size_t TraceCapacity = 1u << 17;

/// The traced script's timed part: Workload::tracedSlices() slices, each
/// whole cycles of units with at least 1000 jobs, as in the untraced run.
std::vector<Unit> tracedUnits(Workload W) {
  const size_t SliceJobs = samplesNeededFor(0.99);
  std::vector<Unit> Units;
  for (size_t S = 0; S < W.tracedSlices(); ++S) {
    size_t Jobs = 0;
    while (Jobs < SliceJobs || Units.size() % W.unitsPerCycle() != 0) {
      Units.push_back(W.nextUnit());
      for (const Step &St : Units.back())
        Jobs += St.K == Step::Kind::Submit;
    }
  }
  return Units;
}

bool copyFlatDir(const std::string &From, const std::string &To) {
  ::mkdir(To.c_str(), 0755);
  DIR *D = ::opendir(From.c_str());
  if (!D)
    return false;
  bool Ok = true;
  while (dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name == "." || Name == "..")
      continue;
    std::ifstream In(From + "/" + Name, std::ios::binary);
    std::ofstream Out(To + "/" + Name, std::ios::binary);
    Out << In.rdbuf();
    Ok = Ok && static_cast<bool>(Out);
  }
  ::closedir(D);
  return Ok;
}

uint64_t dirBytes(const std::string &Dir) {
  uint64_t Bytes = 0;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return 0;
  while (dirent *E = ::readdir(D)) {
    struct stat St;
    if (::stat((Dir + "/" + E->d_name).c_str(), &St) == 0 &&
        S_ISREG(St.st_mode))
      Bytes += static_cast<uint64_t>(St.st_size);
  }
  ::closedir(D);
  return Bytes;
}

/// Sum of the aggregate nanoseconds of every span named \p Name (a match's
/// subtree is not searched again, so nested same-name spans count once).
uint64_t spanNanos(const Profiler::AggNode &N, const std::string &Name) {
  uint64_t Sum = 0;
  for (const auto &[Child, Node] : N.Children)
    Sum += Child == Name ? Node.Nanos : spanNanos(Node, Name);
  return Sum;
}

optabs::service::AnalysisService::Options
serviceOptions(const std::string &CacheDir, bool Traced) {
  optabs::service::AnalysisService::Options O;
  O.AutoDispatch = false; // jobs run inside drain, as in optabs-serve
  O.Base = optabs::Config::defaults();
  O.Base.Execution.NumThreads = 1;
  O.Base.Service.CacheDir = CacheDir;
  if (Traced) {
    O.Base.Observability.ServiceTrace = true;
    O.Base.Observability.ServiceTraceCapacity = TraceCapacity;
  }
  return O;
}

/// One replay of the script through \p Ex; returns its wall time.
bool replay(Executor &Ex, const Workload &W, const std::vector<Unit> &Units,
            std::unique_ptr<ScriptRun> &Run, double &Seconds,
            std::string &Err) {
  Run = std::make_unique<ScriptRun>(Ex, W);
  double T0 = nowSeconds();
  if (!Run->setup(Err))
    return false;
  for (const Unit &U : W.warmupUnits())
    if (!Run->run(U, false, Err))
      return false;
  for (const Unit &U : Units)
    if (!Run->run(U, true, Err))
      return false;
  Seconds = nowSeconds() - T0;
  return true;
}

/// Fills \p Dir with the workload's primed snapshots (edit-requery).
bool prime(const Workload &W, const std::string &Dir, std::string &Err) {
  ::mkdir(Dir.c_str(), 0755);
  ServiceExecutor Ex(serviceOptions(Dir, false));
  ScriptRun Run(Ex, W);
  if (!Run.setup(Err))
    return false;
  for (const Unit &U : W.primingUnits())
    if (!Run.run(U, false, Err))
      return false;
  return true;
}

bool sameAnswers(const ScriptRun &A, const ScriptRun &B) {
  if (A.Jobs.size() != B.Jobs.size())
    return false;
  for (size_t I = 0; I < A.Jobs.size(); ++I) {
    const JobResult &X = A.Jobs[I].R, &Y = B.Jobs[I].R;
    if (X.Status != Y.Status || X.Verdict != Y.Verdict || X.Cost != Y.Cost ||
        X.Param != Y.Param)
      return false;
  }
  return true;
}

/// The ir / pointer module work inside rung 1's calls, re-timed by calling
/// the modules' public functions on the same inputs.
struct ModuleTimes {
  double Parse = 0, Liveness = 0, Diff = 0, PointsTo = 0;
  size_t Registers = 0, PointsToRuns = 0;
};

ModuleTimes timeModules(const ScriptRun &Run, const Workload &W) {
  ModuleTimes M;
  // Registration order: the initial texts, then each re-registration.
  std::vector<uint32_t> Order;
  for (uint32_t P = 0; P < W.programs().size(); ++P)
    Order.push_back(P);
  std::vector<uint32_t> VersionProgram(Run.Texts.size(), 0);
  for (const JobRecord &J : Run.Jobs)
    VersionProgram[J.Version] = J.Program;
  for (uint32_t V = static_cast<uint32_t>(W.programs().size());
       V < Run.Texts.size(); ++V)
    Order.push_back(V);
  std::map<uint32_t, optabs::ir::ProgramFingerprint> Latest;
  std::set<uint32_t> TypestateVersions;
  for (const JobRecord &J : Run.Jobs)
    if (J.Typestate)
      TypestateVersions.insert(J.Version);
  for (uint32_t V : Order) {
    uint32_t Prog = V < W.programs().size() ? V : VersionProgram[V];
    optabs::ir::Program P;
    std::string Err;
    double T0 = nowSeconds();
    optabs::ir::parseProgram(Run.Texts[V], P, Err);
    double T1 = nowSeconds();
    optabs::ir::CommandLiveness L(P);
    double T2 = nowSeconds();
    optabs::ir::ProgramFingerprint Fp = optabs::ir::fingerprintProgram(P, L);
    std::vector<optabs::BitSet> Foot = optabs::ir::checkFootprints(P);
    auto It = Latest.find(Prog);
    if (It != Latest.end())
      optabs::ir::diffPrograms(It->second, Fp);
    double T3 = nowSeconds();
    Latest[Prog] = std::move(Fp);
    M.Parse += T1 - T0;
    M.Liveness += T2 - T1;
    M.Diff += T3 - T2;
    ++M.Registers;
    if (TypestateVersions.count(V)) {
      double T4 = nowSeconds();
      optabs::pointer::runPointsTo(P);
      M.PointsTo += nowSeconds() - T4;
      ++M.PointsToRuns;
    }
  }
  return M;
}

struct LoadTimes {
  double Seconds = 0;
  uint64_t Runs = 0, Verdicts = 0, Skipped = 0;
};

/// One explicit load of the primed snapshots into a fresh service that
/// registered the programs against an empty cache dir.
bool timeLoad(const Workload &W, const std::string &Primed, LoadTimes &L,
              std::string &Err) {
  const std::string Dir = "cache-load";
  ::mkdir(Dir.c_str(), 0755);
  ServiceExecutor Ex(serviceOptions(Dir, false));
  for (const ProgramDef &P : W.programs()) {
    RegisterReply R;
    if (!Ex.registerProgram(P.Name, P.Text, R, Err))
      return false;
  }
  if (!copyFlatDir(Primed, Dir)) {
    Err = "cannot copy " + Primed;
    return false;
  }
  double T0 = nowSeconds();
  optabs::service::CacheOpResult R = Ex.service().cacheOp("load");
  L.Seconds = nowSeconds() - T0;
  if (!R.Ok) {
    Err = "cache load: " + R.Error;
    return false;
  }
  L.Runs = R.RunsLoaded;
  L.Verdicts = R.VerdictsLoaded;
  L.Skipped = R.RunsSkipped + R.VerdictsSkipped;
  return true;
}

uint64_t counter(const char *Name) {
  return MetricRegistry::global().counter(Name).value();
}

double p99(const char *Histogram) {
  return static_cast<double>(
      MetricRegistry::global().histogram(Histogram).quantile(0.99));
}

} // namespace

bool runTraced(const Options &O, RunOutput &Out, std::string &Err) {
  std::optional<Workload> Made = Workload::make(O.Workload, O.Seed);
  if (!Made) {
    Err = "unknown workload '" + O.Workload + "'";
    return false;
  }
  const Workload W = *Made;
  std::vector<Unit> Units = tracedUnits(W);
  std::unique_ptr<ReferenceAnswers> Ref = loadReference(O, Err);
  if (!Ref)
    return false;
  Environment Env(O);
  const bool Cache = W.usesCacheDir();
  const std::string Primed = "cache-primed";
  if (Cache && !prime(W, Primed, Err))
    return false;
  auto RungCache = [&](const char *Name) -> std::string {
    if (!Cache)
      return "";
    copyFlatDir(Primed, Name);
    return Name;
  };

  // Rung 1: in process, traced. The service's threads inherit the
  // client's CPU, as a server's threads share its one CPU on rungs 2-3.
  pinProcesses({});
  optabs::support::setMetricsEnabled(true);
  MetricRegistry::global().resetAll();
  Profiler::global().reset();
  std::string Dir1 = RungCache("cache-r1");
  ServiceExecutor Ex1(serviceOptions(Dir1, true));
  std::unique_ptr<ScriptRun> Run1;
  double T1 = 0;
  if (!replay(Ex1, W, Units, Run1, T1, Err))
    return false;
  optabs::service::ServiceStats St = Ex1.service().stats();
  optabs::service::CacheOpResult CacheStats = Ex1.service().cacheOp("stats");
  Profiler::AggNode Agg = Profiler::global().aggregate();
  uint64_t SnapshotBytes = Cache ? dirBytes(Dir1) : 0;
  std::map<uint64_t, optabs::service::JobTimeline> Batches;
  std::vector<double> QueueMs, BatchMs, RunMs;
  double Iterations = 0;
  for (const JobRecord &J : Run1->Jobs) {
    optabs::service::JobTimeline T = Ex1.service().explain(J.R.Job);
    if (!T.Found)
      continue;
    QueueMs.push_back(T.queueWaitNs() / 1e6);
    BatchMs.push_back(T.batchWaitNs() / 1e6);
    RunMs.push_back(T.runNs() / 1e6);
    if (T.Batch)
      Batches.emplace(T.Batch, T);
    Iterations += J.R.Iterations;
  }
  optabs::support::setMetricsEnabled(false);

  // Rungs 2, 3 and 3u.
  const std::string TraceArg = "--trace-capacity=" + std::to_string(TraceCapacity);
  double T2 = 0, T3 = 0, T3u = 0;
  std::unique_ptr<ScriptRun> Run2, Run3, Run3u;
  uint64_t Sent = 0, Received = 0;
  std::string ShardStats;
  {
    ServerProcess S;
    SocketExecutor Ex;
    std::vector<std::string> Args = {TraceArg, "--metrics=serve.prom"};
    std::string Dir = RungCache("cache-r2");
    if (!Dir.empty())
      Args.push_back("--cache-dir=" + Dir);
    if (!Env.startServe(S, Ex, Args, Err) ||
        !replay(Ex, W, Units, Run2, T2, Err) || !Ex.shutdown(Err))
      return false;
    S.waitExit(10000);
  }
  for (bool Traced : {true, false}) {
    ServerProcess S;
    SocketExecutor Ex;
    std::string Dir = RungCache(Traced ? "cache-r3" : "cache-r3u");
    std::string WorkerArgs = Traced ? TraceArg + " --metrics=shard.prom" : "";
    if (!Env.startShardd(S, Ex, 1, Dir, WorkerArgs, Err) ||
        !replay(Ex, W, Units, Traced ? Run3 : Run3u, Traced ? T3 : T3u,
                Err))
      return false;
    if (Traced) {
      Sent = Ex.bytesSent();
      Received = Ex.bytesReceived();
      if (!Ex.call("{\"op\":\"stats\"}", ShardStats, Err))
        return false;
    }
    if (!Ex.shutdown(Err))
      return false;
    S.waitExit(10000);
  }

  // Correctness: rung 1 against the independent checks, the other rungs
  // against rung 1 bit for bit.
  Verifier V(Ref.get(), MaxEnumerationWork);
  JobTally Tally = verifyJobs(*Run1, W, V);
  for (const std::string &P : V.counts().Problems)
    std::cout << "wrong verdict: " << P << "\n";
  bool Same = sameAnswers(*Run1, *Run2) && sameAnswers(*Run1, *Run3) &&
              sameAnswers(*Run1, *Run3u);
  if (!Same)
    std::cout << "rungs disagree on some answer\n";
  // The supervisor's register-program reply drops the incremental field;
  // the rungs below it report it.
  bool Incremental = true;
  for (const ScriptRun *R : {Run1.get(), Run2.get()})
    for (const RegisterReply &Reg : R->Reregistrations)
      Incremental = Incremental && Reg.Incremental;
  if (!Incremental)
    std::cout << "a re-registration fell back to full invalidation\n";
  Out.Attempted = Run1->Jobs.size();
  Out.Failed = Tally.TimedFailed + Tally.UntimedFailed;
  Out.Correct = Out.Failed == 0 && Same && Incremental;

  // The ledger.
  ModuleTimes M = timeModules(*Run1, W);
  LoadTimes L;
  if (Cache && !timeLoad(W, Primed, L, Err))
    return false;
  optabs::tracer::PhaseSeconds Ph;
  std::vector<double> PerBatch;
  for (const auto &[Id, T] : Batches) {
    Ph.Plan += T.PlanS;
    Ph.Forward += T.ForwardS;
    Ph.Classify += T.ClassifyS;
    Ph.Extract += T.ExtractS;
    Ph.Backward += T.BackwardS;
    Ph.Merge += T.MergeS;
    PerBatch.push_back(static_cast<double>(T.Peers));
  }
  double Calls = 0;
  for (const auto &[Op, Times] : Run1->Ops)
    Calls += Times.total();
  double Persist =
      (Run1->Ops.count("persist") ? Run1->Ops["persist"].total() : 0) +
      L.Seconds;
  double Ir = M.Parse + M.Liveness + M.Diff;
  double Service = Calls - Ph.sum() - Ir - M.PointsTo - Persist;
  std::vector<LayerTime> Layers = {
      {"shardd", T3 - T2},        {"serve", T2 - T1},
      {"service", Service},       {"ir", Ir},
      {"pointer", M.PointsTo},    {"persist", Persist},
      {"driver.plan", Ph.Plan},   {"driver.forward", Ph.Forward},
      {"driver.classify", Ph.Classify}, {"driver.extract", Ph.Extract},
      {"driver.backward", Ph.Backward}, {"driver.merge", Ph.Merge}};
  LedgerSum Sum = ledgerSum(T3, Layers);

  double Jobs = static_cast<double>(Out.Attempted);
  double Hits = static_cast<double>(St.CacheHits);
  double Misses = static_cast<double>(St.CacheMisses);
  uint64_t DirtyChecks = 0;
  for (const RegisterReply &R : Run1->Reregistrations)
    DirtyChecks += R.DirtyChecks;
  optabs::service::JsonLine SS;
  std::string PErr;
  optabs::service::JsonLine::parse(ShardStats, SS, PErr);
  auto PerCall = [](double Total, size_t N) { return N ? Total / N : 0.0; };
  double Ns = 1e-9;
  Out.Metrics = {
      {"shardd.self_ms_per_job", "ms", (T3 - T2) * 1000 / Jobs},
      {"shardd.restarts", "count",
       static_cast<double>(SS.getUInt("restarts").value_or(0))},
      {"shardd.requeues", "count",
       static_cast<double>(SS.getUInt("requeued").value_or(0))},
      {"serve.self_ms_per_job", "ms", (T2 - T1) * 1000 / Jobs},
      {"serve.request_bytes_per_job", "bytes", Sent / Jobs},
      {"serve.response_bytes_per_job", "bytes", Received / Jobs},
      {"service.self_ms_per_job", "ms", Service * 1000 / Jobs},
      {"service.register_ms", "ms",
       median(Run1->Ops["register"].Seconds) * 1000},
      {"service.queue_wait_ms_p50", "ms", median(QueueMs)},
      {"service.batch_wait_ms_p50", "ms", median(BatchMs)},
      {"service.run_ms_p50", "ms", median(RunMs)},
      {"service.batches", "count", static_cast<double>(St.Batches)},
      {"service.jobs_per_batch_p50", "count", median(PerBatch)},
      {"service.fixpoints_amortized", "count",
       static_cast<double>(St.FixpointsAmortized)},
      {"service.verdicts_replayed", "count",
       static_cast<double>(St.VerdictsReplayed)},
      {"ir.parse_ms", "ms", PerCall(M.Parse, M.Registers) * 1000},
      {"ir.liveness_ms", "ms", PerCall(M.Liveness, M.Registers) * 1000},
      {"ir.diff_ms", "ms", PerCall(M.Diff, M.Registers) * 1000},
      {"ir.dirty_procs", "count", static_cast<double>(St.ProceduresDirty)},
      {"ir.dirty_checks", "count", static_cast<double>(DirtyChecks)},
      {"pointer.points_to_ms", "ms",
       PerCall(M.PointsTo, M.PointsToRuns) * 1000},
      {"driver.plan_s", "s", Ph.Plan},
      {"driver.forward_s", "s", Ph.Forward},
      {"driver.classify_s", "s", Ph.Classify},
      {"driver.extract_s", "s", Ph.Extract},
      {"driver.backward_s", "s", Ph.Backward},
      {"driver.merge_s", "s", Ph.Merge},
      {"driver.rounds", "count",
       static_cast<double>(counter("optabs_rounds_total"))},
      {"driver.iterations_per_job", "count", Iterations / Jobs},
      {"cache.hits", "count", Hits},
      {"cache.misses", "count", Misses},
      {"cache.hit_ratio", "share",
       Hits + Misses > 0 ? Hits / (Hits + Misses) : 0},
      {"cache.evictions", "count", static_cast<double>(St.CacheEvictions)},
      {"cache.resident_bytes", "bytes",
       static_cast<double>(CacheStats.ResidentBytes)},
      {"forward.fixpoints", "count",
       static_cast<double>(counter("optabs_forward_runs_total"))},
      {"forward.visits", "count",
       static_cast<double>(counter("optabs_forward_visits_total"))},
      {"forward.states_p99", "count", p99("optabs_forward_states")},
      {"forward.fixpoint_s", "s",
       spanNanos(Agg, "tracer.forward.fixpoint") * Ns},
      {"backward.traces", "count",
       static_cast<double>(counter("optabs_backward_runs_total"))},
      {"backward.trace_s", "s", spanNanos(Agg, "tracer.backward.trace") * Ns},
      {"backward.steps", "count",
       static_cast<double>(counter("optabs_backward_steps_total"))},
      {"backward.step_cubes_p99", "count", p99("optabs_backward_step_cubes")},
      {"backward.segments_detected", "count",
       static_cast<double>(counter("optabs_trace_segments_detected_total"))},
      {"dnf.product_calls", "count",
       static_cast<double>(counter("optabs_dnf_product_calls_total"))},
      {"dnf.product_cubes_p99", "count", p99("optabs_dnf_product_cubes")},
      {"dnf.dropk_calls", "count",
       static_cast<double>(counter("optabs_dnf_dropk_calls_total"))},
      {"dnf.dropk_cubes_dropped", "count",
       static_cast<double>(counter("optabs_dnf_dropk_cubes_dropped_total"))},
      {"mincostsat.calls", "count",
       static_cast<double>(counter("optabs_mincostsat_calls_total"))},
      {"mincostsat.decisions", "count",
       static_cast<double>(counter("optabs_mincostsat_decisions_total"))},
      {"mincostsat.conflicts", "count",
       static_cast<double>(counter("optabs_mincostsat_conflicts_total"))},
      {"mincostsat.clauses_p99", "count", p99("optabs_mincostsat_clauses")},
      {"persist.ms_per_op", "ms",
       Run1->Ops.count("persist")
           ? median(Run1->Ops["persist"].Seconds) * 1000
           : 0},
      {"persist.snapshot_bytes", "bytes", static_cast<double>(SnapshotBytes)},
      {"persist.runs", "count", static_cast<double>(Run1->RunsPersisted)},
      {"load.ms", "ms", L.Seconds * 1000},
      {"load.runs_loaded", "count", static_cast<double>(L.Runs)},
      {"load.verdicts_loaded", "count", static_cast<double>(L.Verdicts)},
      {"load.skipped", "count", static_cast<double>(L.Skipped)},
      {"ledger.rung1_s", "s", T1},
      {"ledger.rung2_s", "s", T2},
      {"ledger.rung3_s", "s", T3},
      {"ledger.attributed_share", "share", Sum.AttributedShare},
      {"ledger.unattributed_s", "s", Sum.UnattributedSeconds},
      {"ledger.trace_overhead", "share", T3u > 0 ? T3 / T3u - 1 : 0},
  };

  if (!O.LedgerPath.empty()) {
    std::ofstream J(O.LedgerPath);
    J << "{\n  \"workload\": \"" << W.name() << "\",\n  \"seed\": " << O.Seed
      << ",\n  \"jobs\": " << Out.Attempted << ",\n  \"rungs_s\": {"
      << "\"service\": " << T1 << ", \"serve\": " << T2
      << ", \"shardd_1\": " << T3 << ", \"shardd_1_untraced\": " << T3u
      << "},\n  \"layers_s\": {";
    for (size_t I = 0; I < Layers.size(); ++I)
      J << (I ? ", " : "") << "\"" << Layers[I].Name
        << "\": " << Layers[I].Seconds;
    J << "},\n  \"unattributed_s\": " << Sum.UnattributedSeconds
      << ",\n  \"attributed_share\": " << Sum.AttributedShare
      << ",\n  \"metrics\": {";
    for (size_t I = 0; I < Out.Metrics.size(); ++I)
      J << (I ? ",\n    " : "\n    ") << "\"" << Out.Metrics[I].Name
        << "\": " << Out.Metrics[I].Value;
    J << "\n  }\n}\n";
    std::cout << "ledger written to " << O.LedgerPath << "\n";
  }
  std::cout << "ledger: rung3 " << T3 << " s = ";
  for (const LayerTime &L : Layers)
    std::cout << L.Name << " " << L.Seconds << " + ";
  std::cout << "unattributed " << Sum.UnattributedSeconds << " ("
            << Sum.AttributedShare * 100 << "% attributed)\n";
  return true;
}

bool recordReferenceRun(const Options &O, std::string &Err) {
  std::optional<Workload> Made = Workload::make(O.Workload, O.Seed);
  if (!Made) {
    Err = "unknown workload '" + O.Workload + "'";
    return false;
  }
  const Workload W = *Made;
  const std::string Dir = W.usesCacheDir() ? "cache-primed" : "";
  if (W.usesCacheDir() && !prime(W, Dir, Err))
    return false;
  ServiceExecutor Ex(serviceOptions(Dir, false));
  std::unique_ptr<ScriptRun> Run;
  double Seconds = 0;
  if (!replay(Ex, W, tracedUnits(W), Run, Seconds, Err))
    return false;
  // Recorded answers must pass every independent check first.
  Verifier V(nullptr, MaxEnumerationWork);
  JobTally Tally = verifyJobs(*Run, W, V);
  if (Tally.TimedFailed + Tally.UntimedFailed) {
    for (const std::string &P : V.counts().Problems)
      std::cout << "wrong verdict: " << P << "\n";
    Err = "refusing to record answers that fail the independent checks";
    return false;
  }
  ReferenceAnswers Ref;
  std::unique_ptr<ReferenceAnswers> Old = loadReference(O, Err);
  if (Old)
    Ref = *Old;
  recordReference(*Run, W, Ref);
  if (!Ref.write(O.RecordReference, Err))
    return false;
  std::cout << "recorded " << Ref.size() << " answers to "
            << O.RecordReference << "\n";
  return true;
}

} // namespace perfbench
