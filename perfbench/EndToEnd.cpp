//===- EndToEnd.cpp - The untraced, client-observed run ------------------===//
//
// One closed-loop client drives optabs-shardd --shards=2 --worker-threads=1
// over one unix-socket connection: set-up (timed several times, median
// reported), an untimed warm-up, then a fixed number of slices of whole
// cycles of units (Workload::timedSlices). Verdicts are checked after the
// server is gone.
//
//===----------------------------------------------------------------------===//

#include "Measure.h"
#include "Runs.h"

#include <iostream>
#include <map>
#include <sys/stat.h>

namespace perfbench {

namespace {

constexpr unsigned Shards = 2;
/// Set-ups per run; setup_s is their median.
constexpr unsigned SetupRepeats = 5;
constexpr int ConnectTimeoutMs = 30000;
constexpr int ExitTimeoutMs = 10000;

/// A stretch of the timed phase: whole cycles of units, at least enough
/// jobs for a p99 with ten samples beyond it.
struct Slice {
  size_t FirstJob = 0, EndJob = 0; ///< [FirstJob, EndJob) of ScriptRun::Jobs
  double Seconds = 0;
  double CpuMs = 0; ///< server utime + stime over the slice
};

} // namespace

std::string Environment::freshSocket() {
  return "s" + std::to_string(Sockets++) + ".sock";
}

bool Environment::startShardd(ServerProcess &Server, SocketExecutor &Ex,
                              unsigned NumShards, const std::string &CacheDir,
                              const std::string &WorkerArgs,
                              std::string &Err) {
  std::string Sock = freshSocket();
  std::vector<std::string> Argv = {O.ToolsDir + "/optabs-shardd",
                                   "--shards=" + std::to_string(NumShards),
                                   "--worker-threads=1",
                                   "--listen=unix:" + Sock,
                                   "--socket-dir=."};
  if (!CacheDir.empty())
    Argv.push_back("--cache-dir=" + CacheDir);
  if (!WorkerArgs.empty())
    Argv.push_back("--worker-args=" + WorkerArgs);
  if (!Server.spawn(Argv, "server.log", Err) ||
      !Ex.connect(Sock, ConnectTimeoutMs, Err))
    return false;
  pinProcesses(processTree(Server.pid()));
  return true;
}

bool Environment::startServe(ServerProcess &Server, SocketExecutor &Ex,
                             const std::vector<std::string> &ExtraArgs,
                             std::string &Err) {
  std::string Sock = freshSocket();
  std::vector<std::string> Argv = {O.ToolsDir + "/optabs-serve",
                                   "--listen=unix:" + Sock, "--threads=1"};
  Argv.insert(Argv.end(), ExtraArgs.begin(), ExtraArgs.end());
  if (!Server.spawn(Argv, "server.log", Err) ||
      !Ex.connect(Sock, ConnectTimeoutMs, Err))
    return false;
  pinProcesses(processTree(Server.pid()));
  return true;
}

std::unique_ptr<ReferenceAnswers> loadReference(const Options &O,
                                                std::string &Err) {
  auto Ref = std::make_unique<ReferenceAnswers>();
  struct stat St;
  if (O.Reference.empty() || ::stat(O.Reference.c_str(), &St) != 0)
    return Ref;
  if (!Ref->load(O.Reference, Err))
    return nullptr;
  return Ref;
}

JobTally verifyJobs(const ScriptRun &Run, const Workload &W, Verifier &V) {
  JobTally T;
  for (const JobRecord &J : Run.Jobs) {
    // Answers are checked against the program as first registered: the
    // only later versions are edit-requery's, whose edit repeats a store
    // and so changes no analysis result.
    const ProgramDef &P = W.programs()[J.Program];
    const std::string &Name = P.Name;
    bool Ok = J.R.Status == "done" &&
              V.check(Name, P.Text, J.Typestate, J.Def.Site,
                      J.Def.Check, J.R.Verdict, J.R.Cost, J.R.Param);
    if (J.R.Status != "done")
      std::cout << "job " << J.R.Job << " (" << Name << " check "
                << J.Def.Check << ") ended " << J.R.Status << ": "
                << J.R.Error << "\n";
    (J.Timed ? T.TimedFailed : T.UntimedFailed) += !Ok;
    if (J.Timed)
      T.TimedResolved += J.R.Verdict == "proven" || J.R.Verdict == "impossible";
  }
  return T;
}

void recordReference(const ScriptRun &Run, const Workload &W,
                     ReferenceAnswers &Ref) {
  for (const JobRecord &J : Run.Jobs)
    Ref.add(ReferenceAnswers::key(W.programs()[J.Program].Name,
                                  W.programs()[J.Program].Text, J.Typestate,
                                  J.Def.Site, J.Def.Check),
            {J.R.Verdict, J.R.Cost});
}

bool runEndToEnd(const Options &O, RunOutput &Out, std::string &Err) {
  std::optional<Workload> Made = Workload::make(O.Workload, O.Seed);
  if (!Made) {
    Err = "unknown workload '" + O.Workload + "'";
    return false;
  }
  Workload &W = *Made;
  std::unique_ptr<ReferenceAnswers> Ref = loadReference(O, Err);
  if (!Ref)
    return false;
  Environment Env(O);
  const std::string CacheDir = W.usesCacheDir() ? "cache" : "";

  // Priming: a separate server lifetime fills the cache dir, so set-up
  // starts warm (edit-requery only).
  std::vector<Unit> Priming = W.primingUnits();
  if (!Priming.empty()) {
    ServerProcess Server;
    SocketExecutor Ex;
    ScriptRun Run(Ex, W);
    if (!Env.startShardd(Server, Ex, Shards, CacheDir, "", Err) ||
        !Run.setup(Err))
      return false;
    for (const Unit &U : Priming)
      if (!Run.run(U, false, Err))
        return false;
    if (!Ex.shutdown(Err))
      return false;
    Server.waitExit(ExitTimeoutMs);
  }

  // Set-up, repeated; the last one stays up for the timed phase.
  ServerProcess Server;
  std::unique_ptr<SocketExecutor> Ex;
  std::unique_ptr<ScriptRun> Run;
  std::vector<double> SetupSeconds, RegisterMs;
  for (unsigned I = 0; I < SetupRepeats; ++I) {
    if (I > 0) {
      if (!Ex->shutdown(Err))
        return false;
      Server.waitExit(ExitTimeoutMs);
    }
    Ex = std::make_unique<SocketExecutor>();
    Run = std::make_unique<ScriptRun>(*Ex, W);
    double T0 = nowSeconds();
    if (!Env.startShardd(Server, *Ex, Shards, CacheDir, "", Err) ||
        !Run->setup(Err))
      return false;
    SetupSeconds.push_back(nowSeconds() - T0);
    for (double S : Run->Ops["register"].Seconds)
      RegisterMs.push_back(S * 1000);
  }

  for (const Unit &U : W.warmupUnits())
    if (!Run->run(U, false, Err))
      return false;
  if (W.name() == "edit-requery")
    RegisterMs.clear(); // reported from the timed re-registrations instead
  size_t RegistersBefore = Run->Ops["register"].Seconds.size();

  auto TreeTicks = [&] {
    uint64_t T = 0;
    for (pid_t P : processTree(Server.pid()))
      T += readCpuTicks(P).value_or(0);
    return T;
  };
  // The timed phase is cut into slices of whole cycles holding enough
  // samples for p99 each; every timing is the median over the slices.
  const size_t SliceJobs = samplesNeededFor(0.99);
  std::vector<Slice> Slices;
  double T0 = nowSeconds();
  size_t Drawn = 0;
  const size_t NumSlices = W.timedSlices(O.Seconds);
  while (Slices.size() < NumSlices) {
    Slice S;
    S.FirstJob = Run->Jobs.size();
    uint64_t Ticks = TreeTicks();
    double Start = nowSeconds();
    while (Run->Jobs.size() - S.FirstJob < SliceJobs ||
           Drawn % W.unitsPerCycle() != 0) {
      ++Drawn;
      if (!Run->run(W.nextUnit(), true, Err))
        return false;
    }
    S.Seconds = nowSeconds() - Start;
    S.CpuMs = static_cast<double>(TreeTicks() - Ticks) * 1000.0 /
              static_cast<double>(ticksPerSecond());
    S.EndJob = Run->Jobs.size();
    Slices.push_back(S);
  }
  double Wall = nowSeconds() - T0;
  uint64_t HwmKb = 0;
  for (pid_t P : processTree(Server.pid()))
    HwmKb += readVmHwmKb(P).value_or(0);
  std::string StatsLine;
  if (!Ex->call("{\"op\":\"stats\"}", StatsLine, Err) || !Ex->shutdown(Err))
    return false;
  Server.waitExit(ExitTimeoutMs);

  if (W.name() == "edit-requery") {
    const std::vector<double> &Reg = Run->Ops["register"].Seconds;
    for (size_t I = RegistersBefore; I < Reg.size(); ++I)
      RegisterMs.push_back(Reg[I] * 1000);
  }

  // Independent verdict checks, outside the timed phase.
  Verifier V(Ref.get(), MaxEnumerationWork);
  JobTally Tally = verifyJobs(*Run, W, V);
  for (const std::string &P : V.counts().Problems)
    std::cout << "wrong verdict: " << P << "\n";
  Out.Attempted = Run->Jobs.size() - Slices.front().FirstJob;
  Out.Failed = Tally.TimedFailed;
  Out.Correct = Out.Failed == 0 && Tally.UntimedFailed == 0;

  std::vector<double> P50, P99, Rate, Cpu;
  for (const Slice &S : Slices) {
    std::vector<double> Lat;
    for (size_t I = S.FirstJob; I < S.EndJob; ++I)
      Lat.push_back(Run->Jobs[I].LatencyMs);
    double N = static_cast<double>(Lat.size());
    P50.push_back(percentile(Lat, 0.50));
    P99.push_back(percentile(Lat, 0.99));
    Rate.push_back(N / S.Seconds);
    Cpu.push_back(S.CpuMs / N);
  }
  double Jobs = static_cast<double>(Out.Attempted);
  std::cout << "workload " << W.name() << " seed " << O.Seed << ": "
            << Out.Attempted << " timed jobs in " << Wall << " s, "
            << Slices.size() << " slices of >= " << SliceJobs
            << " samples (>= " << samplesBeyond(SliceJobs, 0.99)
            << " beyond p99 each); failed_share " << Out.Failed / Jobs
            << "\nper slice: p50_ms";
  for (double V : P50)
    std::cout << " " << V;
  std::cout << "; p99_ms";
  for (double V : P99)
    std::cout << " " << V;
  std::cout << "; jobs_per_s";
  for (double V : Rate)
    std::cout << " " << V;
  std::cout
            << "; supervisor " << StatsLine << "\n";
  std::map<std::string, size_t> Mix;
  for (size_t I = Slices.front().FirstJob; I < Slices.front().EndJob; ++I)
    ++Mix[Run->Jobs[I].R.Verdict];
  std::cout << "first slice verdicts:";
  for (const auto &[Verdict, N] : Mix)
    std::cout << " " << Verdict << " " << N;
  std::cout << "\n";
  std::cout << "verified " << V.counts().Checked << " distinct answers ("
            << V.counts().ForwardRuns << " forward runs; minimality: "
            << V.counts().MinimalityEnumerated << " enumerated, "
            << V.counts().MinimalityByReference << " by reference, "
            << V.counts().MinimalityUnchecked << " unchecked)\n";

  Out.Metrics = {
      {"verdict_p50_ms", "ms", median(P50)},
      {"verdict_p99_ms", "ms", median(P99)},
      {"jobs_per_s", "1/s", median(Rate)},
      {"setup_s", "s", median(SetupSeconds)},
      {"register_p50_ms", "ms", median(RegisterMs)},
      {"peak_rss_mb", "MB", static_cast<double>(HwmKb) / 1024.0},
      {"server_cpu_ms_per_job", "ms", median(Cpu)},
      {"resolved_share", "share",
       static_cast<double>(Tally.TimedResolved) / Jobs},
      {"correct_share", "share", 1.0 - static_cast<double>(Out.Failed) / Jobs},
  };
  return true;
}

} // namespace perfbench
