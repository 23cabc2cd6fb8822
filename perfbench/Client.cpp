//===- Client.cpp - Closed-loop protocol client and script runner --------===//

#include "Client.h"

#include "Measure.h"

#include "service/Protocol.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <sched.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char **environ;

namespace perfbench {

using optabs::service::JsonLine;
using optabs::tracer::JsonObject;

double nowSeconds() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

double OpTimes::total() const {
  double S = 0;
  for (double X : Seconds)
    S += X;
  return S;
}

//===----------------------------------------------------------------------===//
// ServerProcess
//===----------------------------------------------------------------------===//

namespace {

bool processGone(pid_t Pid) {
  std::string Stat;
  {
    FILE *F = std::fopen(("/proc/" + std::to_string(Pid) + "/stat").c_str(),
                         "r");
    if (!F)
      return true;
    char Buf[512];
    size_t N = std::fread(Buf, 1, sizeof(Buf), F);
    std::fclose(F);
    Stat.assign(Buf, N);
  }
  size_t Close = Stat.rfind(')');
  return Close != std::string::npos && Close + 2 < Stat.size() &&
         (Stat[Close + 2] == 'Z' || Stat[Close + 2] == 'X');
}

/// Polls until every pid in \p Pids has ended (or \p TimeoutMs passes).
void awaitGone(const std::vector<pid_t> &Pids, int TimeoutMs) {
  for (int Waited = 0; Waited < TimeoutMs; Waited += 10) {
    bool All = true;
    for (pid_t P : Pids)
      All = All && processGone(P);
    if (All)
      return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

} // namespace

ServerProcess::~ServerProcess() { stop(); }

bool ServerProcess::spawn(const std::vector<std::string> &Argv,
                          const std::string &LogPath, std::string &Err) {
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_addopen(&FA, 1, LogPath.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&FA, 1, 2);
  std::vector<char *> Raw;
  for (const std::string &A : Argv)
    Raw.push_back(const_cast<char *>(A.c_str()));
  Raw.push_back(nullptr);
  int Rc = posix_spawn(&Pid, Raw[0], &FA, nullptr, Raw.data(), environ);
  posix_spawn_file_actions_destroy(&FA);
  if (Rc != 0) {
    Pid = -1;
    Err = "cannot spawn " + Argv[0] + ": " + std::strerror(Rc);
    return false;
  }
  return true;
}

bool ServerProcess::waitExit(int TimeoutMs) {
  if (Pid <= 0)
    return true;
  for (int Waited = 0; Waited <= TimeoutMs; Waited += 10) {
    int Status = 0;
    pid_t R = ::waitpid(Pid, &Status, WNOHANG);
    if (R == Pid || (R < 0 && errno == ECHILD)) {
      Pid = -1;
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop();
  return false;
}

void ServerProcess::stop() {
  if (Pid <= 0)
    return;
  std::vector<pid_t> Tree = processTree(Pid);
  // SIGTERM first: both servers treat it like the shutdown op, and the
  // supervisor shuts its workers down on that path.
  ::kill(Pid, SIGTERM);
  bool Reaped = false;
  for (int Waited = 0; Waited < 3000 && !Reaped; Waited += 10) {
    int Status = 0;
    pid_t R = ::waitpid(Pid, &Status, WNOHANG);
    Reaped = R == Pid || (R < 0 && errno == ECHILD);
    if (!Reaped)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!Reaped) {
    for (pid_t P : Tree)
      ::kill(P, SIGKILL);
    int Status = 0;
    ::waitpid(Pid, &Status, 0);
  }
  // Workers are the supervisor's children, reaped by it or (after a
  // SIGKILL) by init; either way wait until they are gone.
  std::vector<pid_t> Children(Tree.begin() + 1, Tree.end());
  awaitGone(Children, 3000);
  for (pid_t P : Children)
    if (!processGone(P))
      ::kill(P, SIGKILL);
  awaitGone(Children, 3000);
  Pid = -1;
}

void pinProcesses(const std::vector<pid_t> &Servers) {
  cpu_set_t Mine;
  CPU_ZERO(&Mine);
  if (::sched_getaffinity(0, sizeof(Mine), &Mine) != 0)
    return;
  std::vector<int> Cpus;
  for (int C = 0; C < CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Mine))
      Cpus.push_back(C);
  if (Cpus.size() < Servers.size() + 1)
    return;
  auto Pin = [](pid_t Tid, int Cpu) {
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpu, &One);
    ::sched_setaffinity(Tid, sizeof(One), &One);
  };
  Pin(0, Cpus[0]);
  for (size_t I = 0; I < Servers.size(); ++I) {
    std::string Tasks = "/proc/" + std::to_string(Servers[I]) + "/task";
    DIR *D = ::opendir(Tasks.c_str());
    if (!D)
      continue;
    while (dirent *E = ::readdir(D))
      if (E->d_name[0] != '.')
        Pin(static_cast<pid_t>(std::atoi(E->d_name)), Cpus[I + 1]);
    ::closedir(D);
  }
}

//===----------------------------------------------------------------------===//
// SocketExecutor
//===----------------------------------------------------------------------===//

namespace {

bool parseResponse(const std::string &Line, JsonLine &J, std::string &Err) {
  std::string PErr;
  if (!JsonLine::parse(Line, J, PErr)) {
    Err = "unparseable response '" + Line + "': " + PErr;
    return false;
  }
  if (!J.getBool("ok").value_or(false)) {
    Err = "server error: " + Line;
    return false;
  }
  return true;
}

JobResult resultFrom(const JsonLine &J) {
  JobResult R;
  R.Job = J.getUInt("job").value_or(0);
  R.Status = J.getString("status").value_or("");
  R.Verdict = J.getString("verdict").value_or("");
  R.Cost = static_cast<uint32_t>(J.getUInt("cost").value_or(0));
  R.Param = J.getString("param").value_or("");
  R.Iterations = static_cast<unsigned>(J.getUInt("iterations").value_or(0));
  R.Error = J.getString("error").value_or("");
  return R;
}

} // namespace

bool SocketExecutor::connect(const std::string &SocketPath, int TimeoutMs,
                             std::string &Err) {
  optabs::service::ListenSpec Spec;
  if (!optabs::service::ListenSpec::parse("unix:" + SocketPath, Spec, Err))
    return false;
  Ch = optabs::service::connectChannel(Spec, TimeoutMs, Err);
  return Ch.valid();
}

bool SocketExecutor::readLine(std::string &Line, std::string &Err) {
  auto S = Ch.readLine(Line, /*TimeoutMs=*/170000);
  if (S != optabs::service::LineChannel::ReadStatus::Line) {
    Err = std::string("connection: ") +
          optabs::service::LineChannel::statusName(S);
    return false;
  }
  Received += Line.size() + 1;
  return true;
}

bool SocketExecutor::call(const std::string &Line, std::string &Resp,
                          std::string &Err) {
  if (!Ch.writeLine(Line)) {
    Err = "connection: write failed";
    return false;
  }
  Sent += Line.size() + 1;
  return readLine(Resp, Err);
}

bool SocketExecutor::registerProgram(const std::string &Name,
                                     const std::string &Text, RegisterReply &R,
                                     std::string &Err) {
  JsonObject O;
  O.field("op", "register-program");
  O.field("name", Name);
  O.field("text", Text);
  std::string Resp;
  JsonLine J;
  if (!call(O.str(), Resp, Err) || !parseResponse(Resp, J, Err))
    return false;
  R.Incremental = J.getBool("incremental").value_or(false);
  R.DirtyChecks = static_cast<uint32_t>(J.getUInt("dirty_checks").value_or(0));
  return true;
}

bool SocketExecutor::openSession(const std::string &Program, bool Typestate,
                                 uint64_t &Session, std::string &Err) {
  JsonObject O;
  O.field("op", "open-session");
  O.field("program", Program);
  O.field("client", Typestate ? "typestate" : "escape");
  O.field("max-iters", MaxItersPerQuery);
  std::string Resp;
  JsonLine J;
  if (!call(O.str(), Resp, Err) || !parseResponse(Resp, J, Err))
    return false;
  Session = J.getUInt("session").value_or(0);
  return Session != 0;
}

bool SocketExecutor::submit(uint64_t Session, const JobDef &D, bool Typestate,
                            uint64_t &Job, std::string &Err) {
  JsonObject O;
  O.field("op", "submit");
  O.field("session", Session);
  O.field("check", D.Check);
  if (Typestate)
    O.field("site", D.Site);
  std::string Resp;
  JsonLine J;
  if (!call(O.str(), Resp, Err) || !parseResponse(Resp, J, Err))
    return false;
  Job = J.getUInt("job").value_or(0);
  return Job != 0;
}

bool SocketExecutor::drain(
    const std::function<void(const JobResult &)> &OnResult, std::string &Err) {
  std::string Line = "{\"op\":\"drain\"}";
  if (!Ch.writeLine(Line)) {
    Err = "connection: write failed";
    return false;
  }
  Sent += Line.size() + 1;
  for (;;) {
    std::string Resp;
    JsonLine J;
    if (!readLine(Resp, Err) || !parseResponse(Resp, J, Err))
      return false;
    std::string Op = J.getString("op").value_or("");
    if (Op == "drain")
      return true;
    if (Op != "result") {
      Err = "unexpected line in drain: " + Resp;
      return false;
    }
    OnResult(resultFrom(J));
  }
}

bool SocketExecutor::cache(const std::string &Action,
                           const std::string &Program, CacheReply &R,
                           std::string &Err) {
  JsonObject O;
  O.field("op", "cache");
  O.field("action", Action);
  if (!Program.empty())
    O.field("program", Program);
  std::string Resp;
  JsonLine J;
  if (!call(O.str(), Resp, Err) || !parseResponse(Resp, J, Err))
    return false;
  R.RunsPersisted = J.getUInt("runs_persisted").value_or(0);
  R.ResidentBytes = J.getUInt("resident_bytes").value_or(0);
  return true;
}

bool SocketExecutor::shutdown(std::string &Err) {
  std::string Resp;
  JsonLine J;
  return call("{\"op\":\"shutdown\"}", Resp, Err) &&
         parseResponse(Resp, J, Err);
}

//===----------------------------------------------------------------------===//
// ServiceExecutor
//===----------------------------------------------------------------------===//

ServiceExecutor::ServiceExecutor(
    optabs::service::AnalysisService::Options Opts)
    : Svc(std::make_unique<optabs::service::AnalysisService>(
          std::move(Opts))) {}

bool ServiceExecutor::registerProgram(const std::string &Name,
                                      const std::string &Text,
                                      RegisterReply &R, std::string &Err) {
  optabs::service::RegisterResult Res = Svc->registerProgram(Name, Text);
  if (!Res.Ok) {
    Err = "register-program " + Name + ": " + Res.Error;
    return false;
  }
  R.Incremental = Res.Incremental;
  R.DirtyChecks = Res.DirtyChecks;
  return true;
}

bool ServiceExecutor::openSession(const std::string &Program, bool Typestate,
                                  uint64_t &Session, std::string &Err) {
  // The same per-session configuration optabs-serve builds for an
  // open-session line carrying only "max-iters".
  optabs::service::SessionSpec Spec;
  Spec.Program = Program;
  Spec.Client = Typestate ? "typestate" : "escape";
  Spec.SessionConfig = optabs::Config::defaults();
  Spec.SessionConfig.Execution.MaxItersPerQuery = MaxItersPerQuery;
  optabs::service::Session S = Svc->openSession(Spec, Err);
  if (!S.valid())
    return false;
  Session = S.id();
  Sessions[Session] = S;
  return true;
}

bool ServiceExecutor::submit(uint64_t Session, const JobDef &D, bool,
                             uint64_t &Job, std::string &Err) {
  auto It = Sessions.find(Session);
  if (It == Sessions.end()) {
    Err = "unknown session";
    return false;
  }
  auto F = It->second.submit({D.Check, D.Site, 0}, &Job);
  if (Job == 0) {
    Err = "submit rejected: " + F.get().Error;
    return false;
  }
  InFlight.emplace_back(Job, std::move(F));
  return true;
}

bool ServiceExecutor::drain(
    const std::function<void(const JobResult &)> &OnResult, std::string &) {
  Svc->drain();
  for (auto &[Job, F] : InFlight) {
    optabs::service::QueryResult Q = F.get();
    JobResult R;
    R.Job = Job;
    R.Status = optabs::service::jobStatusName(Q.Status);
    if (Q.Status == optabs::service::JobStatus::Done) {
      R.Verdict = optabs::tracer::verdictName(Q.V);
      R.Iterations = Q.Iterations;
      if (Q.V == optabs::tracer::Verdict::Proven) {
        R.Cost = Q.CheapestCost;
        R.Param = Q.CheapestParam;
      }
    } else {
      R.Error = Q.Error;
    }
    OnResult(R);
  }
  InFlight.clear();
  return true;
}

bool ServiceExecutor::cache(const std::string &Action,
                            const std::string &Program, CacheReply &R,
                            std::string &Err) {
  optabs::service::CacheOpResult Res = Svc->cacheOp(Action, Program);
  if (!Res.Ok) {
    Err = "cache " + Action + ": " + Res.Error;
    return false;
  }
  R.RunsPersisted = Res.RunsPersisted;
  R.ResidentBytes = Res.ResidentBytes;
  return true;
}

//===----------------------------------------------------------------------===//
// ScriptRun
//===----------------------------------------------------------------------===//

ScriptRun::ScriptRun(Executor &Ex, const Workload &W) : Ex(Ex), W(W) {
  for (const ProgramDef &P : W.programs()) {
    Current.push_back(static_cast<uint32_t>(Texts.size()));
    Texts.push_back(P.Text);
  }
}

bool ScriptRun::setup(std::string &Err) {
  for (const ProgramDef &P : W.programs()) {
    RegisterReply R;
    double T0 = nowSeconds();
    if (!Ex.registerProgram(P.Name, P.Text, R, Err))
      return false;
    Ops["register"].Seconds.push_back(nowSeconds() - T0);
  }
  SessionIds.clear();
  for (const SessionDef &S : W.sessions()) {
    uint64_t Id = 0;
    double T0 = nowSeconds();
    if (!Ex.openSession(W.programs()[S.Program].Name, S.Typestate, Id, Err))
      return false;
    Ops["open"].Seconds.push_back(nowSeconds() - T0);
    SessionIds.push_back(Id);
  }
  // Registration only queues the snapshot load on the service's scheduler;
  // a cache op runs behind it there, so set-up ends once the caches are
  // warm.
  if (!W.usesCacheDir())
    return true;
  double T0 = nowSeconds();
  CacheReply R;
  if (!Ex.cache("stats", "", R, Err))
    return false;
  Ops["load-wait"].Seconds.push_back(nowSeconds() - T0);
  return true;
}

bool ScriptRun::run(const Unit &U, bool Timed, std::string &Err) {
  for (const Step &S : U) {
    double T0 = nowSeconds();
    switch (S.K) {
    case Step::Kind::Register: {
      RegisterReply R;
      if (!Ex.registerProgram(W.programs()[S.Program].Name, S.Text, R, Err))
        return false;
      Ops["register"].Seconds.push_back(nowSeconds() - T0);
      Current[S.Program] = static_cast<uint32_t>(Texts.size());
      Texts.push_back(S.Text);
      Reregistrations.push_back(R);
      break;
    }
    case Step::Kind::Submit: {
      const SessionDef &SD = W.sessions()[S.Job.Session];
      uint64_t Job = 0;
      if (!Ex.submit(SessionIds[S.Job.Session], S.Job, SD.Typestate, Job,
                     Err))
        return false;
      Ops["submit"].Seconds.push_back(nowSeconds() - T0);
      JobRecord Rec;
      Rec.Def = S.Job;
      Rec.Program = SD.Program;
      Rec.Version = Current[SD.Program];
      Rec.Typestate = SD.Typestate;
      Rec.Timed = Timed;
      Rec.SubmittedAt = T0;
      Pending[Job] = Jobs.size();
      Jobs.push_back(std::move(Rec));
      break;
    }
    case Step::Kind::Drain: {
      bool Unknown = false;
      bool Ok = Ex.drain(
          [&](const JobResult &R) {
            double At = nowSeconds();
            auto It = Pending.find(R.Job);
            if (It == Pending.end()) {
              Unknown = true;
              return;
            }
            JobRecord &Rec = Jobs[It->second];
            Rec.LatencyMs = (At - Rec.SubmittedAt) * 1000.0;
            Rec.R = R;
            Pending.erase(It);
          },
          Err);
      if (!Ok)
        return false;
      Ops["drain"].Seconds.push_back(nowSeconds() - T0);
      if (Unknown || !Pending.empty()) {
        Err = "drain answered " +
              std::string(Unknown ? "an unknown job" : "too few jobs");
        return false;
      }
      break;
    }
    case Step::Kind::Persist:
    case Step::Kind::Evict: {
      bool Persist = S.K == Step::Kind::Persist;
      CacheReply R;
      if (!Ex.cache(Persist ? "persist" : "evict",
                    W.programs()[S.Program].Name, R, Err))
        return false;
      Ops[Persist ? "persist" : "evict"].Seconds.push_back(nowSeconds() - T0);
      RunsPersisted += R.RunsPersisted;
      break;
    }
    }
  }
  return true;
}

} // namespace perfbench
