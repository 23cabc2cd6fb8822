//===- Config.cpp - Unified public configuration surface ----------------------===//

#include "support/Config.h"

#include <cstdlib>

namespace optabs {

namespace {

void addError(std::vector<ConfigError> *Errors, const std::string &Field,
              const std::string &Message) {
  if (Errors)
    Errors->push_back(ConfigError{Field, Message});
}

/// Parses \p Text fully as an unsigned integer; false on any junk.
bool parseU64(const std::string &Text, uint64_t &Out) {
  if (Text.empty())
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(Text.c_str(), &End, 10);
  if (errno != 0 || End != Text.c_str() + Text.size() || Text[0] == '-')
    return false;
  Out = static_cast<uint64_t>(V);
  return true;
}

bool parseDouble(const std::string &Text, double &Out) {
  if (Text.empty())
    return false;
  char *End = nullptr;
  errno = 0;
  double V = std::strtod(Text.c_str(), &End);
  if (errno != 0 || End != Text.c_str() + Text.size())
    return false;
  Out = V;
  return true;
}

/// One environment override: reads \p Var and hands the raw text to
/// \p Apply, which reports a malformed value by returning false.
template <typename ApplyFn>
void envOverride(const char *Var, const std::string &Field,
                 std::vector<ConfigError> *Errors, ApplyFn Apply) {
  const char *Raw = std::getenv(Var);
  if (!Raw)
    return;
  if (!Apply(std::string(Raw)))
    addError(Errors, Field,
             std::string("malformed value '") + Raw + "' in " + Var);
}

} // namespace

std::string formatConfigErrors(const std::vector<ConfigError> &Errors) {
  std::string Out;
  for (const ConfigError &E : Errors)
    Out += "config error: " + E.Field + ": " + E.Message + "\n";
  return Out;
}

std::string strategyNameList() {
  const size_t N = std::size(StrategyNames);
  std::string List;
  for (size_t I = 0; I < N; ++I)
    List.append(I == 0 ? "" : I + 1 == N ? " or " : ", ")
        .append(StrategyNames[I]);
  return List;
}

bool Config::isKnownStrategy(const std::string &Name) {
  SearchStrategy S;
  return parseStrategy(Name, S);
}

Config Config::fromEnv(std::vector<ConfigError> *Errors) {
  Config C;
  if (std::getenv("OPTABS_AUDIT"))
    C.Audit.Enabled = true;
  if (const char *Path = std::getenv("OPTABS_METRICS"))
    C.Observability.MetricsPath = Path;
  if (const char *Path = std::getenv("OPTABS_CHROME_TRACE"))
    C.Observability.ProfilePath = Path;
  if (const char *Path = std::getenv("OPTABS_EVENT_TRACE"))
    C.Observability.EventTracePath = Path;
  envOverride("OPTABS_THREADS", "execution.num_threads", Errors,
              [&](const std::string &V) {
                uint64_t N;
                if (!parseU64(V, N))
                  return false;
                C.Execution.NumThreads = static_cast<unsigned>(N);
                return true;
              });
  envOverride("OPTABS_K", "execution.k", Errors, [&](const std::string &V) {
    uint64_t N;
    if (!parseU64(V, N))
      return false;
    C.Execution.K = static_cast<unsigned>(N);
    return true;
  });
  envOverride("OPTABS_STRATEGY", "execution.strategy", Errors,
              [&](const std::string &V) {
                if (!isKnownStrategy(V))
                  return false;
                C.Execution.Strategy = V;
                return true;
              });
  envOverride("OPTABS_CACHE_CAPACITY", "execution.forward_cache_capacity",
              Errors, [&](const std::string &V) {
                uint64_t N;
                if (!parseU64(V, N))
                  return false;
                C.Execution.ForwardCacheCapacity = static_cast<size_t>(N);
                return true;
              });
  envOverride("OPTABS_STEP_BUDGET", "budgets.step_budget", Errors,
              [&](const std::string &V) {
                uint64_t N;
                if (!parseU64(V, N))
                  return false;
                C.Budgets.ForwardStepBudget = N;
                C.Budgets.BackwardStepBudget = N;
                C.Budgets.SolverDecisionBudget = N;
                return true;
              });
  envOverride("OPTABS_TIME_BUDGET_SECONDS", "budgets.time_budget_seconds",
              Errors, [&](const std::string &V) {
                double D;
                if (!parseDouble(V, D))
                  return false;
                C.Budgets.TimeBudgetSeconds = D;
                return true;
              });
  envOverride("OPTABS_MEMORY_BUDGET_MB", "budgets.memory_budget_bytes",
              Errors, [&](const std::string &V) {
                uint64_t N;
                if (!parseU64(V, N))
                  return false;
                C.Budgets.MemoryBudgetBytes = N * 1024 * 1024;
                return true;
              });
  envOverride("OPTABS_SERVICE_TRACE", "observability.service_trace",
              Errors, [&](const std::string &V) {
                uint64_t N;
                if (!parseU64(V, N) || N > 1)
                  return false;
                C.Observability.ServiceTrace = N == 1;
                return true;
              });
  if (const char *Dir = std::getenv("OPTABS_CACHE_DIR"))
    C.Service.CacheDir = Dir;
  envOverride("OPTABS_SPILL_BYTES", "service.spill_bytes", Errors,
              [&](const std::string &V) {
                uint64_t N;
                if (!parseU64(V, N))
                  return false;
                C.Service.SpillBytes = N;
                return true;
              });
  envOverride("OPTABS_PERSIST_ON_SHUTDOWN", "service.persist_on_shutdown",
              Errors, [&](const std::string &V) {
                uint64_t N;
                if (!parseU64(V, N) || N > 1)
                  return false;
                C.Service.PersistOnShutdown = N == 1;
                return true;
              });
  return C;
}

std::vector<ConfigError> Config::validate() const {
  std::vector<ConfigError> Errors;
  auto Reject = [&](const std::string &Field, const std::string &Message) {
    Errors.push_back(ConfigError{Field, Message});
  };

  // (1) Strategy must name one of the implemented searches.
  if (!isKnownStrategy(Execution.Strategy))
    Reject("execution.strategy",
           "unknown strategy '" + Execution.Strategy + "' (expected " +
               strategyNameList() + ")");
  // (2)-(4) Degenerate bounds that would make the CEGAR loop a no-op.
  if (Execution.TracesPerIteration == 0)
    Reject("execution.traces_per_iteration",
           "must analyze at least one counterexample per failed iteration");
  if (Execution.MaxItersPerQuery == 0)
    Reject("execution.max_iters_per_query",
           "the CEGAR loop needs at least one iteration per query");
  if (Execution.ProductSoftCap == 0)
    Reject("execution.product_soft_cap",
           "the Dnf::product soft cap must be at least 1");
  // (5) Budgets must be positive where zero has no 'unbounded' meaning.
  if (Budgets.TimeBudgetSeconds <= 0)
    Reject("budgets.time_budget_seconds", "must be positive");
  if (Budgets.BackwardTimeoutSeconds < 0)
    Reject("budgets.backward_timeout_seconds", "must be non-negative");
  // (6) A trace label without a trace file records nothing.
  if (!Observability.EventTraceLabel.empty() &&
      Observability.EventTracePath.empty())
    Reject("observability.event_trace_label",
           "an event-trace label requires observability.event_trace_path");
  // (7) The flight recorder must be able to hold at least one event.
  if (Observability.ServiceTrace && Observability.ServiceTraceCapacity == 0)
    Reject("observability.service_trace_capacity",
           "the flight recorder needs capacity for at least one event");
  // (8) Trace exports without tracing would silently write nothing.
  if (!Observability.ServiceTrace &&
      (!Observability.ServiceTraceJsonlPath.empty() ||
       !Observability.ServiceTraceChromePath.empty()))
    Reject("observability.service_trace_jsonl_path",
           "a service trace export path requires "
           "observability.service_trace");
  // (9) A negative slow-query threshold is meaningless (0 disables).
  if (Observability.SlowQuerySeconds < 0)
    Reject("observability.slow_query_seconds", "must be non-negative");
  // (10)/(11) Service quotas must admit a session and one job in it.
  if (Service.MaxPendingPerSession == 0)
    Reject("service.max_pending_per_session",
           "a session must be able to queue at least one job");
  if (Service.MaxSessions == 0)
    Reject("service.max_sessions",
           "the service must admit at least one session");
  // (12) The persistent cache tier needs a directory to write into.
  if (Service.CacheDir.empty()) {
    if (Service.SpillBytes > 0)
      Reject("service.spill_bytes",
             "a spill budget requires service.cache_dir (nowhere to "
             "write spill files)");
    if (Service.PersistOnShutdown)
      Reject("service.persist_on_shutdown",
             "persisting at shutdown requires service.cache_dir (nowhere "
             "to write snapshots)");
  }
  return Errors;
}

} // namespace optabs
