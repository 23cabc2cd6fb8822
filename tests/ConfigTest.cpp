//===- ConfigTest.cpp - Unified configuration surface tests -------------------===//
//
// optabs::Config is the single public configuration surface: defaults,
// environment resolution (OPTABS_*), structured validation, and the
// strategy-name round trip the driver parses. The precedence chain
// is explicit > environment > defaults; validate() must reject every
// documented invalid configuration with a stable field path so callers
// (CLI, serve tool, service sessions) can report errors uniformly.
// support::ArgParser, the shared CLI front end of both tools, is covered
// here too.
//
//===----------------------------------------------------------------------===//

#include "support/Args.h"
#include "support/Config.h"
#include "tracer/QueryDriver.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

using namespace optabs;

namespace {

/// Finds the message for \p Field among \p Errors ("" when absent).
std::string messageFor(const std::vector<ConfigError> &Errors,
                       const std::string &Field) {
  for (const ConfigError &E : Errors)
    if (E.Field == Field)
      return E.Message.empty() ? "(empty message)" : E.Message;
  return "";
}

/// RAII environment override so failures cannot leak into other tests.
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const char *Value) : Name(Name) {
    const char *Old = std::getenv(Name);
    if (Old) {
      Saved = Old;
      HadOld = true;
    }
    setenv(Name, Value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (HadOld)
      setenv(Name, Saved.c_str(), 1);
    else
      unsetenv(Name);
  }

private:
  const char *Name;
  std::string Saved;
  bool HadOld = false;
};

TEST(ConfigTest, DefaultsValidate) {
  Config C = Config::defaults();
  EXPECT_TRUE(C.validate().empty());
}

// The acceptance criterion: validate() rejects at least five documented
// invalid configurations, each with its stable field path.
TEST(ConfigTest, ValidateRejectsDocumentedInvalidConfigs) {
  {
    Config C = Config::defaults();
    C.Execution.Strategy = "simulated-annealing";
    EXPECT_NE(messageFor(C.validate(), "execution.strategy"), "");
  }
  {
    Config C = Config::defaults();
    C.Execution.TracesPerIteration = 0;
    EXPECT_NE(messageFor(C.validate(), "execution.traces_per_iteration"), "");
  }
  {
    Config C = Config::defaults();
    C.Execution.MaxItersPerQuery = 0;
    EXPECT_NE(messageFor(C.validate(), "execution.max_iters_per_query"), "");
  }
  {
    Config C = Config::defaults();
    C.Execution.ProductSoftCap = 0;
    EXPECT_NE(messageFor(C.validate(), "execution.product_soft_cap"), "");
  }
  {
    Config C = Config::defaults();
    C.Budgets.TimeBudgetSeconds = 0;
    EXPECT_NE(messageFor(C.validate(), "budgets.time_budget_seconds"), "");
  }
  {
    // Every strategy runs the staged round loop, so the memory ladder
    // applies to greedy-grow too.
    Config C = Config::defaults();
    C.Execution.Strategy = "greedy-grow";
    C.Budgets.MemoryBudgetBytes = 1 << 20;
    EXPECT_TRUE(C.validate().empty());
  }
  {
    Config C = Config::defaults();
    C.Observability.EventTraceLabel = "label-without-a-path";
    EXPECT_NE(messageFor(C.validate(), "observability.event_trace_label"),
              "");
  }
  {
    Config C = Config::defaults();
    C.Service.MaxPendingPerSession = 0;
    EXPECT_NE(messageFor(C.validate(), "service.max_pending_per_session"),
              "");
  }
  {
    Config C = Config::defaults();
    C.Service.MaxSessions = 0;
    EXPECT_NE(messageFor(C.validate(), "service.max_sessions"), "");
  }
  {
    // A spill budget with no cache directory has nowhere to spill.
    Config C = Config::defaults();
    C.Service.SpillBytes = 1 << 20;
    EXPECT_NE(messageFor(C.validate(), "service.spill_bytes"), "");
  }
  {
    // Likewise persisting at shutdown needs somewhere to persist to.
    Config C = Config::defaults();
    C.Service.PersistOnShutdown = true;
    EXPECT_NE(messageFor(C.validate(), "service.persist_on_shutdown"), "");
  }
  {
    // Both are fine once a cache directory is configured.
    Config C = Config::defaults();
    C.Service.CacheDir = "/tmp/optabs-cache";
    C.Service.SpillBytes = 1 << 20;
    C.Service.PersistOnShutdown = true;
    EXPECT_TRUE(C.validate().empty());
  }
}

TEST(ConfigTest, FormatConfigErrorsIsLinePerError) {
  Config C = Config::defaults();
  C.Execution.TracesPerIteration = 0;
  C.Service.MaxSessions = 0;
  std::string Text = formatConfigErrors(C.validate());
  EXPECT_NE(Text.find("config error: execution.traces_per_iteration"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("config error: service.max_sessions"),
            std::string::npos)
      << Text;
}

TEST(ConfigTest, EnvironmentOverridesDefaults) {
  ScopedEnv K("OPTABS_K", "9");
  ScopedEnv Strategy("OPTABS_STRATEGY", "greedy-grow");
  ScopedEnv Threads("OPTABS_THREADS", "3");
  ScopedEnv Cache("OPTABS_CACHE_CAPACITY", "17");
  std::vector<ConfigError> Errors;
  Config C = Config::fromEnv(&Errors);
  EXPECT_TRUE(Errors.empty()) << formatConfigErrors(Errors);
  EXPECT_EQ(C.Execution.K, 9u);
  EXPECT_EQ(C.Execution.Strategy, "greedy-grow");
  EXPECT_EQ(C.Execution.NumThreads, 3u);
  EXPECT_EQ(C.Execution.ForwardCacheCapacity, 17u);

  // Explicit assignment beats the environment: the precedence chain is
  // explicit > env > defaults, and "explicit" is just writing the field.
  C.Execution.K = 2;
  EXPECT_EQ(C.Execution.K, 2u);
  EXPECT_TRUE(C.validate().empty());
}

TEST(ConfigTest, MalformedEnvironmentReportsAndKeepsDefault) {
  Config Defaults = Config::defaults();
  ScopedEnv K("OPTABS_K", "banana");
  ScopedEnv Budget("OPTABS_STEP_BUDGET", "-5");
  std::vector<ConfigError> Errors;
  Config C = Config::fromEnv(&Errors);
  EXPECT_NE(messageFor(Errors, "execution.k"), "");
  EXPECT_NE(messageFor(Errors, "budgets.step_budget"), "");
  EXPECT_EQ(C.Execution.K, Defaults.Execution.K);
  EXPECT_EQ(C.Budgets.ForwardStepBudget, Defaults.Budgets.ForwardStepBudget);
}

TEST(ConfigTest, StepBudgetEnvArmsAllThreeBudgets) {
  ScopedEnv Budget("OPTABS_STEP_BUDGET", "12345");
  Config C = Config::fromEnv(nullptr);
  EXPECT_EQ(C.Budgets.ForwardStepBudget, 12345u);
  EXPECT_EQ(C.Budgets.BackwardStepBudget, 12345u);
  EXPECT_EQ(C.Budgets.SolverDecisionBudget, 12345u);
}

TEST(ConfigTest, StrategyNamesRoundTrip) {
  for (const char *Name : {"tracer", "eliminate-current", "greedy-grow"}) {
    EXPECT_TRUE(Config::isKnownStrategy(Name)) << Name;
    tracer::SearchStrategy S = tracer::SearchStrategy::Tracer;
    ASSERT_TRUE(tracer::parseStrategy(Name, S)) << Name;
    EXPECT_STREQ(tracer::strategyName(S), Name);
  }
  EXPECT_FALSE(Config::isKnownStrategy("definitely-not-a-strategy"));
}

//===----------------------------------------------------------------------===//
// support::ArgParser - the shared CLI front end.
//===----------------------------------------------------------------------===//

/// Runs \p Parser over \p Args (argv[0] prepended), returning the error.
std::string parseArgs(support::ArgParser &Parser,
                      std::vector<std::string> Args) {
  Args.insert(Args.begin(), "test-binary");
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  std::string Err;
  Parser.parse(static_cast<int>(Argv.size()), Argv.data(), Err);
  return Err;
}

TEST(ArgsTest, ParsesFlagsOptionsAndPositionals) {
  bool Verbose = false;
  unsigned K = 0;
  std::string Client;
  double Timeout = 0;
  std::vector<std::string> Positional;
  support::ArgParser Parser;
  Parser.flag("--verbose", &Verbose, "")
      .option("--k", &K, "")
      .option("--client", &Client, "")
      .option("--timeout", &Timeout, "")
      .positional(&Positional);
  std::string Err = parseArgs(
      Parser, {"--verbose", "--k=4", "--client=escape",
               "--timeout=2.5", "prog.ir"});
  EXPECT_EQ(Err, "");
  EXPECT_TRUE(Verbose);
  EXPECT_EQ(K, 4u);
  EXPECT_EQ(Client, "escape");
  EXPECT_EQ(Timeout, 2.5);
  ASSERT_EQ(Positional.size(), 1u);
  EXPECT_EQ(Positional[0], "prog.ir");
}

TEST(ArgsTest, RejectsUnknownOption) {
  support::ArgParser Parser;
  std::string Err = parseArgs(Parser, {"--no-such-flag"});
  EXPECT_EQ(Err, "unknown option '--no-such-flag'");
}

TEST(ArgsTest, RejectsMalformedValues) {
  unsigned K = 7;
  support::ArgParser Parser;
  Parser.option("--k", &K, "");
  std::string Err = parseArgs(Parser, {"--k=banana"});
  EXPECT_NE(Err.find("invalid value 'banana' for '--k'"), std::string::npos)
      << Err;
  EXPECT_EQ(K, 7u); // the target is untouched on failure
}

TEST(ArgsTest, RejectsMissingAndUnexpectedValues) {
  bool Flag = false;
  std::string S;
  support::ArgParser Parser;
  Parser.flag("--audit", &Flag, "").option("--client", &S, "");
  EXPECT_EQ(parseArgs(Parser, {"--client"}),
            "option '--client' requires a value ('--client=...')");
  EXPECT_EQ(parseArgs(Parser, {"--audit=yes"}),
            "option '--audit' takes no value");
}

TEST(ArgsTest, RejectsPositionalWithoutSink) {
  support::ArgParser Parser;
  EXPECT_EQ(parseArgs(Parser, {"stray"}), "unexpected argument 'stray'");
}

TEST(ArgsTest, CallbackErrorsPropagate) {
  support::ArgParser Parser;
  Parser.callback("--faults",
                  [](const std::string &Value, std::string &Detail) {
                    Detail = "bad spec '" + Value + "'";
                    return false;
                  });
  std::string Err = parseArgs(Parser, {"--faults=xyz"});
  EXPECT_NE(Err.find("invalid value 'xyz' for '--faults'"),
            std::string::npos)
      << Err;
  EXPECT_NE(Err.find("bad spec 'xyz'"), std::string::npos) << Err;
}

TEST(ArgsTest, HelpIsGeneratedFromTheFlags) {
  bool Audit = false;
  unsigned K = 0;
  support::ArgParser Parser("tool FILE");
  Parser.option("--k", &K, "dropk beam width")
      .flag("--audit", &Audit, "check every verdict");
  EXPECT_EQ(Parser.usage(), "usage: tool FILE [--k=N] [--audit] [--help]\n");
  // --help stops parsing before a later bad value can fail it.
  EXPECT_EQ(parseArgs(Parser, {"--help", "--k=banana"}), "");
  EXPECT_TRUE(Parser.helpRequested());
  EXPECT_EQ(K, 0u);
  EXPECT_EQ(Parser.help(), "usage: tool FILE [--k=N] [--audit] [--help]\n"
                           "\n"
                           "options:\n"
                           "  --k=N    dropk beam width\n"
                           "  --audit  check every verdict\n"
                           "  --help   print this help and exit\n");
}

TEST(ArgsTest, UsageWrapsLongFlagLists) {
  std::vector<std::string> Values(12);
  support::ArgParser Parser("tool");
  const char *Names[] = {"--alpha", "--bravo", "--charlie", "--delta",
                         "--echo",  "--foxtrot", "--golf",  "--hotel",
                         "--india", "--juliet", "--kilo",   "--lima"};
  for (size_t I = 0; I < Values.size(); ++I)
    Parser.option(Names[I], &Values[I], "");
  std::string Usage = Parser.usage();
  size_t Start = 0;
  size_t Lines = 0;
  for (size_t End; (End = Usage.find('\n', Start)) != std::string::npos;
       Start = End + 1, ++Lines) {
    EXPECT_LE(End - Start, 79u) << Usage;
    if (Lines > 0) {
      EXPECT_EQ(Usage.compare(Start, 12, std::string(12, ' ')), 0) << Usage;
    }
  }
  EXPECT_GT(Lines, 1u);
  for (const char *Name : Names)
    EXPECT_NE(Usage.find(std::string("[").append(Name).append("=VALUE]")),
              std::string::npos)
        << Usage;
  EXPECT_EQ(Usage.substr(Usage.size() - 9), "[--help]\n");
}

} // namespace
