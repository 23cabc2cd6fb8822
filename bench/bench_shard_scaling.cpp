//===- bench_shard_scaling.cpp - Throughput vs worker shard count ---------===//
//
// Measures multi-process scaling through the shard supervisor: the same
// multi-tenant workload (distinct programs, one session and a batch of
// checks each) through a ShardRouter over real single-threaded
// `optabs-serve` workers at 1, 2, and 4 shards. Tenants spread over
// shards by the router's (program, client) hash, and the drain fans out
// to every shard before collecting, so independent workers run their
// batches concurrently.
//
// Because §6 grouping makes verdicts batch-composition-independent, every
// shard count must produce bitwise-identical result lines; the bench
// asserts that. The throughput gate (>= 1.7x at 2 shards vs 1) only
// applies with real hardware parallelism - on a single hardware thread
// the extra workers are pure oversubscription and the ratio is
// meaningless, so the gate is skipped and recorded as such.
// OPTABS_PERF_ADVISORY=1 demotes a gate failure to a report.
//
// Usage: bench_shard_scaling [out.json]   (default: BENCH_shards.json)
//
//===----------------------------------------------------------------------===//

#include "BenchArgs.h"
#include "service/ShardRouter.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "tracer/EventTrace.h"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

using namespace optabs;
using service::ProcessShardHost;
using service::ShardRouter;
using service::ShardRouterOptions;
using tracer::JsonObject;

namespace {

constexpr unsigned NumTenants = 8;
constexpr unsigned ProcsPerTenant = 14;

/// The figure-6 shape, one check per procedure, salted per tenant so the
/// programs (and their shard hashes) are distinct.
std::string makeProgram(unsigned Salt) {
  std::string Text = "proc main {\n";
  for (unsigned I = 1; I <= ProcsPerTenant; ++I)
    Text += "  call p" + std::to_string(I) + ";\n";
  Text += "}\n";
  for (unsigned I = 1; I <= ProcsPerTenant; ++I) {
    std::string N = std::to_string(I) + "t" + std::to_string(Salt);
    std::string P = std::to_string(I);
    Text += "proc p" + P + " {\n";
    Text += "  u" + P + " = new ha" + N + ";\n";
    Text += "  v" + P + " = new hb" + N + ";\n";
    Text += "  v" + P + ".f = u" + P + ";\n";
    Text += "  check(u" + P + ");\n";
    Text += "}\n";
  }
  return Text;
}

struct Run {
  unsigned Shards = 0;
  double Seconds = 0; ///< drain wall clock (the concurrent part)
  uint64_t Jobs = 0;
  uint64_t Restarts = 0;
  std::vector<std::string> Results;
};

Run runAtShardCount(unsigned Shards) {
  ProcessShardHost::Options HO;
  HO.ServeBinary = OPTABS_SERVE_BIN;
  HO.WorkerArgs = {"--threads=1"}; // scaling must come from processes
  ProcessShardHost Host(HO);
  ShardRouterOptions RO;
  RO.NumShards = Shards;
  ShardRouter R(RO, Host);
  std::string Err;
  if (!R.start(Err)) {
    std::cerr << "cannot start " << Shards << " shard(s): " << Err << "\n";
    std::abort();
  }

  Run Out;
  Out.Shards = Shards;
  std::vector<std::string> Resp;
  for (unsigned T = 0; T < NumTenants; ++T) {
    JsonObject Reg;
    Reg.field("op", "register-program");
    Reg.field("name", "tenant" + std::to_string(T));
    Reg.field("text", makeProgram(T));
    R.handleLine(Reg.str(), Resp);
    JsonObject Open;
    Open.field("op", "open-session");
    Open.field("program", "tenant" + std::to_string(T));
    Open.field("client", "escape");
    Open.field("k", 2);
    R.handleLine(Open.str(), Resp);
    for (unsigned C = 0; C < ProcsPerTenant; ++C) {
      JsonObject Sub;
      Sub.field("op", "submit");
      Sub.field("session", uint64_t(T + 1));
      Sub.field("check", C);
      R.handleLine(Sub.str(), Resp);
      ++Out.Jobs;
    }
  }

  std::vector<std::string> DrainOut;
  Timer T;
  R.handleLine("{\"op\":\"drain\"}", DrainOut);
  Out.Seconds = T.seconds();
  for (std::string &L : DrainOut)
    if (L.find("\"op\":\"result\"") != std::string::npos)
      Out.Results.push_back(std::move(L));
  Out.Restarts = R.stats().Restarts;

  std::vector<std::string> Dropped;
  R.handleLine("{\"op\":\"shutdown\"}", Dropped);
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string OutPath = "BENCH_shards.json";
  if (std::optional<int> Exit = bench::parseOutputPath(
          Argc, Argv, "bench_shard_scaling [out.json]", OutPath))
    return *Exit;
  const unsigned HW = support::ThreadPool::hardwareWorkers();

  std::vector<Run> Runs;
  for (unsigned Shards : {1u, 2u, 4u})
    Runs.push_back(runAtShardCount(Shards));

  // Verdict identity across topologies, bitwise: the §6 grouping
  // argument, checked against real processes.
  bool Identical = true;
  for (const Run &R : Runs)
    Identical = Identical && R.Results == Runs[0].Results &&
                R.Jobs == R.Results.size() && R.Restarts == 0;

  double Speedup2 = Runs[1].Seconds > 0 && Runs[0].Seconds > 0
                        ? Runs[0].Seconds / Runs[1].Seconds
                        : 0;
  const bool GateApplies = HW > 1;
  bool GateOk = true;

  std::ofstream Out(OutPath);
  Out << "{\n"
      << "  \"benchmark\": \"shard_scaling\",\n"
      << "  \"tenants\": " << NumTenants << ",\n"
      << "  \"jobs\": " << Runs[0].Jobs << ",\n"
      << "  \"hardware_threads\": " << HW << ",\n"
      << "  \"speedup_2_shards\": " << Speedup2 << ",\n"
      << "  \"gate_applied\": " << (GateApplies ? "true" : "false") << ",\n"
      << "  \"results_identical\": " << (Identical ? "true" : "false")
      << ",\n"
      << "  \"runs\": [\n";
  for (size_t I = 0; I < Runs.size(); ++I) {
    const Run &R = Runs[I];
    double Jps = R.Seconds > 0 ? R.Jobs / R.Seconds : 0;
    Out << "    {\"shards\": " << R.Shards << ", \"drain_seconds\": "
        << R.Seconds << ", \"jobs_per_sec\": " << Jps << "}"
        << (I + 1 < Runs.size() ? "," : "") << "\n";
  }
  Out << "  ]\n}\n";

  for (const Run &R : Runs)
    std::cout << R.Shards << " shard(s): " << R.Jobs << " jobs in "
              << R.Seconds << "s ("
              << (R.Seconds > 0 ? R.Jobs / R.Seconds : 0) << " jobs/s)\n";
  std::cout << "2-shard speedup: " << Speedup2 << "x (hardware threads: "
            << HW << ")\n";
  std::cout << (Identical ? "result lines bitwise identical at every shard "
                            "count\n"
                          : "DETERMINISM VIOLATION: results differ across "
                            "shard counts\n");

  if (!Identical)
    return 1;
  if (GateApplies) {
    GateOk = Speedup2 >= 1.7;
    if (!GateOk) {
      std::cerr << "FAIL: 2-shard speedup " << Speedup2
                << "x is below the 1.7x gate\n";
      if (!std::getenv("OPTABS_PERF_ADVISORY"))
        return 1;
      std::cerr << "OPTABS_PERF_ADVISORY set - reporting only\n";
    }
  } else {
    std::cout << "single hardware thread: extra shards are pure "
              << "oversubscription; 1.7x gate skipped\n";
  }
  return 0;
}
